open Lcm_apps
module Tablefmt = Lcm_util.Tablefmt

(* ------------------------------------------------------------------ *)
(* Shared machine-readable serialization                               *)
(* ------------------------------------------------------------------ *)

(* Every machine-readable artefact the repo writes — sweep summaries,
   lcmbench's JSON — goes through these two writers, so escaping rules
   live in exactly one place. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* %.9g carries every figure our metrics have (wall seconds, speedups,
     checksums) and never emits an exponent JSON can't parse; non-finite
     floats have no JSON spelling, so they serialize as null. *)
  let float_repr f =
    if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

  let rec write buf ~indent ~level v =
    let pad n = String.make (n * indent) ' ' in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (level + 1));
          write buf ~indent ~level:(level + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad level);
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (level + 1));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          write buf ~indent ~level:(level + 1) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad level);
      Buffer.add_char buf '}'

  let to_string ?(indent = 2) v =
    let buf = Buffer.create 1024 in
    write buf ~indent ~level:0 v;
    Buffer.contents buf
end

let csv_field s =
  let needs_quoting =
    String.exists (function '"' | ',' | '\n' | '\r' -> true | _ -> false) s
  in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let csv_line fields = String.concat "," (List.map csv_field fields) ^ "\n"

let kilo n =
  if n >= 1000 then Printf.sprintf "%.1fk" (float_of_int n /. 1000.0)
  else string_of_int n

let agreement rows =
  let checks = Experiments.verify_agreement rows in
  "== Differential check: all systems compute identical results ==\n"
  ^ Tablefmt.render
      ~header:[ "experiment"; "agreement" ]
      (List.map (fun (e, ok) -> [ e; (if ok then "OK" else "MISMATCH") ]) checks)

let claims cs =
  "== Paper claims (Section 6.3) ==\n"
  ^ Tablefmt.render
      ~align:[ Lcm_util.Tablefmt.Left; Left; Right; Right; Right ]
      ~header:[ "claim"; "paper"; "measured"; "verdict" ]
      (List.map
         (fun (c : Experiments.claim) ->
           [
             c.description;
             c.paper;
             Printf.sprintf "%.2fx" c.measured;
             (if c.holds then "HOLDS" else "DIFFERS");
           ])
         cs)

let memory_usage rows =
  let counter r name =
    Option.value (List.assoc_opt name r.Experiments.result.Bench_result.counters)
      ~default:0
  in
  let gauge r name =
    Option.value (List.assoc_opt name r.Experiments.result.Bench_result.gauges)
      ~default:0
  in
  "== Clean-copy memory usage (Section 5.1) ==\n"
  ^ Tablefmt.render
      ~header:[ "benchmark"; "system"; "created"; "peak alive"; "blocks reconciled" ]
      (List.filter_map
         (fun (r : Experiments.row) ->
           if r.result.Bench_result.clean_copies = 0 then None
           else
             Some
               [
                 r.experiment;
                 r.system;
                 kilo (counter r "lcm.clean_copies");
                 kilo (gauge r "lcm.peak_clean_copies");
                 kilo (counter r "lcm.reconciled_blocks");
               ])
         rows)

let message_breakdown rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "== Message breakdown ==\n";
  List.iter
    (fun (r : Experiments.row) ->
      let parts =
        Bench_result.message_breakdown r.result
        |> List.map (fun (tag, n) -> Printf.sprintf "%s=%s" tag (kilo n))
      in
      Buffer.add_string buf
        (Printf.sprintf "%-16s %-14s %s\n" r.experiment r.system
           (String.concat " " parts)))
    rows;
  Buffer.contents buf

let samples rows =
  "== Observation series (count/mean/min/max) ==\n"
  ^ Tablefmt.render
      ~header:[ "experiment"; "system"; "sample"; "count"; "mean"; "min"; "max" ]
      (List.concat_map
         (fun (r : Experiments.row) ->
           List.map
             (fun (name, (sm : Lcm_util.Stats.summary)) ->
               [
                 r.experiment;
                 r.system;
                 name;
                 string_of_int sm.count;
                 Printf.sprintf "%.4g" sm.mean;
                 Printf.sprintf "%.4g" sm.min;
                 Printf.sprintf "%.4g" sm.max;
               ])
             r.result.Bench_result.samples)
         rows)

(* Slowdown is cycles over the fastest row of the same experiment, so the
   figure blocks read off the same table as every ablation. *)
let generic ~title rows =
  let fastest experiment =
    List.fold_left
      (fun acc (r : Experiments.row) ->
        if r.experiment = experiment then min acc r.result.Bench_result.cycles
        else acc)
      max_int rows
  in
  Printf.sprintf "== %s ==\n" title
  ^ Tablefmt.render
      ~header:
        [ "experiment"; "system"; "cycles"; "slowdown"; "misses"; "remote";
          "clean"; "msgs"; "checksum" ]
      (List.map
         (fun (r : Experiments.row) ->
           [
             r.experiment;
             r.system;
             string_of_int r.result.Bench_result.cycles;
             Printf.sprintf "%.2fx"
               (float_of_int r.result.Bench_result.cycles
               /. float_of_int (fastest r.experiment));
             kilo r.result.Bench_result.faults;
             kilo r.result.Bench_result.remote_fetches;
             kilo r.result.Bench_result.clean_copies;
             kilo r.result.Bench_result.messages;
             Printf.sprintf "%.5g" r.result.Bench_result.checksum;
           ])
         rows)

let phases log =
  let counter (p : Lcm_cstar.Runtime.phase) name =
    Option.value (List.assoc_opt name p.deltas) ~default:0
  in
  let cell p name = string_of_int (counter p name) in
  Tablefmt.render
    ~header:
      [ "phase"; "cycles"; "misses"; "remote"; "msgs"; "flushed"; "barrier wait" ]
    (List.map
       (fun (p : Lcm_cstar.Runtime.phase) ->
         [
           p.label;
           string_of_int p.cycles;
           string_of_int (counter p "fault.read" + counter p "fault.write");
           cell p "proto.fetch_remote";
           cell p "net.msgs";
           cell p "lcm.flush_blocks";
           cell p "lcm.barrier_wait_cycles";
         ])
       log)
