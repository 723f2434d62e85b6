type sample = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

(* Handles wrap the mutable cell together with enough context to register
   the name in the owning registry on first write.  Registration is lazy so
   that resolving a handle for a counter that never fires leaves no trace:
   [counters]/[gauges]/[samples] list exactly the names that were actually
   written.  [kind] is a phantom distinguishing counters from gauges at the
   type level. *)
type 'kind num_handle = {
  cell : int ref;
  num_name : string;
  num_table : (string, int ref) Hashtbl.t;
  mutable num_linked : bool;
}

type sample_handle = {
  rec_ : sample;
  s_name : string;
  s_table : (string, sample) Hashtbl.t;
  mutable s_linked : bool;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  samples : (string, sample) Hashtbl.t;
  (* unregistered handles by name, so two resolutions of a never-written
     name still share one cell *)
  pending_counters : (string, [ `Counter ] num_handle) Hashtbl.t;
  pending_gauges : (string, [ `Gauge ] num_handle) Hashtbl.t;
  pending_samples : (string, sample_handle) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    samples = Hashtbl.create 16;
    pending_counters = Hashtbl.create 16;
    pending_gauges = Hashtbl.create 8;
    pending_samples = Hashtbl.create 8;
  }

module Handle = struct
  type counter = [ `Counter ] num_handle
  type gauge = [ `Gauge ] num_handle
  type sample = sample_handle

  let link h =
    if not h.num_linked then begin
      Hashtbl.replace h.num_table h.num_name h.cell;
      h.num_linked <- true
    end

  let incr h =
    link h;
    Stdlib.incr h.cell

  let add h n =
    link h;
    h.cell := !(h.cell) + n

  let value h = !(h.cell)

  let set_max h v =
    link h;
    if v > !(h.cell) then h.cell := v

  let link_sample h =
    if not h.s_linked then begin
      Hashtbl.replace h.s_table h.s_name h.rec_;
      h.s_linked <- true
    end

  let observe h x =
    link_sample h;
    let r = h.rec_ in
    r.count <- r.count + 1;
    r.sum <- r.sum +. x;
    if x < r.min then r.min <- x;
    if x > r.max then r.max <- x
end

let resolve_num table pending name =
  match Hashtbl.find_opt table name with
  | Some cell -> { cell; num_name = name; num_table = table; num_linked = true }
  | None -> (
    match Hashtbl.find_opt pending name with
    | Some h -> h
    | None ->
      let h =
        { cell = ref 0; num_name = name; num_table = table; num_linked = false }
      in
      Hashtbl.add pending name h;
      h)

let counter s name = resolve_num s.counters s.pending_counters name

let gauge s name = resolve_num s.gauges s.pending_gauges name

let fresh_sample () = { count = 0; sum = 0.0; min = infinity; max = neg_infinity }

let sample s name =
  match Hashtbl.find_opt s.samples name with
  | Some rec_ -> { rec_; s_name = name; s_table = s.samples; s_linked = true }
  | None -> (
    match Hashtbl.find_opt s.pending_samples name with
    | Some h -> h
    | None ->
      let h =
        { rec_ = fresh_sample (); s_name = name; s_table = s.samples;
          s_linked = false }
      in
      Hashtbl.add s.pending_samples name h;
      h)

let get s name = match Hashtbl.find_opt s.counters name with Some r -> !r | None -> 0

type summary = { count : int; mean : float; min : float; max : float }

(* Only called on observed series (count > 0): an empty series has no
   min/max, so summarizing it would have to invent values (the old 0.0
   placeholder was indistinguishable from a real all-zero sample).
   Empty series are instead omitted from [samples]. *)
let summarize (r : sample) =
  { count = r.count; mean = r.sum /. float_of_int r.count; min = r.min;
    max = r.max }

let samples s =
  Hashtbl.fold
    (fun name (r : sample) acc ->
      if r.count > 0 then (name, summarize r) :: acc else acc)
    s.samples []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sorted_bindings table =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters s = sorted_bindings s.counters

let gauges s = sorted_bindings s.gauges

(* Gauges live in their own table: a gauge is a high-water mark, not an
   accumulation, so merging runs takes the max — summing would report
   impossible peaks. *)
let merge_into ~dst src =
  (* Merging a registry into itself would double-count every counter and
     mutate the sample records mid-iteration; it can only arise by
     accident, so make it an explicit no-op. *)
  if dst != src then begin
    Hashtbl.iter (fun name r -> Handle.add (counter dst name) !r) src.counters;
    Hashtbl.iter (fun name r -> Handle.set_max (gauge dst name) !r) src.gauges;
    Hashtbl.iter
      (fun name (r : sample) ->
        let dh = sample dst name in
        Handle.link_sample dh;
        let d = dh.rec_ in
        d.count <- d.count + r.count;
        d.sum <- d.sum +. r.sum;
        if r.min < d.min then d.min <- r.min;
        if r.max > d.max then d.max <- r.max)
      src.samples
  end

let pp ppf s =
  List.iter (fun (name, v) -> Format.fprintf ppf "%s = %d@." name v) (counters s);
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%s = %d (gauge)@." name v)
    (gauges s);
  List.iter
    (fun (name, sm) ->
      Format.fprintf ppf "%s = count=%d mean=%g min=%g max=%g (sample)@." name
        sm.count sm.mean sm.min sm.max)
    (samples s)
