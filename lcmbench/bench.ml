(* lcmbench — the simulator's benchmark: five workloads, end-to-end metrics
   as medians over passes that each run in a fresh child process, failure
   accounting per unit, and a traced run that attributes host time to
   layers.  See README.md.

     sh lcmbench/run.sh --workload stencil --seed 1 --seconds 15 --trace 0
     sh lcmbench/run.sh --trace 1                  # per-layer metrics, all workloads
     sh lcmbench/run.sh --compare old.exe new.exe  # ABBA pairs and verdicts

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}. *)

module J = Lcm_harness.Report.Json
module T = Lcm_harness.Traceview
module Engine = Lcm_sim.Engine

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("lcmbench: " ^ s); exit 2) fmt
let one_line v = String.concat "" (String.split_on_char '\n' (J.to_string ~indent:0 v))
let secs ns = Int64.to_float ns *. 1e-9
let since t0 = secs (Int64.sub (Probe.now_ns ()) t0)

(* Peak resident set (VmHWM) of this process in kB; 0 without /proc. *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d" Fun.id)
    |> Option.value ~default:0

(* ------------------------------------------------------------------ *)
(* Child: one pass of one workload                                     *)
(* ------------------------------------------------------------------ *)

type timed = {
  label : string;
  seconds : float;
  events : int;
  access : int array;  (** loads, load hits, stores, store hits *)
  outcome : Workloads.outcome;
}

let access () = [| !Probe.loads; !Probe.load_hits; !Probe.stores; !Probe.store_hits |]

let run_unit (u : Workloads.unit_) =
  let ev0 = Engine.domain_events () and a0 = access () in
  let t0 = Probe.now_ns () in
  let fin =
    match Probe.span "simulate" (fun () -> Probe.budgeted u.exec) with
    | fin -> fin
    | exception e ->
      let msg = Printexc.to_string e in
      fun () -> Workloads.ok (Error ("exception: " ^ msg))
  in
  let seconds = since t0 in
  let events = Engine.domain_events () - ev0 in
  let access = Array.map2 ( - ) (access ()) a0 in
  let outcome =
    match Probe.span "verify" fin with
    | o -> o
    | exception e -> Workloads.ok (Error ("verify: exception: " ^ Printexc.to_string e))
  in
  { label = u.label; seconds; events; access; outcome }

(* Units whose checksum disagrees with the pass's first checksum fail:
   every memory system must compute the same answer. *)
let failures units =
  let first =
    List.find_map (fun t -> Option.map (fun c -> (t.label, c)) t.outcome.checksum) units
  in
  List.filter_map
    (fun t ->
      match (t.outcome.check, t.outcome.checksum, first) with
      | Error e, _, _ -> Some (t.label ^ ": " ^ e)
      | Ok (), Some c, Some (l, c0) when not (Workloads.close ~expected:c0 c) ->
        Some (Printf.sprintf "%s: checksum %.8g disagrees with %s's %.8g" t.label c l c0)
      | Ok (), _, _ -> None)
    units

let merge_counters units =
  let h = Hashtbl.create 64 in
  List.iter
    (fun t ->
      List.iter
        (fun (k, v) -> Hashtbl.replace h k (v + Option.value (Hashtbl.find_opt h k) ~default:0))
        t.outcome.counters)
    units;
  Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) h [] |> List.sort compare

let trace_file name = Filename.concat "out" ("bench_trace_" ^ name ^ ".json")

(* What only the traced pass knows: access counts, queue depth, GC pauses,
   span self times, merged counters — and the trace file, checked to
   parse back. *)
let traced_numbers (w : Workloads.t) units =
  Probe.stop ();
  let sum f = List.fold_left (fun s t -> s + f t) 0 units in
  let depth p =
    match !Probe.depths with [] -> 0. | d -> Summary.percentile p (List.map float_of_int d)
  in
  let bus_busy, bus_cycles =
    List.fold_left
      (fun (b, c) t ->
        match List.assoc_opt "bus.busy_cycles" t.outcome.counters with
        | Some busy -> (b + busy, c + t.outcome.cycles)
        | None -> (b, c))
      (0, 0) units
  in
  let selfs = Probe.self_times () in
  Printf.eprintf "%-22s %8s %10s %10s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, (n, tot, self)) -> Printf.eprintf "%-22s %8d %10.4f %10.4f\n" name n tot self)
    selfs;
  let self name = match List.assoc_opt name selfs with Some (_, _, s) -> s | None -> 0. in
  Out_channel.with_open_bin (trace_file w.name) (fun oc ->
      Out_channel.output_string oc (Probe.chrome_json ~workload:w.name));
  let trace_events =
    match T.validate_file (trace_file w.name) with
    | Ok n -> n
    | Error e ->
      prerr_endline ("lcmbench: trace does not parse back: " ^ e);
      0
  in
  [
    ("loads", J.Int (sum (fun t -> t.access.(0))));
    ("load_hits", J.Int (sum (fun t -> t.access.(1))));
    ("stores", J.Int (sum (fun t -> t.access.(2))));
    ("store_hits", J.Int (sum (fun t -> t.access.(3))));
    ("depth_p50", J.Float (depth 50.));
    ("depth_p99", J.Float (depth 99.));
    ( "bus_utilization",
      J.Float (if bus_cycles = 0 then 0. else float_of_int bus_busy /. float_of_int bus_cycles) );
    ("gc_pause_s", J.Float (Probe.gc_within "simulate"));
    ("span.setup.self_s", J.Float (self "setup"));
    ("span.simulate.self_s", J.Float (self "simulate"));
    ("trace_events", J.Int trace_events);
    ("counters", J.Obj (merge_counters units));
  ]

let child ~(w : Workloads.t) ~seed ~smoke ~traced ~pass =
  if traced then begin
    Probe.pass_id := pass;
    Probe.start ()
  end;
  let units, result =
    Probe.span "workload" @@ fun () ->
    Probe.span "pass" @@ fun () ->
    let units =
      Probe.span "setup" (fun () ->
          (* A smoke-size pass first, so one-time lazy initialisation is
             not charged to the timed units. *)
          List.iter
            (fun (u : Workloads.unit_) -> ignore (u.exec () ()))
            (w.setup ~seed ~smoke:true);
          Probe.engine := None;
          w.setup ~seed ~smoke)
    in
    print_endline "ready";
    (* Yardstick slices between the units — before the first, then
       whenever 0.1 s of units have gone by, and after the last — track
       the host's speed across the pass. *)
    let slices = ref [ Yardstick.slice () ] and last = ref (Probe.now_ns ()) in
    let slice () =
      slices := Yardstick.slice () :: !slices;
      last := Probe.now_ns ()
    in
    let gc0 = Gc.quick_stat () in
    let units =
      List.map
        (fun u ->
          let t = run_unit u in
          if since !last >= 0.1 then slice ();
          t)
        units
    in
    let gc1 = Gc.quick_stat () in
    slice ();
    let failures = failures units in
    let sum f = List.fold_left (fun s t -> s + f t) 0 units in
    let shown = List.filteri (fun i _ -> i < 5) failures in
    ( units,
      [
        ("attempted", J.Int (List.length units));
        ("failed", J.Int (List.length failures));
        ("failures", J.Arr (List.map (fun s -> J.Str s) shown));
        ("wall_s", J.Float (List.fold_left (fun s t -> s +. t.seconds) 0. units));
        ("unit_ms", J.Arr (List.map (fun t -> J.Float (t.seconds *. 1e3)) units));
        ("events", J.Int (sum (fun t -> t.events)));
        ("sim_cycles", J.Int (sum (fun t -> t.outcome.cycles)));
        ("minor_words", J.Float (gc1.Gc.minor_words -. gc0.Gc.minor_words));
        ("major_collections", J.Int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("rss_kb", J.Int (peak_rss_kb ()));
        ("yardstick_s", J.Float (Summary.median !slices));
      ] )
  in
  let result = if traced then result @ traced_numbers w units else result in
  print_endline (one_line (J.Obj result))

let ledger_child ~smoke =
  print_endline "ready";
  let fields =
    List.concat_map
      (fun (name, ns, r2) -> [ (name, J.Float ns); (name ^ ".r2", J.Float r2) ])
      (Ledger.measure ~smoke)
  in
  print_endline (one_line (J.Obj fields))

(* ------------------------------------------------------------------ *)
(* Parent: spawning passes                                             *)
(* ------------------------------------------------------------------ *)

type pass = {
  setup_s : float;  (** spawn to the child's "ready" *)
  fields : (string * T.json) list;
  attempted : int;
  failed : int;
  messages : string list;
}

let num p k = match List.assoc_opt k p.fields with Some (T.Num x) -> x | _ -> nan

let counter p k =
  match List.assoc_opt "counters" p.fields with
  | Some c -> ( match T.member k c with Some (T.Num x) -> x | _ -> 0.)
  | None -> 0.

(* Run [exe args] with its standard output piped back, and wait for it.
   Returns its exit status, the seconds until it printed "ready" (nan if
   never) and its last line of output. *)
let spawn ?(env = Unix.environment ()) exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Probe.now_ns () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let ready = ref nan and last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if line = "ready" && Float.is_nan !ready then ready := since t0 else last := line
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, !ready, !last)

let parse_last status last =
  match (status, T.parse last) with
  | Unix.WEXITED 0, Ok (T.Obj fields) -> Ok fields
  | Unix.WEXITED 0, _ -> Error "unreadable result line"
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
    Error (Printf.sprintf "exit status %d" c)

let run_pass ?(traced = false) ~(w : Workloads.t) ~seed ~smoke ~pass () =
  let args =
    [ "--child"; w.name; "--seed"; string_of_int seed; "--pass"; string_of_int pass ]
    @ (if smoke then [ "--smoke" ] else [])
    @ if traced then [ "--traced" ] else []
  in
  (* The traced child's Runtime_events ring lives (and is deleted at exit)
     under out/, beside the trace it writes. *)
  let env = Array.append [| "OCAML_RUNTIME_EVENTS_DIR=out" |] (Unix.environment ()) in
  let status, setup_s, last = spawn ~env Sys.executable_name args in
  match parse_last status last with
  | Ok fields ->
    let int k = match List.assoc_opt k fields with Some (T.Num x) -> truncate x | _ -> 0 in
    let messages =
      match List.assoc_opt "failures" fields with
      | Some (T.Arr l) -> List.filter_map (function T.Str s -> Some s | _ -> None) l
      | _ -> []
    in
    let bad_trace = traced && int "trace_events" < 1 in
    {
      setup_s;
      fields;
      attempted = int "attempted";
      failed = int "failed" + Bool.to_int bad_trace;
      messages = (if bad_trace then "trace file did not validate" :: messages else messages);
    }
  | Error e ->
    let msg = Printf.sprintf "%s pass %d: child %s" w.name pass e in
    { setup_s; fields = []; attempted = 1; failed = 1; messages = [ msg ] }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let finite = List.filter Float.is_finite
let median_of l = match finite l with [] -> nan | l -> Summary.median l

(* The yardstick's median slice time on the host the bounds were set on, a
   2-vCPU 2.0 GHz Xeon VM, during its quietest stretch. *)
let nominal_slice_s = 0.0062

(* Times are reported in seconds of that host: a pass's measured seconds
   times the nominal slice time over the pass's own median slice time. *)
let scale p = nominal_slice_s /. num p "yardstick_s"

(* An end-to-end metric's value in one pass. *)
let pass_value name p =
  match name with
  | "wall_s" -> num p "wall_s" *. scale p
  | "events_per_s" -> num p "events" /. (num p "wall_s" *. scale p)
  | "setup_s" -> p.setup_s *. scale p
  | "peak_rss_mb" -> num p "rss_kb" /. 1024.
  | "sim_events" -> num p "events"
  | _ -> invalid_arg ("pass_value " ^ name)

(* The run's value: the median over passes, except that peak memory is the
   highest any pass reached — a fresh process's VmHWM lands on one of two
   values about 4% apart, and a median would flip between them. *)
let run_value name values =
  match values with
  | [] -> nan
  | _ when name = "peak_rss_mb" -> List.fold_left Float.max neg_infinity values
  | _ -> median_of values

(* Each unit's median scaled time over the passes.  Every pass runs the
   same units in the same order. *)
let unit_medians passes =
  let times p =
    match List.assoc_opt "unit_ms" p.fields with
    | Some (T.Arr l) ->
      Array.of_list (List.map (function T.Num x -> x *. scale p | _ -> nan) l)
    | _ -> [||]
  in
  match List.filter (fun a -> Array.length a > 0) (List.map times passes) with
  | [] -> []
  | first :: _ as all ->
    let all = List.filter (fun a -> Array.length a = Array.length first) all in
    List.init (Array.length first) (fun i -> median_of (List.map (fun a -> a.(i)) all))

(* A metric's run value and its per-pass values.  The unit percentiles
   have none: they are taken over the units' medians, because ranked by
   single timings, units of similar size swap places from pass to pass. *)
let run_metric name passes =
  match name with
  | "unit_p50_ms" | "unit_p99_ms" ->
    let p = if name = "unit_p50_ms" then 50. else 99. in
    ((match unit_medians passes with [] -> nan | m -> Summary.percentile p m), [])
  | _ ->
    let values = finite (List.map (pass_value name) passes) in
    (run_value name values, values)

(* Interpolated on log depth between the two measured depths, less the
   shallow-queue cost the engine operation already includes. *)
let heap_extra_ns ~d32 ~d4k depth =
  let x = (Float.log2 (Float.max 32. depth) -. 5.) /. 7. in
  Float.max 0. (Float.min 1. x *. (d4k -. d32))

(* Every per-layer metric of one workload from its untraced passes, its
   traced pass and the ledger's costs. *)
let per_layer (w : Workloads.t) ~untraced ~(traced : pass) ~ledger =
  let med f = median_of (List.map f untraced) in
  let wall = med (fun p -> num p "wall_s") in
  let n = num traced and c = counter traced in
  let cost k = List.assoc k ledger in
  let ratio a b = if b = 0. then 0. else a /. b in
  let events = n "events" and hits = n "load_hits" +. n "store_hits" in
  let send = if w.faulty then "net.ns_per_send_reliable" else "net.ns_per_send" in
  let est =
    List.map
      (fun (k, ns) -> (k, ns *. 1e-9))
      [
        ("engine.est_s", events *. cost "engine.ns_per_event");
        ( "heap.est_s",
          events
          *. heap_extra_ns ~d32:(cost "heap.ns_per_op.d32") ~d4k:(cost "heap.ns_per_op.d4k")
               (n "depth_p50") );
        ( "tempest.est_s",
          (hits *. cost "tempest.ns_per_hit")
          +. (c "cstar.invocations" *. cost "tempest.ns_per_yield") );
        ("net.est_s", (c "net.msgs" -. c "msg.ack") *. cost send);
        ("proto.est_s", (c "fault.read" +. c "fault.write") *. cost "proto.ns_per_remote_miss");
        ("lcm.est_s", c "lcm.flush_blocks" *. cost "lcm.ns_per_flush");
      ]
  in
  let explained = List.fold_left (fun s (_, v) -> s +. v) 0. est in
  let counters =
    [
      "fault.read"; "fault.write"; "net.msgs"; "net.words"; "fault.retransmits"; "fault.drops";
      "fault.dup_suppressed"; "proto.handler_runs"; "proto.fetch_remote"; "proto.invals";
      "proto.recalls"; "bus.transactions"; "lcm.flush_blocks"; "lcm.reconciled_blocks";
      "lcm.barrier_wait_cycles"; "cstar.invocations"; "stress.cases"; "check.schedules";
      "check.transitions";
    ]
  in
  ledger @ est
  @ List.map (fun k -> (k, c k)) counters
  @ [
      ("engine.events", events);
      ("heap.depth_p50", n "depth_p50");
      ("heap.depth_p99", n "depth_p99");
      ("tempest.loads", n "loads");
      ("tempest.stores", n "stores");
      ("tempest.fast_hit_frac", ratio hits (n "loads" +. n "stores"));
      ( "net.channel_stall_cycles_mean",
        ratio (c "net.channel_stall_cycles.sum") (c "net.channel_stall_cycles.count") );
      ("net.retx_frac", ratio (c "fault.retransmits") (c "net.msgs"));
      ("bus.utilization", n "bus_utilization");
      ("bus.arb_stall_per_txn", ratio (c "bus.arb_stall_cycles") (c "bus.transactions"));
      ("sim.cycles", n "sim_cycles");
      ("span.setup.self_s", n "span.setup.self_s");
      ("span.simulate.self_s", n "span.simulate.self_s");
      ("check.prune_frac", ratio (c "check.prunes") (c "check.branches" +. c "check.prunes"));
      ("gc.minor_words_per_event", med (fun p -> num p "minor_words" /. num p "events"));
      ("gc.major_collections", med (fun p -> num p "major_collections"));
      ("gc.pause_s", n "gc_pause_s");
      ("gc.pause_frac", ratio (n "gc_pause_s") (n "wall_s"));
      ("ledger.explained_frac", explained /. wall);
      ("ledger.residual_s", wall -. explained);
      ("trace.overhead_frac", (n "wall_s" /. wall) -. 1.);
    ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* A metric without a value means the benchmark itself is broken; it
   counts as one more failed unit. *)
let result_line ~passes metrics =
  let missing = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  let attempted = List.fold_left (fun s p -> s + p.attempted) 0 passes in
  let failed = List.fold_left (fun s p -> s + p.failed) (List.length missing) passes in
  let report m = prerr_endline ("lcmbench: FAILED " ^ m) in
  List.iter (fun p -> List.iter report p.messages) passes;
  List.iter (fun (name, _, _) -> report ("no value for " ^ name)) missing;
  let metric (name, v, u) = (name, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]) in
  print_endline
    (one_line
       (J.Obj
          [
            ("correct", J.Bool (failed = 0 && attempted > 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map metric metrics));
          ]));
  failed

(* Passes round-robin over [workloads] so a slow spell on the host spreads
   over all of them; stops once [seconds] per workload have gone by and
   every workload has [min_passes] (a smoke run stops right there). *)
let measure ~workloads ~seed ~smoke ~seconds ~min_passes =
  let t0 = Probe.now_ns () in
  let budget = seconds *. float_of_int (List.length workloads) in
  let rec round i acc =
    let acc = List.map2 (fun w ps -> run_pass ~w ~seed ~smoke ~pass:i () :: ps) workloads acc in
    if i + 1 >= min_passes && (smoke || since t0 >= budget) then List.map List.rev acc
    else round (i + 1) acc
  in
  round 0 (List.map (fun _ -> []) workloads)

let prefix workloads (w : Workloads.t) = if List.length workloads = 1 then "" else w.name ^ "."

let run_untraced ~workloads ~seed ~smoke ~seconds =
  let all = measure ~workloads ~seed ~smoke ~seconds ~min_passes:(if smoke then 1 else 3) in
  let metrics (w : Workloads.t) passes =
    let passes = List.filter (fun p -> p.fields <> []) passes in
    let median k = median_of (List.map (fun p -> num p k) passes) in
    Printf.printf "%s: yardstick %.3f ms (nominal %.1f ms), unscaled wall_s %.4g\n" w.name
      (median "yardstick_s" *. 1e3) (nominal_slice_s *. 1e3) (median "wall_s");
    List.map
      (fun (m : Metrics.t) ->
        let v, values = run_metric m.name passes in
        let name = prefix workloads w ^ m.name in
        (match values with
        | [] ->
          Printf.printf "%-34s %14.6g %-6s over the units' medians, n=%d\n" name v m.unit_
            (List.length passes)
        | _ ->
          let q1, q3 = Summary.quartiles values in
          Printf.printf "%-34s %14.6g %-6s passes [%.6g .. %.6g]  spread %5.1f%%  n=%d\n" name v
            m.unit_ q1 q3 (100. *. Summary.spread values) (List.length values));
        (name, v, m.unit_))
      Metrics.end_to_end
  in
  result_line ~passes:(List.concat all) (List.concat (List.map2 metrics workloads all))

let run_traced ~workloads ~seed ~smoke ~seconds =
  let status, _, last =
    spawn Sys.executable_name ("--ledger" :: (if smoke then [ "--smoke" ] else []))
  in
  let ledger =
    match parse_last status last with
    | Ok fields -> List.filter_map (function k, T.Num v -> Some (k, v) | _ -> None) fields
    | Error e -> die "ledger child: %s" e
  in
  let run (w : Workloads.t) =
    let untraced =
      List.hd (measure ~workloads:[ w ] ~seed ~smoke ~seconds:(seconds /. 2.) ~min_passes:1)
    in
    let traced = run_pass ~traced:true ~w ~seed ~smoke ~pass:(List.length untraced) () in
    let layer = if traced.fields = [] then [] else per_layer w ~untraced ~traced ~ledger in
    let metrics =
      List.map
        (fun (m : Metrics.t) ->
          let v = Option.value (List.assoc_opt m.name layer) ~default:nan in
          let name = prefix workloads w ^ m.name in
          Printf.printf "%-44s %14.6g %s\n" name v m.unit_;
          (name, v, m.unit_))
        Metrics.per_layer
    in
    (traced :: untraced, metrics)
  in
  let runs = List.map run workloads in
  List.iter
    (fun (k, v) ->
      if Filename.check_suffix k ".r2" then Printf.printf "%-44s %14.4f\n" ("ledger fit " ^ k) v)
    ledger;
  result_line ~passes:(List.concat_map fst runs) (List.concat_map snd runs)

(* ------------------------------------------------------------------ *)
(* --compare: two built benchmark binaries, ABBA                       *)
(* ------------------------------------------------------------------ *)

let compare_bins (a, b) ~pairs ~workloads ~seed ~seconds =
  let runs = Hashtbl.create 16 in
  let run exe (w : Workloads.t) i =
    let seed = string_of_int (seed + i) in
    let args =
      [ "--workload"; w.name; "--seed"; seed; "--seconds"; string_of_int seconds; "--trace"; "0" ]
    in
    let status, _, last = spawn exe args in
    match parse_last status last with
    | Ok fields ->
      let doc = T.Obj fields in
      if T.member "correct" doc <> Some (T.Bool true) then
        Printf.eprintf "lcmbench: %s %s seed %s: run reported failures\n%!" exe w.name seed;
      Option.value (T.member "metrics" doc) ~default:T.Null
    | Error e -> die "%s %s: %s" exe w.name e
  in
  for i = 0 to pairs - 1 do
    List.iter
      (fun (w : Workloads.t) ->
        List.iter
          (fun (side, exe) -> Hashtbl.add runs (side, w.name, i) (run exe w i))
          (if i mod 2 = 0 then [ ('A', a); ('B', b) ] else [ ('B', b); ('A', a) ]))
      workloads
  done;
  Printf.printf "A = %s\nB = %s\n%d pairs, ABBA order, seeds %d..%d\n\n" a b pairs seed
    (seed + pairs - 1);
  Printf.printf "%-13s %-13s %26s %26s %6s  %s\n" "workload" "metric" "A median [q1 .. q3]"
    "B median [q1 .. q3]" "B wins" "verdict";
  let value metrics name =
    match Option.bind (T.member name metrics) (T.member "value") with
    | Some (T.Num x) -> x
    | _ -> nan
  in
  let cell xs =
    let q1, q3 = Summary.quartiles xs in
    Printf.sprintf "%.4g [%.4g .. %.4g]" (Summary.median xs) q1 q3
  in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (m : Metrics.t) ->
          let side s = List.init pairs (fun i -> value (Hashtbl.find runs (s, w.name, i)) m.name) in
          let pa = side 'A' and pb = side 'B' in
          if List.exists Float.is_nan (pa @ pb) then
            Printf.printf "%-13s %-13s (missing values)\n" w.name m.name
          else
            let bound = Option.get m.bound in
            Printf.printf "%-13s %-13s %26s %26s %5.0f%%  %s\n" w.name m.name (cell pa) (cell pb)
              (100. *. Summary.win_frac m.better ~parent:pa ~change:pb)
              (Summary.verdict_name (Summary.verdict m.better ~bound ~parent:pa ~change:pb)))
        Metrics.end_to_end)
    workloads

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let smoke = ref false and compare = ref None and first = ref "" and pairs = ref 10 in
  let child_of = ref "" and traced = ref false and pass = ref 0 and ledger = ref false in
  let names = String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ names ^ ", or all (default)");
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_int seconds, "N measure for N seconds per workload (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 1: per-layer metrics from a traced run (default 0)");
      ("--smoke", Arg.Set smoke, " tiny sizes, one pass; exit 1 on any failed unit");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string first; Arg.String (fun b -> compare := Some (!first, b)) ],
        "A B run two built benchmark binaries alternately (ABBA) and give verdicts" );
      ("--pairs", Arg.Set_int pairs, "N pairs for --compare (default 10)");
      ("--child", Arg.Set_string child_of, "NAME (internal) run one pass of a workload");
      ("--traced", Arg.Set traced, " (internal) trace the child pass");
      ("--pass", Arg.Set_int pass, "N (internal) pass number");
      ("--ledger", Arg.Set ledger, " (internal) time the layers' unit operations");
    ]
    (fun a -> die "unexpected argument %S (see --help)" a)
    "lcmbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]\n\
     lcmbench --compare A.exe B.exe [--pairs N] [--workload NAME] [--seed N] [--seconds N]";
  let find name =
    match Workloads.find name with Some w -> w | None -> die "unknown workload %S" name
  in
  if !ledger then ledger_child ~smoke:!smoke
  else if !child_of <> "" then
    child ~w:(find !child_of) ~seed:!seed ~smoke:!smoke ~traced:!traced ~pass:!pass
  else begin
    if !seconds < 1 then die "--seconds must be at least 1";
    if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
    if !pairs < 1 then die "--pairs must be at least 1";
    let workloads = if !workload = "all" then Workloads.all else [ find !workload ] in
    match !compare with
    | Some bins -> compare_bins bins ~pairs:!pairs ~workloads ~seed:!seed ~seconds:!seconds
    | None ->
      (try Unix.mkdir "out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let run = if !trace = 1 then run_traced else run_untraced in
      let failed = run ~workloads ~seed:!seed ~smoke:!smoke ~seconds:(float_of_int !seconds) in
      if !smoke && failed > 0 then exit 1
  end
