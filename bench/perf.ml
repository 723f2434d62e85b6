(* perf — host allocation fence for the simulator.

   Runs two pinned workloads, records the host GC profile of each (minor
   words, promoted words, major collections, minor words per simulated
   event) and writes it as JSON.  With --check, exceeding a pinned
   words-per-event ceiling is a non-zero exit.

     dune exec bench/perf.exe                          # table -> BENCH_alloc.json
     dune exec bench/perf.exe -- --check --out FILE    # ceilings enforced

   Host throughput (wall time, events/sec, RSS) is measured by the
   benchmark in lcmbench/, with medians over fresh-process passes; this
   rig only tracks allocation, which is deterministic and needs one run. *)

open Lcm_harness

type run = {
  workload : string;
  policy : string;
  sim_cycles : int;
  events : int;
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_collections : int;
  gc_words_per_event : float;
}

(* Events come from the calling domain's tally, so the count covers every
   engine the workload builds internally. *)
let measure ~workload ~policy f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let ev0 = Lcm_sim.Engine.domain_events () in
  let sim_cycles = f () in
  let g1 = Gc.quick_stat () in
  let events = Lcm_sim.Engine.domain_events () - ev0 in
  let gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  {
    workload;
    policy;
    sim_cycles;
    events;
    gc_minor_words;
    gc_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    gc_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    gc_words_per_event =
      (if events > 0 then gc_minor_words /. float_of_int events else 0.0);
  }

let runtime ~nnodes system =
  Config.make_runtime
    { Config.default_machine with Config.nnodes }
    system ~schedule:Lcm_cstar.Schedule.Static

let stencil ~nnodes ~n ~iters system () =
  let rt = runtime ~nnodes system in
  let r =
    Lcm_apps.Stencil.run rt { Lcm_apps.Stencil.n; iters; work_per_cell = 4 }
  in
  r.Lcm_apps.Bench_result.cycles

let synthetic ~nnodes params system () =
  let rt = runtime ~nnodes system in
  let r = Lcm_apps.Synthetic.run rt params in
  r.Lcm_apps.Bench_result.cycles

(* The pinned allocation workloads and their minor-words-per-event
   ceilings.  These are regression fences, not aspirations: the measured
   steady state is well below each ceiling (see BENCH_perf.json), and a
   future change that re-introduces per-event closure or record churn
   trips them long before it costs wall-clock.  Sizes are pinned because
   words/event is amortized over fixed startup allocation — changing the
   workload silently moves the number. *)
let alloc_ceilings =
  [ ("stencil-64x64-i10-p32", 87.5); ("synthetic-p16", 41.5) ]

let alloc_runs () =
  (* The first simulation in a process pays one-time lazy initialization
     (registries, hashtable growth, domain-local state) that must not be
     charged to either pinned cell: burn it on a throwaway run.  The two
     measurements are explicitly sequenced — a list literal would
     evaluate right-to-left and silently reorder the cells. *)
  ignore (stencil ~nnodes:4 ~n:8 ~iters:1 Config.lcm_mcc ());
  let s =
    measure ~workload:"stencil-64x64-i10-p32" ~policy:Config.lcm_mcc.Config.label
      (stencil ~nnodes:32 ~n:64 ~iters:10 Config.lcm_mcc)
  in
  let y =
    measure ~workload:"synthetic-p16" ~policy:Config.lcm_mcc.Config.label
      (synthetic ~nnodes:16 Lcm_apps.Synthetic.default Config.lcm_mcc)
  in
  [ s; y ]

let print_alloc_table rs =
  Printf.printf "%-28s %-12s %9s %13s %10s %7s %8s\n" "workload" "policy"
    "events" "minor-words" "promoted" "majors" "w/ev";
  List.iter
    (fun r ->
      Printf.printf "%-28s %-12s %9d %13.0f %10.0f %7d %8.1f\n" r.workload
        r.policy r.events r.gc_minor_words r.gc_promoted_words
        r.gc_major_collections r.gc_words_per_event)
    rs

let check_ceilings rs =
  List.for_all
    (fun (wl, ceiling) ->
      match List.find_opt (fun r -> r.workload = wl) rs with
      | None ->
        Printf.eprintf "perf: FATAL: alloc cell %s missing\n" wl;
        false
      | Some r when r.gc_words_per_event > ceiling ->
        Printf.eprintf
          "perf: FATAL: %s allocates %.1f minor words per event (ceiling \
           %.1f) — a change re-introduced per-event allocation churn; see \
           DESIGN.md §\"Host allocation discipline\"\n"
          wl r.gc_words_per_event ceiling;
        false
      | Some r ->
        Printf.printf "alloc ceiling ok: %-28s %6.1f w/ev <= %.1f\n" wl
          r.gc_words_per_event ceiling;
        true)
    alloc_ceilings

(* Serialized through the shared Report.Json path (same escaping as the
   sweep summaries). *)
let run_json r =
  Report.Json.Obj
    [
      ("workload", Report.Json.Str r.workload);
      ("policy", Report.Json.Str r.policy);
      ("sim_cycles", Report.Json.Int r.sim_cycles);
      ("events", Report.Json.Int r.events);
      ("host.gc_minor_words", Report.Json.Float r.gc_minor_words);
      ("host.gc_promoted_words", Report.Json.Float r.gc_promoted_words);
      ("host.gc_major_collections", Report.Json.Int r.gc_major_collections);
      ("host.gc_words_per_event", Report.Json.Float r.gc_words_per_event);
    ]

let () =
  let check = ref false in
  let out = ref "BENCH_alloc.json" in
  Arg.parse
    [
      ( "--check",
        Arg.Set check,
        " fail if a pinned words-per-event ceiling is exceeded" );
      ("--out", Arg.Set_string out, "FILE output JSON path (default BENCH_alloc.json)");
    ]
    (fun a -> raise (Arg.Bad ("unknown argument " ^ a)))
    "perf [--check] [--out FILE]";
  let rs = alloc_runs () in
  print_alloc_table rs;
  let doc =
    Report.Json.Obj
      [
        ("schema", Report.Json.Str "lcm-bench-perf/1");
        ("mode", Report.Json.Str "alloc");
        ("runs", Report.Json.Arr (List.map run_json rs));
      ]
  in
  let oc = open_out !out in
  output_string oc (Report.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s)\n" !out;
  if !check && not (check_ceilings rs) then exit 1
