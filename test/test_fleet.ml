(* Fleet orchestration tests: the three guarantees ISSUE'd for the pool —
   deterministic result ordering (parallel ≡ sequential, bit-for-bit),
   crash containment, and per-cell budgets — plus the shared JSON/CSV
   serialization path the sweep summaries ride on.

   Everything here runs at Tiny scale; the full-grid parallel-equivalence
   sweep covers every experiment family in Experiments.families. *)

open Lcm_harness
module Fleet = Lcm_fleet.Fleet

let systems =
  [ Config.stache; Config.lcm_scc; Config.lcm_mcc; Config.lcm_mcc_update ]

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  let cells =
    Array.init 23 (fun i ->
        (Printf.sprintf "cell-%d" i, fun () -> (i, i * i + 7)))
  in
  let check jobs =
    let results = Fleet.Pool.run ~jobs cells in
    Alcotest.(check int) "result count" 23 (Array.length results);
    Array.iteri
      (fun i (r : _ Fleet.cell_result) ->
        Alcotest.(check int) "index" i r.Fleet.index;
        Alcotest.(check string)
          "label"
          (Printf.sprintf "cell-%d" i)
          r.Fleet.label;
        match r.Fleet.outcome with
        | Fleet.Done v ->
          Alcotest.(check (pair int int)) "value" (i, (i * i) + 7) v
        | o -> Alcotest.failf "cell %d: %s" i (Fleet.outcome_string o))
      results
  in
  check 1;
  check 4;
  check 0 (* auto *)

let test_resolve_jobs () =
  Alcotest.(check int) "1 is 1" 1 (Fleet.resolve_jobs 1);
  Alcotest.(check int) "negative clamps" 1 (Fleet.resolve_jobs (-3));
  Alcotest.(check bool) "auto is positive" true (Fleet.resolve_jobs 0 >= 1)

(* ------------------------------------------------------------------ *)
(* Satellite 1: parallel ≡ sequential, for every experiment family     *)
(* ------------------------------------------------------------------ *)

let rows_equal (a : Experiments.row) (b : Experiments.row) =
  (* Bench_result.t is pure immutable data, so structural equality is the
     bit-exactness oracle for a row. *)
  a = b

let test_families_parallel_identical () =
  let machine = Config.default_machine in
  List.iter
    (fun (name, cells_of) ->
      let cells = cells_of ~scale:Experiments.Tiny machine in
      let seq = Experiments.run_cells cells in
      (* cells that share an experiment compute the same result *)
      Alcotest.(check bool) (name ^ ": systems agree") true
        (List.for_all snd (Experiments.verify_agreement seq));
      let results = Fleet.Pool.run ~jobs:4 (Array.of_list cells) in
      List.iter
        (fun (r : _ Fleet.cell_result) ->
          Alcotest.failf "%s: cell %s: %s" name r.Fleet.label
            (Fleet.outcome_string r.Fleet.outcome))
        (Sweep.failures results);
      let par = Sweep.rows results in
      Alcotest.(check int)
        (name ^ ": row count")
        (List.length seq) (List.length par);
      List.iter2
        (fun (s : Experiments.row) (p : Experiments.row) ->
          if not (rows_equal s p) then
            Alcotest.failf "%s: row %s/%s differs between jobs=1 and jobs=4"
              name s.Experiments.experiment s.Experiments.system)
        seq par)
    Experiments.families

(* Concurrent *identical* cells: the sharpest domain-safety probe.  If any
   state is shared across cell instances (a global stats registry, a
   shared trace sink, the old Engine.total ref), four copies of the same
   simulation racing on four domains will perturb each other's
   fingerprints.  The digest covers memory, every counter, and the full
   trace event sequence. *)
let test_concurrent_identical_fingerprints () =
  let run_one () =
    let rt =
      Config.make_runtime
        { Config.default_machine with Config.nnodes = 8 }
        Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
    in
    Lcm_tempest.Machine.enable_trace ~capacity:(1 lsl 16)
      (Lcm_cstar.Runtime.machine rt);
    ignore
      (Lcm_apps.Stencil.run rt
         { Lcm_apps.Stencil.n = 16; iters = 2; work_per_cell = 4 });
    Fingerprint.to_string (Fingerprint.of_runtime rt)
  in
  let expected = run_one () in
  let cells = Array.init 8 (fun i -> (Printf.sprintf "copy-%d" i, run_one)) in
  let results = Fleet.Pool.run ~jobs:4 cells in
  Array.iter
    (fun (r : string Fleet.cell_result) ->
      match r.Fleet.outcome with
      | Fleet.Done fp ->
        Alcotest.(check string)
          (r.Fleet.label ^ " fingerprint")
          expected fp
      | o -> Alcotest.failf "%s: %s" r.Fleet.label (Fleet.outcome_string o))
    results

(* ------------------------------------------------------------------ *)
(* Satellite 2: crash containment                                      *)
(* ------------------------------------------------------------------ *)

exception Boom of string

let test_crash_containment () =
  let cells =
    Array.init 9 (fun i ->
        ( Printf.sprintf "cell-%d" i,
          fun () ->
            if i = 4 then raise (Boom "deliberate failure in cell 4")
            else i * 10 ))
  in
  let check jobs =
    let results = Fleet.Pool.run ~jobs cells in
    let failed =
      Array.to_list results
      |> List.filter (fun (r : _ Fleet.cell_result) ->
             match r.Fleet.outcome with Fleet.Failed _ -> true | _ -> false)
    in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: exactly one Failed" jobs)
      1 (List.length failed);
    (match (List.hd failed).Fleet.outcome with
    | Fleet.Failed { exn; backtrace } ->
      Alcotest.(check bool)
        "exception text captured" true
        (let needle = "deliberate failure in cell 4" in
         let rec contains i =
           i + String.length needle <= String.length exn
           && (String.sub exn i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0);
      (* on whichever domain ran the cell, the calling one included *)
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: backtrace captured" jobs)
        true (backtrace <> "")
    | _ -> assert false);
    Array.iteri
      (fun i (r : int Fleet.cell_result) ->
        if i <> 4 then
          match r.Fleet.outcome with
          | Fleet.Done v -> Alcotest.(check int) "survivor value" (i * 10) v
          | o ->
            Alcotest.failf "jobs=%d cell %d: %s" jobs i
              (Fleet.outcome_string o))
      results
  in
  check 1;
  check 4

(* ------------------------------------------------------------------ *)
(* Satellite 3: budgets                                                *)
(* ------------------------------------------------------------------ *)

(* The event cap must fire at the same simulated point at any job count:
   same event count, same cycle. *)
let test_event_budget_deterministic () =
  let mk_cells () =
    Array.init 4 (fun i ->
        ( Printf.sprintf "stencil-%d" i,
          fun () ->
            let rt =
              Config.make_runtime
                { Config.default_machine with Config.nnodes = 8 }
                Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
            in
            ignore
              (Lcm_apps.Stencil.run rt
                 { Lcm_apps.Stencil.n = 16; iters = 4; work_per_cell = 4 });
            () ))
  in
  let budget = Fleet.Budget.make ~max_events:150 () in
  let timeouts jobs =
    Fleet.Pool.run ~jobs ~budget (mk_cells ())
    |> Array.map (fun (r : unit Fleet.cell_result) ->
           match r.Fleet.outcome with
           | Fleet.Timed_out (Fleet.Event_budget { events; at_cycle }) ->
             (events, at_cycle)
           | o ->
             Alcotest.failf "%s: expected event-budget timeout, got %s"
               r.Fleet.label (Fleet.outcome_string o))
  in
  let seq = timeouts 1 in
  let par = timeouts 4 in
  Array.iteri
    (fun i (events, at_cycle) ->
      Alcotest.(check int) "capped event count" 150 events;
      let pe, pc = par.(i) in
      Alcotest.(check int) "same events at jobs=4" events pe;
      Alcotest.(check int) "same cycle at jobs=4" at_cycle pc)
    seq;
  (* a generous cap must not fire *)
  let ok =
    Fleet.Pool.run ~jobs:2
      ~budget:(Fleet.Budget.make ~max_events:10_000_000 ())
      (mk_cells ())
  in
  Array.iter
    (fun (r : unit Fleet.cell_result) ->
      match r.Fleet.outcome with
      | Fleet.Done () -> ()
      | o -> Alcotest.failf "%s under large cap: %s" r.Fleet.label
               (Fleet.outcome_string o))
    ok

(* Wall-clock guard: a self-rescheduling engine never drains its queue, so
   only the guard can stop it. *)
let test_wall_clock_guard () =
  let cells =
    [|
      ( "spinner",
        fun () ->
          let module Engine = Lcm_sim.Engine in
          let e = Engine.create () in
          let rec respawn () =
            Engine.schedule e ~at:(Engine.now e + 1) respawn
          in
          respawn ();
          Engine.run e );
    |]
  in
  let budget = Fleet.Budget.make ~wall_s:0.05 () in
  let results = Fleet.Pool.run ~jobs:1 ~budget cells in
  match results.(0).Fleet.outcome with
  | Fleet.Timed_out (Fleet.Wall_clock { limit_s }) ->
    Alcotest.(check (float 1e-9)) "limit recorded" 0.05 limit_s
  | o -> Alcotest.failf "spinner: expected wall-clock timeout, got %s"
           (Fleet.outcome_string o)

(* ------------------------------------------------------------------ *)
(* Satellite 6: shared JSON/CSV serialization path                     *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  let open Report.Json in
  Alcotest.(check string)
    "quotes and backslashes" {|say \"hi\" \\ done|}
    (escape {|say "hi" \ done|});
  Alcotest.(check string)
    "control chars" {|tab\tnewline\nbell\u0007|}
    (escape "tab\tnewline\nbell\007");
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "non-finite floats are null" "null"
    (to_string (Float nan));
  let doc =
    Obj
      [
        ("s", Str "a\"b");
        ("n", Int 42);
        ("f", Float 1.5);
        ("l", Arr [ Bool true; Null ]);
      ]
  in
  (* must parse back with the in-repo JSON reader *)
  match Traceview.parse (to_string doc) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok v ->
    (match Traceview.member "s" v with
    | Some (Traceview.Str s) -> Alcotest.(check string) "string survives" "a\"b" s
    | _ -> Alcotest.fail "missing s");
    (match Traceview.member "n" v with
    | Some (Traceview.Num n) -> Alcotest.(check (float 0.0)) "int survives" 42.0 n
    | _ -> Alcotest.fail "missing n")

let test_csv_escaping () =
  Alcotest.(check string) "plain passes through" "abc" (Report.csv_field "abc");
  Alcotest.(check string)
    "comma quoted" {|"a,b"|} (Report.csv_field "a,b");
  Alcotest.(check string)
    "quote doubled" {|"say ""hi"""|} (Report.csv_field {|say "hi"|});
  Alcotest.(check string)
    "newline quoted" "\"a\nb\"" (Report.csv_field "a\nb");
  Alcotest.(check string)
    "line joins and terminates" "a,\"b,c\",d\n"
    (Report.csv_line [ "a"; "b,c"; "d" ])

let test_sweep_summaries () =
  let machine = Config.default_machine in
  let cells =
    Experiments.figure2_cells ~scale:Experiments.Tiny machine
    |> fun c -> List.filteri (fun i _ -> i < 2) c
  in
  let results = Fleet.Pool.run ~jobs:2 (Array.of_list cells) in
  let json = Sweep.summary_json ~suite:"figure2" ~scale:"tiny" ~jobs:2 results in
  (match Traceview.parse json with
  | Error e -> Alcotest.failf "summary JSON does not parse: %s" e
  | Ok doc ->
    (match Traceview.member "schema" doc with
    | Some (Traceview.Str s) ->
      Alcotest.(check string) "schema" "lcm-sweep/1" s
    | _ -> Alcotest.fail "summary JSON lacks schema");
    (match Traceview.member "cells" doc with
    | Some (Traceview.Arr cs) ->
      Alcotest.(check int) "cell count" 2 (List.length cs)
    | _ -> Alcotest.fail "summary JSON lacks cells"));
  let csv = Sweep.summary_csv results in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv: header + one line per cell" 3 (List.length lines);
  Alcotest.(check string)
    "csv header"
    "index,label,outcome,host_s,events,cycles,faults,remote_fetches,\
     clean_copies,messages,checksum,error"
    (List.hd lines);
  (* row content: each done cell carries its row's counters and checksum *)
  List.iteri
    (fun i (row : Experiments.row) ->
      let b = row.Experiments.result in
      let line = List.nth lines (i + 1) in
      let prefix =
        Printf.sprintf "%d,%s/%s,done," i row.Experiments.experiment
          row.Experiments.system
      and suffix =
        Printf.sprintf ",%d,%d,%d,%d,%d,%.9g," b.Lcm_apps.Bench_result.cycles
          b.Lcm_apps.Bench_result.faults b.Lcm_apps.Bench_result.remote_fetches
          b.Lcm_apps.Bench_result.clean_copies b.Lcm_apps.Bench_result.messages
          b.Lcm_apps.Bench_result.checksum
      in
      Alcotest.(check bool) ("csv row prefix " ^ line) true
        (String.starts_with ~prefix line);
      Alcotest.(check bool) ("csv row counters " ^ line) true
        (String.ends_with ~suffix line))
    (Sweep.rows results)

(* ------------------------------------------------------------------ *)
(* Stress harness through the pool                                     *)
(* ------------------------------------------------------------------ *)

let test_stress_parallel () =
  List.iter
    (fun policy ->
      match
        Stress.run ~policy ~jobs:2 ~cases:3 ~seed:7 ()
      with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "stress --jobs 2 (%s) failed:\n%s" policy.Config.label e)
    [ List.nth systems 0; List.nth systems 2 ]

(* A batch with several failing cases reports one of them, the same at any
   job count: the lowest-index failing case, shrunk. *)
let test_stress_one_report () =
  let policy = Lcm_core.Policy.stache in
  let faults =
    match Lcm_net.Faults.of_profile "drop-noretx" ~rate:0.5 ~seed:7 with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let failing =
    List.filter
      (fun case ->
        Result.is_error (Stress.run_case ~faults (Stress.gen ~seed:1 ~case ~policy ())))
      (List.init 6 Fun.id)
  in
  Alcotest.(check bool) "several cases fail" true (List.length failing > 1);
  let report jobs =
    match Stress.run ~policy ~faults ~jobs ~cases:6 ~seed:1 () with
    | Error e -> e
    | Ok () -> Alcotest.failf "jobs=%d: the batch passed" jobs
  in
  let sequential = report 1 in
  Alcotest.(check string) "jobs=1 and jobs=2 report alike" sequential (report 2);
  let names = Printf.sprintf "stress case failed: seed=1 case=%d " (List.hd failing) in
  Alcotest.(check bool) ("names the lowest failing case: " ^ names) true
    (String.starts_with ~prefix:names sequential)

let () =
  Alcotest.run "fleet"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering and identity" `Quick test_pool_ordering;
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
        ] );
      ( "parallel-equivalence",
        [
          Alcotest.test_case "every family, jobs=4 vs sequential" `Slow
            test_families_parallel_identical;
          Alcotest.test_case "concurrent identical cells fingerprint" `Quick
            test_concurrent_identical_fingerprints;
        ] );
      ( "containment",
        [ Alcotest.test_case "one crash, sweep survives" `Quick
            test_crash_containment ] );
      ( "budgets",
        [
          Alcotest.test_case "event cap deterministic across job counts"
            `Quick test_event_budget_deterministic;
          Alcotest.test_case "wall-clock guard stops a spinner" `Quick
            test_wall_clock_guard;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "json escaping + round-trip" `Quick
            test_json_escaping;
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
          Alcotest.test_case "sweep summaries" `Quick test_sweep_summaries;
        ] );
      ( "stress",
        [
          Alcotest.test_case "parallel batch matches sequential Ok" `Quick
            test_stress_parallel;
          Alcotest.test_case "one failing batch, one report" `Quick
            test_stress_one_report;
        ] );
    ]
