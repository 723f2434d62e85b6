(* Tests for the experiment harness: configuration, row bookkeeping, claim
   evaluation and report rendering. *)

open Lcm_harness
module Bench_result = Lcm_apps.Bench_result

let mk_result ?(cycles = 1000) ?(checksum = 1.0) name =
  Bench_result.make ~name ~cycles ~checksum ~stats:(Lcm_util.Stats.create ())

let row experiment system ?(cycles = 1000) ?(checksum = 1.0) () =
  {
    Experiments.experiment;
    system;
    result = mk_result ~cycles ~checksum (experiment ^ "/" ^ system);
  }

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_system_parse () =
  List.iter
    (fun (s, expected) ->
      match Lcm_core.Policy.of_string s with
      | Ok sys -> Alcotest.(check string) s expected sys.Config.label
      | Error e -> Alcotest.fail e)
    [
      ("stache", "Stache+copy");
      ("Stache+copy", "Stache+copy");
      ("copy", "Stache+copy");
      ("scc", "LCM-scc");
      ("SCC", "LCM-scc");
      ("mcc", "LCM-mcc");
      ("LCM-MCC", "LCM-mcc");
      ("lcm", "LCM-mcc");
      ("update", "LCM-mcc-update");
      ("msi", "MSI");
      (" msi ", "MSI");
      ("MESI", "MESI");
      (" MESI ", "MESI");
      ("moesi", "MOESI");
    ];
  (match Lcm_core.Policy.of_string "ring" with
  | Error e ->
    Alcotest.(check string) "error enumerates accepted spellings"
      "unknown policy \"ring\" (expected one of: stache|stache+copy|copy, \
       lcm-scc|scc, lcm-mcc|mcc|lcm, lcm-mcc-update|mcc-update|update, msi, \
       mesi, moesi)"
      e
  | Ok _ -> Alcotest.fail "junk accepted")

let test_all_systems_follow_registry () =
  let m = { Config.default_machine with Config.nnodes = 4 } in
  Alcotest.(check int) "seven policies" 7 (List.length Lcm_core.Policy.policies);
  List.iter
    (fun (s : Config.system) ->
      let rt = Config.make_runtime m s ~schedule:Lcm_cstar.Schedule.Static in
      Alcotest.(check bool)
        (s.Config.label ^ " strategy follows the policy")
        (List.mem s.Config.label [ "LCM-scc"; "LCM-mcc"; "LCM-mcc-update" ])
        (Lcm_cstar.Runtime.strategy rt = Lcm_cstar.Runtime.Lcm_directives))
    Lcm_core.Policy.policies

let test_systems_order () =
  Alcotest.(check (list string)) "paper order"
    [ "LCM-scc"; "LCM-mcc"; "Stache+copy" ]
    (List.map (fun s -> s.Config.label) Config.systems)

let test_default_machine_is_cm5_shaped () =
  let m = Config.default_machine in
  Alcotest.(check int) "32 nodes" 32 m.Config.nnodes;
  Alcotest.(check int) "8-word blocks" 8 m.Config.words_per_block;
  Alcotest.(check bool) "fat tree" true
    (m.Config.topology = Lcm_net.Topology.Fat_tree { arity = 4 })

let test_make_runtime_wires_strategy () =
  let m = { Config.default_machine with Config.nnodes = 4 } in
  let rt = Config.make_runtime m Config.stache ~schedule:Lcm_cstar.Schedule.Static in
  Alcotest.(check bool) "explicit copy" true
    (Lcm_cstar.Runtime.strategy rt = Lcm_cstar.Runtime.Explicit_copy);
  let rt = Config.make_runtime m Config.lcm_scc ~schedule:Lcm_cstar.Schedule.Static in
  Alcotest.(check bool) "lcm" true
    (Lcm_cstar.Runtime.strategy rt = Lcm_cstar.Runtime.Lcm_directives)

(* ------------------------------------------------------------------ *)
(* Experiments bookkeeping                                             *)
(* ------------------------------------------------------------------ *)

let test_group_by_preserves_order () =
  let rows =
    [ row "b" "x" (); row "a" "x" (); row "b" "y" (); row "a" "y" () ]
  in
  let groups = Experiments.group_by_experiment rows in
  Alcotest.(check (list string)) "first-appearance order" [ "b"; "a" ]
    (List.map fst groups);
  Alcotest.(check int) "b has 2 rows" 2 (List.length (List.assoc "b" groups))

let test_agreement_detects_mismatch () =
  let rows =
    [
      row "good" "s1" ~checksum:5.0 ();
      row "good" "s2" ~checksum:5.0 ();
      row "bad" "s1" ~checksum:5.0 ();
      row "bad" "s2" ~checksum:9.0 ();
    ]
  in
  let checks = Experiments.verify_agreement rows in
  Alcotest.(check bool) "good agrees" true (List.assoc "good" checks);
  Alcotest.(check bool) "bad flagged" false (List.assoc "bad" checks);
  Alcotest.(check bool) "not all agree" false (List.for_all snd checks)

let synthetic_rows =
  (* cycles chosen so every §6.3 claim direction holds *)
  [
    row "stencil-stat" "Stache+copy" ~cycles:100 ();
    row "stencil-stat" "LCM-mcc" ~cycles:500 ();
    row "stencil-stat" "LCM-scc" ~cycles:2000 ();
    row "stencil-dyn" "Stache+copy" ~cycles:1000 ();
    row "stencil-dyn" "LCM-mcc" ~cycles:980 ();
    row "stencil-dyn" "LCM-scc" ~cycles:2500 ();
    row "adaptive-stat" "Stache+copy" ~cycles:1000 ();
    row "adaptive-stat" "LCM-mcc" ~cycles:1130 ();
    row "adaptive-stat" "LCM-scc" ~cycles:1120 ();
    row "adaptive-dyn" "Stache+copy" ~cycles:1900 ();
    row "adaptive-dyn" "LCM-mcc" ~cycles:1000 ();
    row "adaptive-dyn" "LCM-scc" ~cycles:1010 ();
    row "threshold" "Stache+copy" ~cycles:1970 ();
    row "threshold" "LCM-mcc" ~cycles:1000 ();
    row "threshold" "LCM-scc" ~cycles:1130 ();
    row "unstructured" "Stache+copy" ~cycles:1250 ();
    row "unstructured" "LCM-mcc" ~cycles:1000 ();
    row "unstructured" "LCM-scc" ~cycles:1080 ();
  ]

let test_claims_all_hold_on_paper_numbers () =
  let cs = Experiments.claims synthetic_rows in
  Alcotest.(check int) "ten claims" 10 (List.length cs);
  List.iter
    (fun (c : Experiments.claim) ->
      Alcotest.(check bool) c.Experiments.id true c.Experiments.holds)
    cs

let test_claims_detect_inversion () =
  (* make Stache lose stencil-stat: the first claim must fail *)
  let rows =
    List.map
      (fun (r : Experiments.row) ->
        if r.experiment = "stencil-stat" && r.system = "Stache+copy" then
          row "stencil-stat" "Stache+copy" ~cycles:99999 ()
        else r)
      synthetic_rows
  in
  let c = List.hd (Experiments.claims rows) in
  Alcotest.(check bool) "inverted claim fails" false c.Experiments.holds

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_execution_times_render () =
  (* the figures' execution-time columns of the generic table *)
  let out = Report.generic ~title:"T" synthetic_rows in
  Alcotest.(check bool) "has title" true (contains out "== T ==");
  Alcotest.(check bool) "has slowdown column" true (contains out "slowdown");
  Alcotest.(check bool) "fastest is 1.00x" true (contains out "1.00x");
  let mcc_stat =
    List.find
      (fun l -> contains l "stencil-stat" && contains l "LCM-mcc")
      (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "slowdown is per experiment" true
    (contains mcc_stat "5.00x")

let test_table1_render () =
  (* Table 1's kilo-formatted counter columns of the generic table *)
  let out = Report.generic ~title:"Table 1" synthetic_rows in
  Alcotest.(check bool) "kilo formatting" true (contains out "misses");
  Alcotest.(check bool) "Table 1 counter columns" true
    (contains out "remote" && contains out "clean" && contains out "msgs")

let test_claims_render () =
  let out = Report.claims (Experiments.claims synthetic_rows) in
  Alcotest.(check bool) "verdict column" true (contains out "HOLDS")

let test_csv_export () =
  (* the one CSV writer: the sweep summary over done cells *)
  let done_cell index (r : Experiments.row) =
    {
      Sweep.Fleet.index;
      label = r.experiment ^ "/" ^ r.system;
      outcome = Sweep.Fleet.Done r;
      host_s = 0.0;
      events = 0;
    }
  in
  let results =
    Array.of_list
      (List.mapi done_cell (List.filteri (fun i _ -> i < 2) synthetic_rows))
  in
  let out = Sweep.summary_csv results in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "header" true
    (contains (List.hd lines) "cycles,faults,remote_fetches,clean_copies");
  Alcotest.(check bool) "row content" true
    (contains out "0,stencil-stat/Stache+copy,done,0.000000,0,100,0,0,0,0,1,\n")

(* ------------------------------------------------------------------ *)
(* End-to-end (tiny machine)                                           *)
(* ------------------------------------------------------------------ *)

let test_bench_result_close () =
  let a = mk_result ~checksum:100.0 "a" and b = mk_result ~checksum:100.000001 "b" in
  Alcotest.(check bool) "close" true (Bench_result.close a b);
  let c = mk_result ~checksum:101.0 "c" in
  Alcotest.(check bool) "not close" false (Bench_result.close a c)

let test_families_honour_fault_plan () =
  (* every family runs its cells on the machine it is handed, fault plan
     included; the snooping bus is reliable by design, so bus rows are
     exempt *)
  let faults =
    Result.get_ok (Lcm_net.Faults.of_profile "chaos" ~rate:0.05 ~seed:7)
  in
  let machine = { Config.default_machine with Config.faults = Some faults } in
  List.iter
    (fun (family, cells_of) ->
      List.iter
        (fun (r : Experiments.row) ->
          let bus =
            match Lcm_core.Policy.of_string r.Experiments.system with
            | Ok s -> (
              match s.Lcm_core.Policy.family with
              | Lcm_core.Policy.Snoop _ -> true
              | Lcm_core.Policy.Directory _ -> false)
            | Error _ -> false
          in
          let count k =
            Option.value ~default:0
              (List.assoc_opt k r.Experiments.result.Bench_result.counters)
          in
          if not bus then
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s/%s saw faults" family r.Experiments.experiment
                 r.Experiments.system)
              true
              (count "fault.drops" + count "fault.dups" + count "fault.retransmits"
               > 0))
        (Experiments.run_cells (cells_of ~scale:Experiments.Tiny machine)))
    Experiments.families

let test_figure2_pipeline_tiny () =
  (* the experiments sweep at tiny scale: rows complete, systems agree,
     the summary CSV renders *)
  let machine = { Config.default_machine with Config.nnodes = 8 } in
  let results =
    Lcm_fleet.Fleet.Pool.run
      (Array.of_list (Experiments.figure2_cells ~scale:Experiments.Tiny machine))
  in
  let rows = Sweep.rows results in
  Alcotest.(check int) "6 rows" 6 (List.length rows);
  Alcotest.(check bool) "systems agree" true
    (List.for_all snd (Experiments.verify_agreement rows));
  let csv = Sweep.summary_csv results in
  Alcotest.(check int) "csv lines" 7
    (List.length (String.split_on_char '\n' (String.trim csv)))

let test_figure3_pipeline_tiny () =
  let machine = { Config.default_machine with Config.nnodes = 8 } in
  let tiny cells_of =
    Experiments.run_cells (cells_of ~scale:Experiments.Tiny machine)
  in
  let rows = tiny Experiments.figure3_cells in
  Alcotest.(check int) "12 rows" 12 (List.length rows);
  Alcotest.(check bool) "systems agree" true
    (List.for_all snd (Experiments.verify_agreement rows));
  (* every claim is computable over figure2+figure3 rows *)
  let all = tiny Experiments.figure2_cells @ rows in
  List.iter
    (fun (c : Experiments.claim) ->
      Alcotest.(check bool) (c.Experiments.id ^ " finite") true
        (Float.is_finite c.Experiments.measured))
    (Experiments.claims all)

let test_runs_are_bit_deterministic () =
  (* identical config => identical simulated time, identical counters *)
  let run () =
    let m = { Config.default_machine with Config.nnodes = 8 } in
    let rt =
      Config.make_runtime m Config.lcm_mcc
        ~schedule:(Lcm_cstar.Schedule.Dynamic_random 9)
    in
    Lcm_apps.Stencil.run rt { Lcm_apps.Stencil.n = 32; iters = 3; work_per_cell = 4 }
  in
  let a = run () and b = run () in
  Alcotest.(check int) "cycles identical" a.Bench_result.cycles b.Bench_result.cycles;
  Alcotest.(check (float 0.0)) "checksums identical" a.Bench_result.checksum
    b.Bench_result.checksum;
  List.iter2
    (fun (ka, va) (kb, vb) ->
      Alcotest.(check string) "counter name" ka kb;
      Alcotest.(check int) ("counter " ^ ka) va vb)
    a.Bench_result.counters b.Bench_result.counters

let test_ablation_barrier_shapes () =
  (* flat must cost at least as much as tree at the larger machine *)
  let rows =
    Experiments.run_cells
      (Experiments.ablation_barrier_cells ~scale:Experiments.Quick
         Config.default_machine)
  in
  let find exp sys =
    (List.find
       (fun (r : Experiments.row) -> r.experiment = exp && r.system = sys)
       rows)
      .result
      .Bench_result.cycles
  in
  Alcotest.(check bool) "tree <= flat at P=128" true
    (find "stencil P=128" "barrier tree:4" <= find "stencil P=128" "barrier flat")

(* ------------------------------------------------------------------ *)
(* Traceview: Chrome trace export and the mini JSON reader             *)
(* ------------------------------------------------------------------ *)

module Trace = Lcm_sim.Trace

let traced_stencil_events () =
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 4 }
      Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
  in
  Lcm_tempest.Machine.enable_trace ~capacity:65536
    (Lcm_cstar.Runtime.machine rt);
  ignore
    (Lcm_apps.Stencil.run rt { Lcm_apps.Stencil.n = 12; iters = 2; work_per_cell = 2 });
  Lcm_tempest.Machine.trace_events (Lcm_cstar.Runtime.machine rt)

let test_trace_export_valid () =
  let events = traced_stencil_events () in
  Alcotest.(check bool) "events captured" true (events <> []);
  let json = Traceview.to_chrome_json events in
  match Traceview.validate_chrome json with
  | Ok n -> Alcotest.(check int) "all events exported" (List.length events) n
  | Error e -> Alcotest.fail ("export did not validate: " ^ e)

let test_trace_export_contents () =
  let json = Traceview.to_chrome_json (traced_stencil_events ()) in
  let has sub =
    let nl = String.length sub and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "message events" true (has "\"name\":\"send ");
  Alcotest.(check bool) "fault events" true (has "\"name\":\"read fault\"");
  Alcotest.(check bool) "barrier events" true (has "\"name\":\"barrier release\"");
  Alcotest.(check bool) "handler slices" true (has "\"ph\":\"X\"");
  Alcotest.(check bool) "epoch counter" true (has "\"ph\":\"C\"")

let test_trace_export_sorted_and_escaped () =
  (* Emission order is not time order; strings need escaping. *)
  let events =
    [
      (20, Trace.Barrier_release { nnodes = 2 });
      (5, Trace.Note "quote \" and backslash \\ and\nnewline");
      (20, Trace.Epoch_advance { epoch = 1 });
    ]
  in
  let json = Traceview.to_chrome_json events in
  match Traceview.validate_chrome json with
  | Ok n -> Alcotest.(check int) "3 events, monotone after sort" 3 n
  | Error e -> Alcotest.fail e

let test_json_parser () =
  (match Traceview.parse "{\"a\": [1, 2.5, \"x\\n\"], \"b\": {\"c\": true, \"d\": null}}" with
  | Ok doc -> (
    match Traceview.member "a" doc with
    | Some (Traceview.Arr [ Traceview.Num 1.0; Traceview.Num 2.5; Traceview.Str "x\n" ]) -> ()
    | _ -> Alcotest.fail "array member mis-parsed")
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Traceview.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" bad))
    [ ""; "{"; "{\"a\":}"; "[1, ]"; "tru"; "{\"a\":1} garbage"; "\"unterminated" ]

let test_validate_rejects_non_traces () =
  List.iter
    (fun (text, why) ->
      match Traceview.validate_chrome text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted " ^ why))
    [
      ("not json", "garbage");
      ("{}", "missing traceEvents");
      ("{\"traceEvents\":[]}", "empty traceEvents");
      ("{\"traceEvents\":[{\"name\":\"a\"}]}", "event without ph/ts");
      ( "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"ts\":5},{\"name\":\"b\",\"ph\":\"i\",\"ts\":1}]}",
        "non-monotone timestamps" );
    ]

(* The audit single-benchmark commands and experiment cells share: clean
   on a finished run, and on a hand-corrupted one an error naming the run
   and the violation. *)
let test_audit_reports_corrupted_run () =
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 4 }
      Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
  in
  ignore
    (Lcm_apps.Stencil.run rt { Lcm_apps.Stencil.n = 12; iters = 2; work_per_cell = 2 });
  let audit () = Experiments.audit ~experiment:"stencil" ~system:"LCM-mcc" rt in
  Alcotest.(check bool) "finished run audits clean" true (audit () = Ok ());
  (* a remote reader gives block 0 a directory entry, then gains a
     Writable line behind the protocol's back *)
  let m = Lcm_cstar.Runtime.machine rt in
  let home = Lcm_mem.Gmem.home_of_addr (Lcm_tempest.Machine.gmem m) 0 in
  let reader = (home + 1) mod 4 in
  Lcm_cstar.Runtime.sequential rt ~node:reader (fun () ->
      ignore (Lcm_tempest.Memeff.load 0));
  ignore
    (Lcm_tempest.Machine.install_line (Lcm_tempest.Machine.node m reader) 0
       ~data:(Lcm_mem.Block.make ~words:8) ~tag:Lcm_tempest.Tag.Writable);
  match audit () with
  | Ok () -> Alcotest.fail "audit missed a forged Writable line"
  | Error msg ->
    Alcotest.(check bool) ("names the run: " ^ msg) true
      (contains msg "stencil/LCM-mcc: protocol invariants violated");
    Alcotest.(check bool) ("names the violation: " ^ msg) true
      (contains msg
         (Printf.sprintf "block 0: node %d holds Writable without ownership"
            reader))

let test_phase_log_deltas () =
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 4 }
      Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
  in
  Lcm_cstar.Runtime.enable_phase_log rt;
  ignore
    (Lcm_apps.Stencil.run rt { Lcm_apps.Stencil.n = 12; iters = 3; work_per_cell = 2 });
  let rows = Lcm_cstar.Runtime.phase_log rt in
  Alcotest.(check bool) "one row per parallel call" true (List.length rows >= 3);
  List.iter
    (fun (r : Lcm_cstar.Runtime.phase) ->
      Alcotest.(check bool) "positive phase duration" true (r.cycles > 0);
      Alcotest.(check bool) "non-negative deltas" true
        (List.for_all (fun (_, d) -> d >= 0) r.deltas))
    rows;
  let labels = List.map (fun (r : Lcm_cstar.Runtime.phase) -> r.label) rows in
  Alcotest.(check bool) "labels numbered from 1" true
    (List.mem "parallel#1" labels);
  let table = Report.phases rows in
  Alcotest.(check bool) "render has header" true
    (String.length table > 0
    && List.exists
         (fun l ->
           String.length l > 0 && String.sub l 0 1 = "|"
           &&
           let has sub =
             let nl = String.length sub and hl = String.length l in
             let rec go i = i + nl <= hl && (String.sub l i nl = sub || go (i + 1)) in
             go 0
           in
           has "phase" && has "barrier wait")
         (String.split_on_char '\n' table))

let () =
  Alcotest.run "lcm_harness"
    [
      ( "config",
        [
          ("system parse", `Quick, test_system_parse);
          ("all systems follow registry", `Quick, test_all_systems_follow_registry);
          ("systems order", `Quick, test_systems_order);
          ("default machine", `Quick, test_default_machine_is_cm5_shaped);
          ("runtime wiring", `Quick, test_make_runtime_wires_strategy);
        ] );
      ( "experiments",
        [
          ("group_by order", `Quick, test_group_by_preserves_order);
          ("agreement mismatch", `Quick, test_agreement_detects_mismatch);
          ("claims hold on paper numbers", `Quick, test_claims_all_hold_on_paper_numbers);
          ("claims detect inversion", `Quick, test_claims_detect_inversion);
          ("audit reports a corrupted run", `Quick, test_audit_reports_corrupted_run);
        ] );
      ( "report",
        [
          ("execution times", `Quick, test_execution_times_render);
          ("table1", `Quick, test_table1_render);
          ("claims", `Quick, test_claims_render);
          ("csv", `Quick, test_csv_export);
          ("bench_result close", `Quick, test_bench_result_close);
        ] );
      ( "traceview",
        [
          ("export validates", `Quick, test_trace_export_valid);
          ("export contents", `Quick, test_trace_export_contents);
          ("sorting and escaping", `Quick, test_trace_export_sorted_and_escaped);
          ("json parser", `Quick, test_json_parser);
          ("validator rejects", `Quick, test_validate_rejects_non_traces);
        ] );
      ( "phases",
        [ ("phase log deltas", `Quick, test_phase_log_deltas) ] );
      ( "end-to-end",
        [
          ("barrier ablation shape", `Slow, test_ablation_barrier_shapes);
          ("bit determinism", `Quick, test_runs_are_bit_deterministic);
          ("figure 2 pipeline (tiny)", `Slow, test_figure2_pipeline_tiny);
          ("figure 3 pipeline (tiny)", `Slow, test_figure3_pipeline_tiny);
          ("families honour the fault plan", `Slow, test_families_honour_fault_plan);
        ] );
    ]
