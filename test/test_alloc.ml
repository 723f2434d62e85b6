(* Host allocation fence: minor-heap words allocated per simulated event on
   two pinned workloads must stay under fixed ceilings.  A change that
   re-introduces per-event closure or record churn fails here long before
   it costs wall-clock (DESIGN.md §9).  A third row fences the machines
   stress builds, one per case: a case must allocate nothing straight
   into the major heap, and its machine must die young.

   It is its own executable, so no other test's allocation is charged to
   it.  lcmbench's gc.* metrics report the same quantities for the
   benchmark workloads. *)

open Lcm_harness

(* Sizes are pinned because words/event is amortized over fixed startup
   allocation: changing a workload silently moves its number.  Both run
   under LCM-mcc with the static schedule, machine build included. *)
let runtime nnodes =
  Config.make_runtime
    { Config.default_machine with Config.nnodes }
    Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static

let stencil ~nnodes ~n ~iters () =
  ignore
    (Lcm_apps.Stencil.run (runtime nnodes)
       { Lcm_apps.Stencil.n; iters; work_per_cell = 4 })

let synthetic () =
  ignore (Lcm_apps.Synthetic.run (runtime 16) Lcm_apps.Synthetic.default)

(* workload, run, minor-words-per-event ceiling *)
let fenced =
  [
    ("stencil-64x64-i10-p32", stencil ~nnodes:32 ~n:64 ~iters:10, 87.5);
    ("synthetic-p16", synthetic, 41.5);
  ]

(* Cases like those stress and the schedule checker run, one machine per
   case or schedule: 2-6 nodes, every policy, under the 5% chaos fault
   plan.  An array above the minor heap's size limit goes straight to the
   major heap, so a table or event queue sized for a 32-node paper run
   costs a major-heap allocation per case; the ceiling is 0 words.  A
   minor collection while a case's machine is live promotes the machine,
   so promoted words per case are capped too: a case promotes about 260
   words when the collection runs before its machine is built, and about
   2,900 when it runs after (DESIGN.md §9 "Machine construction"). *)
let stress_progs = List.init 200 (fun case -> Stress.gen ~seed:1 ~case ())

let chaos =
  match Lcm_net.Faults.of_profile "chaos" ~rate:0.05 ~seed:1 with
  | Ok plan -> plan
  | Error e -> failwith e

let run_stress_cases () =
  List.iter
    (fun prog ->
      match Stress.run_case ~faults:chaos prog with
      | Ok () -> ()
      | Error e -> failwith e)
    stress_progs

let promoted_per_case_ceiling = 1000.

let () =
  (* The first simulation in a process pays one-time lazy initialization
     (registries, hashtable growth, domain-local state) that must not be
     charged to either pinned workload: burn it on a throwaway run. *)
  stencil ~nnodes:4 ~n:8 ~iters:1 ();
  Printf.printf "%-24s %9s %13s %10s %7s %8s %8s\n" "workload" "events"
    "minor-words" "promoted" "majors" "w/ev" "ceiling";
  (* Events come from the calling domain's tally, so the count covers
     every engine the workload builds. *)
  let over =
    List.fold_left
      (fun over (workload, run, ceiling) ->
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let ev0 = Lcm_sim.Engine.domain_events () in
        run ();
        let g1 = Gc.quick_stat () in
        let events = Lcm_sim.Engine.domain_events () - ev0 in
        let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
        let per_event = minor /. float_of_int (max events 1) in
        Printf.printf "%-24s %9d %13.0f %10.0f %7d %8.1f %8.1f\n" workload
          events minor
          (g1.Gc.promoted_words -. g0.Gc.promoted_words)
          (g1.Gc.major_collections - g0.Gc.major_collections)
          per_event ceiling;
        if per_event > ceiling then workload :: over else over)
      [] fenced
  in
  (* Words allocated directly in the major heap: major words that no minor
     collection promoted. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  run_stress_cases ();
  let g1 = Gc.quick_stat () in
  let cases = List.length stress_progs in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  let direct = g1.Gc.major_words -. g0.Gc.major_words -. promoted in
  let promoted_per_case = promoted /. float_of_int cases in
  Printf.printf "%-24s %9s %13s %10s %13s %10s\n" "workload" "cases"
    "direct-major" "ceiling" "promoted/case" "ceiling";
  Printf.printf "%-24s %9d %13.0f %10d %13.0f %10.0f\n" "stress-chaos-seed1"
    cases direct 0 promoted_per_case promoted_per_case_ceiling;
  if over <> [] then
    Printf.eprintf
      "test_alloc: minor words per event over the ceiling on %s: a change \
       re-introduced per-event allocation churn (DESIGN.md §9)\n"
      (String.concat ", " (List.rev over));
  if direct > 0. then
    Printf.eprintf
      "test_alloc: %d stress cases allocated %.0f words straight into the \
       major heap: a table or array built at a size no small machine needs \
       (DESIGN.md §9)\n"
      cases direct;
  let promotes = promoted_per_case > promoted_per_case_ceiling in
  if promotes then
    Printf.eprintf
      "test_alloc: %d stress cases promoted %.0f words each, over %.0f: a \
       minor collection ran while a case's machine was live (DESIGN.md §9 \
       \"Machine construction\")\n"
      cases promoted_per_case promoted_per_case_ceiling;
  if over <> [] || direct > 0. || promotes then exit 1
