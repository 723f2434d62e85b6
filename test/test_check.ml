(* Tests for the small-scope model checker (Lcm_check): the engine's
   choice-point hook, bounded exhaustive exploration of the fixed
   scenario suite under every policy (with a fleet wall-clock budget),
   partial-order-reduction soundness cross-checks, and the
   violation -> shrink -> replay pipeline.  The spec every schedule is
   checked against, Stress.spec, is pinned by test_stress. *)

module Check = Lcm_check.Check
module Stress = Lcm_harness.Stress
module Traceview = Lcm_harness.Traceview
module Policy = Lcm_core.Policy
module Engine = Lcm_sim.Engine
module Fleet = Lcm_fleet.Fleet

(* ------------------------------------------------------------------ *)
(* Engine choice-point hook                                            *)
(* ------------------------------------------------------------------ *)

(* Three thunks tied at t=10: the hook owns the commit order. *)
let test_hook_default_is_fifo () =
  let run hook =
    let order = ref [] in
    let e = Engine.create () in
    List.iter
      (fun (at, id) -> Engine.schedule e ~at (fun () -> order := id :: !order))
      [ (10, 'a'); (10, 'b'); (10, 'c'); (20, 'd') ];
    Engine.set_choice_hook e hook;
    Engine.run e;
    List.rev !order
  in
  let fifo = run None in
  let zeros = run (Some (fun _ -> 0)) in
  Alcotest.(check (list char)) "FIFO order" [ 'a'; 'b'; 'c'; 'd' ] fifo;
  Alcotest.(check (list char)) "index 0 everywhere = FIFO" fifo zeros

let test_hook_reorders_ties () =
  let order = ref [] in
  let e = Engine.create () in
  List.iter
    (fun (at, id) -> Engine.schedule e ~at (fun () -> order := id :: !order))
    [ (10, 'a'); (10, 'b'); (10, 'c'); (20, 'd') ];
  (* always pick the last candidate: ties commit in reverse FIFO order *)
  Engine.set_choice_hook e (Some (fun cands -> Array.length cands - 1));
  Engine.run e;
  Alcotest.(check (list char))
    "last-candidate hook reverses the tie" [ 'c'; 'b'; 'a'; 'd' ]
    (List.rev !order)

let test_hook_sees_all_candidates () =
  let sizes = ref [] in
  let e = Engine.create () in
  List.iter
    (fun at -> Engine.schedule e ~at (fun () -> ()))
    [ 10; 10; 10; 20 ];
  Engine.set_choice_hook e
    (Some
       (fun cands ->
         sizes := Array.length cands :: !sizes;
         0));
  Engine.run e;
  (* 3-way tie, then the two re-queued; sole events commit unasked *)
  Alcotest.(check (list int)) "candidate counts" [ 3; 2 ] (List.rev !sizes)

let test_hook_bad_index_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5 (fun () -> ());
  Engine.schedule e ~at:5 (fun () -> ());
  Engine.set_choice_hook e (Some (fun _ -> 7));
  Alcotest.check_raises "out-of-range choice"
    (Invalid_argument "Engine: choice hook returned 7 with 2 candidates")
    (fun () -> Engine.run e)

(* The losers of a tie keep their FIFO order and commit before anything
   the winner schedules at the same time: three thunks tied at t=10, the
   hook picks b first and index 0 after, and b schedules one more at
   t=10. *)
let test_hook_losers_before_winner_events () =
  let order = ref [] in
  let e = Engine.create () in
  let log id () = order := id :: !order in
  Engine.schedule e ~at:10 (log "a");
  Engine.schedule e ~at:10 (fun () ->
      log "b" ();
      Engine.schedule e ~at:10 (log "new"));
  Engine.schedule e ~at:10 (log "c");
  let calls = ref 0 in
  Engine.set_choice_hook e
    (Some
       (fun _ ->
         incr calls;
         if !calls = 1 then 1 else 0));
  Engine.run e;
  Alcotest.(check (list string)) "commit order" [ "b"; "a"; "c"; "new" ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Bounded exhaustive exploration                                      *)
(* ------------------------------------------------------------------ *)

(* The full fixed-scenario suite for every registered policy, each
   policy one fleet cell under a wall-clock budget.  Every configuration
   must be exhausted (not capped) with no violation. *)
let test_scenarios_exhaust_all_policies () =
  let budget = Fleet.Budget.make ~wall_s:120.0 () in
  let cells =
    Array.of_list
      (List.map
         (fun (p : Policy.t) ->
           ( p.Policy.name,
             fun () ->
               List.map
                 (fun (label, prog) ->
                   ( label,
                     fst (Check.explore ~label ~max_schedules:2_000 prog) ))
                 (Result.get_ok (Check.configs ~policy:p ())) ))
         Policy.policies)
  in
  let results = Fleet.Pool.run ~jobs:2 ~budget cells in
  Array.iter
    (fun (r : _ Fleet.cell_result) ->
      match r.Fleet.outcome with
      | Fleet.Done outcomes ->
        List.iter
          (fun (label, outcome) ->
            match outcome with
            | Check.Exhausted -> ()
            | Check.Capped ->
              Alcotest.failf "%s %s: capped, expected exhausted" r.Fleet.label
                label
            | Check.Found v ->
              Alcotest.failf "%s %s: violation:\n%s" r.Fleet.label label
                v.Check.v_report)
          outcomes
      | Fleet.Failed { exn; _ } ->
        Alcotest.failf "%s: raised %s" r.Fleet.label exn
      | Fleet.Timed_out _ ->
        Alcotest.failf "%s: blew the wall-clock budget" r.Fleet.label)
    results

(* Fault choices composed in: one droppable copy, retransmission must
   recover every drop on a scenario with real cross-node traffic. *)
let test_fault_choices_recovered () =
  let prog = List.assoc "two-writers" (Check.scenarios ~policy:Policy.lcm_mcc) in
  match Check.explore ~max_schedules:2_000 ~fault_budget:1 prog with
  | Check.Exhausted, st ->
    Alcotest.(check bool) "fault points explored" true (st.Check.fault_points > 0);
    Alcotest.(check bool) "more than one schedule" true (st.Check.schedules > 1)
  | Check.Capped, _ -> Alcotest.fail "capped"
  | Check.Found v, _ -> Alcotest.failf "violation:\n%s" v.Check.v_report

(* ------------------------------------------------------------------ *)
(* Partial-order reduction soundness                                   *)
(* ------------------------------------------------------------------ *)

(* Reduction prunes branching but must reach the same verdict; on a tiny
   configuration, cross-check against full enumeration. *)
let test_por_agrees_with_full_enumeration () =
  List.iter
    (fun name ->
      let prog = List.assoc name (Check.scenarios ~policy:Policy.lcm_mcc) in
      let reduced, rst = Check.explore ~max_schedules:5_000 ~reduce:true prog in
      let full, fst_ = Check.explore ~max_schedules:5_000 ~reduce:false prog in
      (match (reduced, full) with
      | Check.Exhausted, Check.Exhausted -> ()
      | _ -> Alcotest.failf "%s: verdicts differ or capped" name);
      Alcotest.(check bool)
        (name ^ ": reduction explores no more schedules")
        true
        (rst.Check.schedules <= fst_.Check.schedules))
    [ "two-writers"; "three-nodes" ]

let test_exploration_deterministic () =
  let prog = List.assoc "three-nodes" (Check.scenarios ~policy:Policy.lcm_mcc) in
  let _, a = Check.explore ~max_schedules:5_000 prog in
  let _, b = Check.explore ~max_schedules:5_000 prog in
  Alcotest.(check (list int))
    "identical exploration counters"
    [ a.Check.schedules; a.Check.transitions; a.Check.choice_points;
      a.Check.branches; a.Check.sleep_prunes; a.Check.pset_prunes ]
    [ b.Check.schedules; b.Check.transitions; b.Check.choice_points;
      b.Check.branches; b.Check.sleep_prunes; b.Check.pset_prunes ]

(* What gets explored, pinned: every counter of two configurations with
   one drop or duplicate per run, so a change to the reduction, the
   branching or the fault chooser shows here even when the verdicts
   stay the same. *)
let test_exploration_pinned () =
  List.iter
    (fun (name, want) ->
      let prog = List.assoc name (Check.scenarios ~policy:Policy.lcm_mcc) in
      match Check.explore ~fault_budget:1 ~dup:true prog with
      | Check.Exhausted, st ->
        Alcotest.(check (list int))
          (name ^ ": schedules, transitions, choice points, branches, \
                   pset prunes, fault points, max depth")
          want
          [ st.Check.schedules; st.Check.transitions; st.Check.choice_points;
            st.Check.branches; st.Check.pset_prunes; st.Check.fault_points;
            st.Check.max_depth ]
      | _ -> Alcotest.failf "%s: not exhausted" name)
    [
      ("two-writers", [ 33; 840; 360; 32; 360; 288; 28 ]);
      ("three-nodes", [ 956; 41_572; 8_440; 955; 8_896; 13_748; 37 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Violation -> shrink -> replay pipeline                              *)
(* ------------------------------------------------------------------ *)

(* A program that violates the paper's compiler contract — an unmarked
   parallel store by the block's home node.  The home holds a writable
   backing line, so the unmarked store writes through to the master
   mid-phase and a remote reader observes a value the per-epoch spec
   says is unobservable.  Deterministic under the default schedule,
   which exercises the whole violation -> shrink -> replay pipeline
   without needing a live protocol bug. *)
let bad_prog () : Stress.prog =
  {
    seed = 0;
    case = 0;
    policy = Policy.lcm_mcc;
    nnodes = 2;
    words_per_block = 2;
    nblocks = 1;
    dist = Lcm_mem.Gmem.Chunked;
    topology = Lcm_net.Topology.Crossbar;
    barrier = Lcm_core.Barrier.Constant;
    capacity_blocks = None;
    hw_cache_blocks = None;
    reductions = [];
    init = [ (0, 1) ];
    segments =
      [
        Stress.Parallel
          [|
            [ Stress.Store (0, 5) ] (* unmarked: contract violation *);
            [ Stress.Work 200; Stress.Load 0 ];
          |];
      ];
  }

let test_violation_shrinks_and_replays () =
  match Check.explore ~max_schedules:100 ~label:"bad-prog" (bad_prog ()) with
  | Check.Exhausted, _ | (Check.Capped, _) ->
    Alcotest.fail "ill-formed program not flagged"
  | Check.Found v, _ ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "report is a spec divergence" true
      (contains v.Check.v_report "spec expects");
    let v = Check.shrink_violation v in
    (* the shrunk program still contains the offending accum and nothing
       about it is schedule-dependent, so the schedule minimizes away *)
    Alcotest.(check (list int)) "schedule minimized" [] v.Check.v_schedule;
    let verdict, _ =
      Check.replay ~schedule:v.Check.v_schedule v.Check.v_prog
    in
    (match verdict with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "shrunk counterexample no longer replays");
    (* counterexample artifacts: a traced replay renders through Traceview *)
    let _, events = Check.replay ~schedule:[] v.Check.v_prog in
    if events <> [] then begin
      if not (Sys.file_exists "out") then Sys.mkdir "out" 0o755;
      let path = "out/test-check-counterexample.trace.json" in
      Traceview.export_file ~path events;
      match Traceview.validate_file path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "exported trace invalid: %s" e
    end

let test_schedule_strings_roundtrip () =
  List.iter
    (fun sched ->
      match Check.schedule_of_string (Check.schedule_to_string sched) with
      | Ok s -> Alcotest.(check (list int)) "roundtrip" sched s
      | Error e -> Alcotest.fail e)
    [ []; [ 0 ]; [ 0; 2; 1 ]; [ 3; 0; 0; 5 ] ];
  Alcotest.(check bool) "dash parses as empty" true
    (Check.schedule_of_string "-" = Ok []);
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Check.schedule_of_string "0.x.1"))

(* A replay must use every entry of its schedule.  One that asks a
   choice point for more candidates than it offers proves nothing, and
   so does one whose entries outlast the run's choice points: both are
   reported, not believed. *)
let test_stale_schedule_diverges () =
  let diverges what policy scenario schedule =
    let prog = List.assoc scenario (Check.scenarios ~policy) in
    match Check.replay ~schedule prog with
    | Error r, _ ->
      Alcotest.(check string) what "replay diverged: stale schedule" r
    | Ok (), _ -> Alcotest.failf "%s: replay passed" what
  in
  diverges "out-of-range entries" Policy.lcm_mcc "reader-writer" [ 9; 9; 9 ];
  (* two-writers under MSI has no choice point at all *)
  diverges "an entry no choice point reads" Policy.msi "two-writers" [ 99 ]

(* Every label a check run reports names the configuration it explored,
   so a reproduce line's --scenario rebuilds exactly that program; a
   fixed scenario's bare name resolves to the same label. *)
let test_labels_resolve () =
  let render (p : Stress.prog) =
    Format.asprintf "seed=%d case=%d %a" p.Stress.seed p.Stress.case
      Stress.pp_prog p
  in
  let resolve ~policy label =
    match Check.configs ~scenario:label ~policy () with
    | Ok [ config ] -> Some config
    | Ok _ | Error _ -> None
  in
  List.iter
    (fun (policy : Policy.t) ->
      let fixed = Check.scenarios ~policy in
      let configs = Result.get_ok (Check.configs ~random:2 ~policy ()) in
      Alcotest.(check (list string))
        (policy.Policy.name ^ ": labels, in order")
        (List.map (fun (name, _) -> "scenario:" ^ name) fixed
        @ [ "micro:seed=0:case=0"; "micro:seed=0:case=1" ])
        (List.map fst configs);
      List.iteri
        (fun i (label, prog) ->
          let what = policy.Policy.name ^ " " ^ label in
          (match resolve ~policy label with
          | Some (label', resolved) ->
            Alcotest.(check string) (what ^ ": label") label label';
            Alcotest.(check string) (what ^ ": program") (render prog)
              (render resolved)
          | None -> Alcotest.failf "%s: does not resolve" what);
          Option.iter
            (fun (name, fixed_prog) ->
              Alcotest.(check string) (what ^ ": fixed program")
                (render fixed_prog) (render prog);
              Alcotest.(check (option string)) (what ^ ": bare name")
                (Some label)
                (Option.map fst (resolve ~policy name)))
            (List.nth_opt fixed i))
        configs)
    Policy.policies;
  Alcotest.(check bool) "unknown label" true
    (Result.is_error
       (Check.configs ~scenario:"micro:seed=0" ~policy:Policy.stache ()))

(* A bus grant is the one event with no owner ([Bus.transact] passes no
   [~owner]): its footprint is every cache.  Here node 1's yield resume
   ties node 0's bus grant at cycle 167 (50 trap + 1 op + 116 bus
   occupancy), so the reduction must treat the unknown owner as a
   conflict and explore the second order too. *)
let test_ownerless_tie_branches () =
  List.iter
    (fun (policy : Policy.t) ->
      let prog =
        {
          (bad_prog ()) with
          policy;
          nblocks = 2;
          init = [];
          segments =
            [
              Stress.Parallel
                [|
                  [ Stress.Load 2 ];
                  [ Stress.Work 167; Stress.Yield; Stress.Load 0 ];
                |];
            ];
        }
      in
      match Check.explore prog with
      | Check.Exhausted, st ->
        Alcotest.(check int) (policy.Policy.name ^ ": schedules") 2
          st.Check.schedules
      | _ -> Alcotest.failf "%s: not exhausted" policy.Policy.name)
    [ Policy.msi; Policy.mesi; Policy.moesi ]

let () =
  Alcotest.run "lcm_check"
    [
      ( "choice-hook",
        [
          ("default is FIFO", `Quick, test_hook_default_is_fifo);
          ("hook reorders ties", `Quick, test_hook_reorders_ties);
          ("hook sees every candidate", `Quick, test_hook_sees_all_candidates);
          ("bad index rejected", `Quick, test_hook_bad_index_rejected);
          ("losers precede the winner's events", `Quick,
           test_hook_losers_before_winner_events);
        ] );
      ( "explore",
        [
          ("scenario suite exhausts, all policies", `Slow,
           test_scenarios_exhaust_all_policies);
          ("fault choices recovered", `Quick, test_fault_choices_recovered);
          ("POR agrees with full enumeration", `Quick,
           test_por_agrees_with_full_enumeration);
          ("exploration deterministic", `Quick, test_exploration_deterministic);
          ("exploration pinned", `Quick, test_exploration_pinned);
          ("owner-less tie branches", `Quick, test_ownerless_tie_branches);
        ] );
      ( "counterexample",
        [
          ("violation shrinks and replays", `Quick,
           test_violation_shrinks_and_replays);
          ("schedule strings roundtrip", `Quick, test_schedule_strings_roundtrip);
          ("stale schedule diverges", `Quick, test_stale_schedule_diverges);
          ("labels resolve to their programs", `Quick, test_labels_resolve);
        ] );
    ]
