(* Tests for the Section-7 extension demos: reductions, false sharing,
   stale data. *)

open Lcm_apps
open Lcm_cstar
module Policy = Lcm_core.Policy
module Machine = Lcm_tempest.Machine

let mk ?(nnodes = 8) policy =
  let m =
    Machine.create ~nnodes ~words_per_block:8
      ~topology:(Lcm_net.Topology.Fat_tree { arity = 4 })
      ()
  in
  let p = Lcm_core.Proto.install ~policy m in
  Runtime.create p ~schedule:Schedule.Static

let reduce_params = { Reduce_demo.n = 512; per_add_work = 2 }

let run_reduce variant =
  let rt =
    match variant with
    | `Rsm_reconcile -> mk Policy.lcm_mcc
    | `Manual_partials | `Serialized -> mk Policy.stache
  in
  Reduce_demo.run rt variant reduce_params

let test_reduce_all_variants_agree () =
  let expected = float_of_int (Reduce_demo.expected_sum reduce_params) in
  List.iter
    (fun v ->
      let r = run_reduce v in
      Alcotest.(check (float 0.0))
        (Reduce_demo.variant_name v)
        expected r.Bench_result.checksum)
    [ `Rsm_reconcile; `Manual_partials; `Serialized ]

let test_reduce_serialized_slowest () =
  let rsm = run_reduce `Rsm_reconcile
  and manual = run_reduce `Manual_partials
  and serialized = run_reduce `Serialized in
  Alcotest.(check bool)
    (Printf.sprintf "serialized %d slowest (rsm %d, manual %d)"
       serialized.Bench_result.cycles rsm.Bench_result.cycles
       manual.Bench_result.cycles)
    true
    (serialized.Bench_result.cycles > rsm.Bench_result.cycles
    && serialized.Bench_result.cycles > manual.Bench_result.cycles)

let test_reduce_rsm_competitive_with_manual () =
  (* RSM reductions should be in the same league as hand-coded partials
     (the paper argues they can even be cheaper). *)
  let rsm = run_reduce `Rsm_reconcile and manual = run_reduce `Manual_partials in
  Alcotest.(check bool)
    (Printf.sprintf "rsm %d within 4x of manual %d" rsm.Bench_result.cycles
       manual.Bench_result.cycles)
    true
    (rsm.Bench_result.cycles < 4 * manual.Bench_result.cycles)

let fs_params = { False_sharing.blocks = 16; rounds = 10 }

let test_false_sharing_results_agree () =
  let stache = False_sharing.run (mk Policy.stache) fs_params in
  let mcc = False_sharing.run (mk Policy.lcm_mcc) fs_params in
  Alcotest.(check (float 0.0)) "same data" stache.Bench_result.checksum
    mcc.Bench_result.checksum

let test_false_sharing_lcm_faster () =
  let stache = False_sharing.run (mk Policy.stache) fs_params in
  let mcc = False_sharing.run (mk Policy.lcm_mcc) fs_params in
  Alcotest.(check bool)
    (Printf.sprintf "lcm %d < stache %d" mcc.Bench_result.cycles
       stache.Bench_result.cycles)
    true
    (mcc.Bench_result.cycles < stache.Bench_result.cycles)

let nbody_params = { Nbody_stale.bodies = 128; iters = 8; work_per_body = 2 }

let test_nbody_stale_saves_fetches () =
  let fresh = Nbody_stale.run (mk Policy.lcm_mcc) `Fresh nbody_params in
  let stale =
    Nbody_stale.run (mk Policy.lcm_mcc) (`Stale 4) nbody_params
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer remote fetches (%d < %d)" stale.Bench_result.remote_fetches
       fresh.Bench_result.remote_fetches)
    true
    (stale.Bench_result.remote_fetches < fresh.Bench_result.remote_fetches);
  Alcotest.(check bool)
    (Printf.sprintf "faster (%d < %d)" stale.Bench_result.cycles
       fresh.Bench_result.cycles)
    true
    (stale.Bench_result.cycles < fresh.Bench_result.cycles)

let test_nbody_stale_bounded_drift () =
  let fresh = Nbody_stale.run (mk Policy.lcm_mcc) `Fresh nbody_params in
  let stale =
    Nbody_stale.run (mk Policy.lcm_mcc) (`Stale 2) nbody_params
  in
  (* staleness changes values, but the relaxation still converges to the
     same neighbourhood: drift stays small relative to the magnitude *)
  let drift = abs_float (fresh.Bench_result.checksum -. stale.Bench_result.checksum) in
  let scale = max 1.0 (abs_float fresh.Bench_result.checksum) in
  Alcotest.(check bool)
    (Printf.sprintf "drift %.3f bounded" (drift /. scale))
    true
    (drift /. scale < 0.5)

let test_nbody_never_refresh () =
  (* refresh interval beyond the horizon: remote bodies fetched once *)
  let stale =
    Nbody_stale.run (mk Policy.lcm_mcc) (`Stale 1000) nbody_params
  in
  let sometimes =
    Nbody_stale.run (mk Policy.lcm_mcc) (`Stale 2) nbody_params
  in
  Alcotest.(check bool)
    (Printf.sprintf "never-refresh fetches least (%d <= %d)"
       stale.Bench_result.remote_fetches sometimes.Bench_result.remote_fetches)
    true
    (stale.Bench_result.remote_fetches <= sometimes.Bench_result.remote_fetches)

let test_reduce_agrees_under_dynamic_schedule () =
  let expected = float_of_int (Reduce_demo.expected_sum reduce_params) in
  let run variant =
    let policy =
      match variant with
      | `Rsm_reconcile -> Policy.lcm_mcc
      | _ -> Policy.stache
    in
    let m =
      Machine.create ~nnodes:8 ~words_per_block:8
        ~topology:(Lcm_net.Topology.Fat_tree { arity = 4 })
        ()
    in
    let p = Lcm_core.Proto.install ~policy m in
    let rt = Runtime.create p ~schedule:(Schedule.Dynamic_random 5) in
    (Reduce_demo.run rt variant reduce_params).Bench_result.checksum
  in
  List.iter
    (fun v ->
      Alcotest.(check (float 0.0)) (Reduce_demo.variant_name v) expected (run v))
    [ `Rsm_reconcile; `Manual_partials; `Serialized ]

let test_nbody_refresh_restores_freshness () =
  (* refresh every iteration == fresh semantics *)
  let fresh = Nbody_stale.run (mk Policy.lcm_mcc) `Fresh nbody_params in
  let always =
    Nbody_stale.run (mk Policy.lcm_mcc) (`Stale 1) nbody_params
  in
  Alcotest.(check (float 1e-3)) "same result" fresh.Bench_result.checksum
    always.Bench_result.checksum

let () =
  Alcotest.run "lcm_extensions"
    [
      ( "reductions",
        [
          ("variants agree", `Quick, test_reduce_all_variants_agree);
          ("serialized slowest", `Quick, test_reduce_serialized_slowest);
          ("rsm competitive", `Quick, test_reduce_rsm_competitive_with_manual);
        ] );
      ( "false sharing",
        [
          ("results agree", `Quick, test_false_sharing_results_agree);
          ("lcm faster", `Quick, test_false_sharing_lcm_faster);
        ] );
      ( "stale data",
        [
          ("saves fetches", `Quick, test_nbody_stale_saves_fetches);
          ("bounded drift", `Quick, test_nbody_stale_bounded_drift);
          ("refresh restores freshness", `Quick, test_nbody_refresh_restores_freshness);
          ("never refresh", `Quick, test_nbody_never_refresh);
        ] );
      ( "dynamic schedule",
        [ ("reduce variants agree", `Quick, test_reduce_agrees_under_dynamic_schedule) ] );
    ]
