(* The differential stress harness (Lcm_harness.Stress) and its spec.

   - stress: a bounded fixed-seed run, 30 cases per registered policy —
     the directory family and the snooping-bus family alike — plus 30
     mixed-policy cases, each checked word-for-word against Stress.spec
     and Proto.check_invariants.  Failures print a shrunk,
     seed-reproducible counterexample.
   - spec: Stress.spec on hand-built programs, against verdicts computed
     by hand from the paper's per-epoch semantics — the only tests that
     run the spec apart from the machine. *)

module Stress = Lcm_harness.Stress
module Policy = Lcm_core.Policy

let run_policy policy () =
  match Stress.run ~policy ~cases:30 ~seed:1 () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" e

let test_mixed () =
  match Stress.run ~cases:30 ~seed:2 () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" e

let test_gen_deterministic () =
  let a = Stress.gen ~seed:7 ~case:3 () in
  let b = Stress.gen ~seed:7 ~case:3 () in
  Alcotest.(check string)
    "generation is deterministic"
    (Format.asprintf "%a" Stress.pp_prog a)
    (Format.asprintf "%a" Stress.pp_prog b)

(* The shrinker isolates a chosen parallel store.  The predicate holds
   while the first parallel [Store (w, v)] of a generated multi-segment
   program survives, so a minimal program keeps one segment, one node's
   op list, and in it that store plus the marks that legalize it. *)
let first_parallel_store (prog : Stress.prog) =
  List.find_map
    (function
      | Stress.Parallel ops ->
        Array.to_list ops
        |> List.find_map
             (List.find_map (function
               | Stress.Store _ as op -> Some op
               | _ -> None))
      | Stress.Sequential _ -> None)
    prog.Stress.segments

let keeps_store store (prog : Stress.prog) =
  List.exists
    (function
      | Stress.Parallel ops -> Array.exists (List.mem store) ops
      | Stress.Sequential _ -> false)
    prog.Stress.segments

let test_shrink_isolates_a_store () =
  let shrunk = ref 0 in
  for case = 0 to 40 do
    let prog = Stress.gen ~seed:7 ~case () in
    match (prog.Stress.segments, first_parallel_store prog) with
    | _ :: _ :: _, Some store ->
      incr shrunk;
      let small = Stress.shrink_with (keeps_store store) prog in
      let label = Printf.sprintf "case %d" case in
      let lists =
        match small.Stress.segments with
        | [ Stress.Parallel ops ] -> List.filter (( <> ) []) (Array.to_list ops)
        | segs ->
          Alcotest.failf "%s: %d segments left, want one parallel segment"
            label (List.length segs)
      in
      (match lists with
      | [ opl ] ->
        if List.filter (function Stress.Mark _ -> false | _ -> true) opl
           <> [ store ]
        then
          Alcotest.failf "%s: the store is not the only non-mark op left:@.%a"
            label Stress.pp_prog small
      | _ ->
        Alcotest.failf "%s: %d non-empty node lists left, want one" label
          (List.length lists))
    | _ -> ()
  done;
  Alcotest.(check int) "multi-segment programs with a parallel store" 29 !shrunk

(* A seeded program guaranteed to carry a reduction region with live
   accums: the regression surface for the shrinker's reduction handling. *)
let seeded_reduction_prog () : Stress.prog =
  {
    seed = 11;
    case = 0;
    policy = Policy.lcm_mcc;
    nnodes = 2;
    words_per_block = 4;
    nblocks = 2;
    dist = Lcm_mem.Gmem.Chunked;
    topology = Lcm_net.Topology.Crossbar;
    barrier = Lcm_core.Barrier.Constant;
    capacity_blocks = None;
    hw_cache_blocks = None;
    reductions = [ (0, Lcm_core.Reduction.int_sum) ];
    init = [ (0, 3); (4, 8) ];
    segments =
      [
        Stress.Parallel
          [|
            [ Stress.Mark 0; Stress.Accum (0, 2); Stress.Load 4 ];
            [ Stress.Mark 0; Stress.Accum (0, 5); Stress.Mark 4;
              Stress.Store (4, 9) ];
          |];
        Stress.Parallel [| [ Stress.Mark 1; Stress.Accum (1, 7) ]; [] |];
      ];
  }

let accum_count (prog : Stress.prog) =
  List.fold_left
    (fun acc seg ->
      let ops =
        match seg with Stress.Sequential o | Stress.Parallel o -> o
      in
      Array.fold_left
        (fun acc opl ->
          acc
          + List.length
              (List.filter
                 (function Stress.Accum _ -> true | _ -> false)
                 opl))
        acc ops)
    0 prog.Stress.segments

let orphan_accums (prog : Stress.prog) =
  List.exists
    (fun seg ->
      let ops =
        match seg with Stress.Sequential o | Stress.Parallel o -> o
      in
      Array.exists
        (List.exists (function
          | Stress.Accum (w, _) ->
            not
              (List.mem_assoc
                 (w / prog.Stress.words_per_block)
                 prog.Stress.reductions)
          | _ -> false))
        ops)
    prog.Stress.segments

(* Regression: shrinking a reduction program must never evaluate a
   candidate whose accums outlived their region — the spec on
   such a candidate used to die with an anonymous option crash mid-
   shrink; now regions are dropped together with their accums and an
   orphan accum is a typed failure naming the word. *)
let test_shrink_keeps_accums_with_their_region () =
  let prog = seeded_reduction_prog () in
  (* every candidate the shrinker proposes must be well-formed: the spec
     evaluates without raising *)
  let shrunk =
    Stress.shrink_with
      (fun p ->
        ignore (Stress.spec p);
        Alcotest.(check bool) "no orphan accums in candidate" false
          (orphan_accums p);
        accum_count p > 0)
      prog
  in
  (* the predicate pins accums, so the region must survive with them *)
  Alcotest.(check bool) "accums survive" true (accum_count shrunk > 0);
  Alcotest.(check bool) "their region survives" true
    (shrunk.Stress.reductions <> []);
  (* ... and when the predicate does NOT pin accums, the region shrinks
     away together with every accum targeting it *)
  let gone = Stress.shrink_with (fun p -> ignore (Stress.spec p); true) prog in
  Alcotest.(check bool) "regions dropped" true (gone.Stress.reductions = []);
  Alcotest.(check int) "accums dropped with them" 0 (accum_count gone)

let test_orphan_accum_is_typed_failure () =
  let prog = seeded_reduction_prog () in
  let orphaned = { prog with Stress.reductions = [] } in
  Alcotest.check_raises "spec names the word"
    (Failure "Stress: accum targets word 0 outside every registered reduction region")
    (fun () -> ignore (Stress.spec orphaned))

(* ------------------------------------------------------------------ *)
(* The spec against hand-computed verdicts                             *)
(* ------------------------------------------------------------------ *)

(* A two-node program over [nblocks] blocks of two words, chunked, on a
   crossbar: word [w] is in block [w / 2]. *)
let hand ?(policy = Policy.lcm_mcc) ?(nblocks = 1) ?capacity
    ?(reductions = []) ?(init = []) segments : Stress.prog =
  {
    seed = 0;
    case = 0;
    policy;
    nnodes = 2;
    words_per_block = 2;
    nblocks;
    dist = Lcm_mem.Gmem.Chunked;
    topology = Lcm_net.Topology.Crossbar;
    barrier = Lcm_core.Barrier.Constant;
    capacity_blocks = capacity;
    hw_cache_blocks = None;
    reductions;
    init;
    segments;
  }

(* One entry per segment: per node, the predicted value of each op
   ([None] for non-loads and unpredictable loads), then the state after
   the segment. *)
let verdict = Alcotest.(list (pair (array (list (option int))) (array int)))

let check_spec name want prog =
  Alcotest.check verdict name want (Stress.spec prog)

let test_spec_reader_writer () =
  check_spec "lcm-mcc: the writer reads its store, the reader phase-start"
    [ ([| [ None; None; Some 42; Some 0 ]; [ Some 7; Some 0 ] |], [| 42; 0 |]) ]
    (hand ~init:[ (0, 7) ]
       Stress.[ Parallel [| [ Mark 0; Store (0, 42); Load 0; Load 1 ];
                            [ Load 0; Load 1 ] |] ])

(* An LCM flush hands the private copy back, so the writer's next read
   refetches the phase-start value; a coherent flush is only a
   writeback, so the writer still sees its store. *)
let test_spec_flush () =
  let prog policy =
    hand ~policy ~init:[ (0, 10) ]
      Stress.[ Parallel [| [ Mark 0; Store (0, 5); Flush; Load 0 ];
                           [ Load 0 ] |] ]
  in
  check_spec "lcm-mcc flush resets the writer's view"
    [ ([| [ None; None; None; Some 10 ]; [ Some 10 ] |], [| 5; 0 |]) ]
    (prog Policy.lcm_mcc);
  check_spec "stache flush keeps it (another node's read is unpredictable)"
    [ ([| [ None; None; None; Some 5 ]; [ None ] |], [| 5; 0 |]) ]
    (prog Policy.stache)

let test_spec_int_sum () =
  check_spec "int_sum: 5 + 3 + 4 merges to 12"
    [ ([| [ None; None; Some 8 ]; [ None; None ] |], [| 12; 0 |]) ]
    (hand ~reductions:[ (0, Lcm_core.Reduction.int_sum) ] ~init:[ (0, 5) ]
       Stress.[ Parallel [| [ Mark 0; Accum (0, 3); Load 0 ];
                            [ Mark 0; Accum (0, 4) ] |] ])

(* A capacity eviction can reset a private view at any point, so with
   bounded capacity no parallel load is predicted under LCM; sequential
   loads and the merged state still are. *)
let test_spec_bounded_capacity () =
  check_spec "lcm-mcc, capacity 1"
    [
      ([| [ None; Some 3 ]; [ Some 0 ] |], [| 3; 0; 0; 0 |]);
      ([| [ None; None; None; None ]; [ None ] |], [| 5; 0; 0; 0 |]);
    ]
    (hand ~nblocks:2 ~capacity:1
       Stress.
         [
           Sequential [| [ Store (0, 3); Load 0 ]; [ Load 1 ] |];
           Parallel [| [ Mark 0; Store (0, 5); Load 0; Load 2 ]; [ Load 0 ] |];
         ])

(* Under a coherent policy a load is predicted only when no other node
   writes the word: word 0 takes accums from both nodes, word 1 only
   from node 1, word 2 from nobody. *)
let test_spec_coherent_shared_reduction () =
  check_spec "mesi: a reduction word two nodes write is unpredictable"
    [
      ( [| [ None; None; Some 0 ]; [ None; None; None; Some 2 ] |],
        [| 12; 2; 0; 0 |] );
    ]
    (hand ~policy:Policy.mesi ~nblocks:2
       ~reductions:[ (0, Lcm_core.Reduction.int_sum) ]
       ~init:[ (0, 5) ]
       Stress.
         [
           Parallel
             [|
               [ Accum (0, 3); Load 0; Load 2 ];
               [ Accum (0, 4); Load 0; Accum (1, 2); Load 1 ];
             |];
         ])

let () =
  Alcotest.run "lcm_stress"
    [
      ( "stress",
        List.map
          (fun (p : Policy.t) ->
            Alcotest.test_case (p.Policy.name ^ " 30 cases") `Slow
              (run_policy p))
          Policy.policies
        @ [
            Alcotest.test_case "mixed policies" `Slow test_mixed;
            Alcotest.test_case "deterministic generation" `Quick
              test_gen_deterministic;
            Alcotest.test_case "shrink isolates a parallel store" `Quick
              test_shrink_isolates_a_store;
            Alcotest.test_case "shrink keeps accums with their region" `Quick
              test_shrink_keeps_accums_with_their_region;
            Alcotest.test_case "orphan accum is a typed failure" `Quick
              test_orphan_accum_is_typed_failure;
          ] );
      ( "spec",
        [
          Alcotest.test_case "writer and reader views" `Quick
            test_spec_reader_writer;
          Alcotest.test_case "flush under lcm and stache" `Quick
            test_spec_flush;
          Alcotest.test_case "int_sum merges against clean" `Quick
            test_spec_int_sum;
          Alcotest.test_case "bounded capacity predicts no parallel load"
            `Quick test_spec_bounded_capacity;
          Alcotest.test_case "coherent shared reduction word" `Quick
            test_spec_coherent_shared_reduction;
        ] );
    ]
