(* Tests for the RSM protocol engine: Stache coherence, LCM (scc and mcc),
   reductions, conflict/race detection, stale data. *)

open Lcm_core
module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff
module Gmem = Lcm_mem.Gmem
module Word = Lcm_mem.Word

let mk ?(nnodes = 4) ?detection ?capacity_blocks policy =
  let m =
    Machine.create ?capacity_blocks ~nnodes ~words_per_block:8
      ~topology:Lcm_net.Topology.Crossbar ()
  in
  let p = Proto.install ?detection ~policy m in
  (m, p)

let alloc m ~dist ~nwords = Gmem.alloc (Machine.gmem m) ~dist ~nwords

(* Run one closure per (node, fiber) pair to completion. *)
let run_fibers m fibers =
  List.iter (fun (nid, f) -> Machine.spawn m (Machine.node m nid) f) fibers;
  Machine.run_to_quiescence m

(* Run a full parallel phase: begin, run fibers, reconcile. *)
let parallel_phase (m, p) fibers =
  Proto.begin_parallel p;
  run_fibers m fibers;
  Proto.reconcile p

let stat (m, _) name = Lcm_util.Stats.get (Machine.stats m) name

(* ------------------------------------------------------------------ *)
(* Stache                                                              *)
(* ------------------------------------------------------------------ *)

let test_stache_read_remote () =
  let ((m, p) as mp) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  Proto.poke p (a + 3) 77;
  let seen = ref 0 in
  run_fibers m [ (0, fun () -> seen := Memeff.load (a + 3)) ];
  Alcotest.(check int) "remote value" 77 !seen;
  Alcotest.(check int) "one remote fetch" 1 (stat mp "proto.fetch_remote")

let test_stache_second_read_hits () =
  let ((m, _) as mp) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  run_fibers m
    [
      ( 0,
        fun () ->
          ignore (Memeff.load a);
          ignore (Memeff.load (a + 7)) );
    ];
  Alcotest.(check int) "single fetch" 1 (stat mp "proto.fetch_remote")

let test_stache_write_then_remote_read () =
  let (m, p) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 2) ~nwords:8 in
  run_fibers m [ (0, fun () -> Memeff.store a 123) ];
  (* node 1 reads: home must recall node 0's exclusive copy *)
  let seen = ref 0 in
  run_fibers m [ (1, fun () -> seen := Memeff.load a) ];
  Alcotest.(check int) "sees writer's value" 123 !seen;
  Alcotest.(check bool) "a recall happened" true
    (Lcm_util.Stats.get (Machine.stats m) "proto.recalls" >= 1);
  Alcotest.(check int) "peek agrees" 123 (Proto.peek p a)

let test_stache_write_invalidates_sharers () =
  let ((m, p) as mp) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 3) ~nwords:8 in
  Proto.poke p a 5;
  (* nodes 0,1 read; then node 2 writes; then node 0 re-reads *)
  run_fibers m
    [ (0, fun () -> ignore (Memeff.load a)); (1, fun () -> ignore (Memeff.load a)) ];
  run_fibers m [ (2, fun () -> Memeff.store a 9) ];
  Alcotest.(check bool) "invals sent" true (stat mp "proto.invals" >= 2);
  let seen = ref 0 in
  run_fibers m [ (0, fun () -> seen := Memeff.load a) ];
  Alcotest.(check int) "fresh value after invalidation" 9 !seen

let test_stache_writer_migration () =
  let (m, p) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  (* alternate writers; each increments; final value = 6 *)
  for i = 1 to 6 do
    let nid = i mod 2 in
    run_fibers m [ (nid, fun () -> Memeff.store a (1 + Memeff.load a)) ]
  done;
  Alcotest.(check int) "count" 6 (Proto.peek p a)

let test_stache_home_write_recalls_exclusive () =
  let (m, p) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  run_fibers m [ (1, fun () -> Memeff.store a 50) ];
  (* home node 0 writes the same block: must recall node 1's copy first *)
  run_fibers m [ (0, fun () -> Memeff.store (a + 1) 60) ];
  Alcotest.(check int) "remote write preserved" 50 (Proto.peek p a);
  Alcotest.(check int) "home write applied" 60 (Proto.peek p (a + 1));
  (* node 1 must no longer hit its old copy *)
  let seen = ref (-1) in
  run_fibers m [ (1, fun () -> seen := Memeff.load (a + 1)) ];
  Alcotest.(check int) "node1 sees home write" 60 !seen

let test_stache_eviction_writeback () =
  let (m, p) = mk ~capacity_blocks:2 Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:(8 * 4) in
  run_fibers m
    [
      ( 0,
        fun () ->
          for blk = 0 to 3 do
            Memeff.store (a + (8 * blk)) (100 + blk)
          done );
    ];
  (* blocks 0 and 1 were evicted from node 0; their writes must be home *)
  Alcotest.(check int) "evicted write survived" 100 (Proto.peek p a);
  Alcotest.(check int) "second evicted write survived" 101 (Proto.peek p (a + 8))

let test_stache_parallel_phase_is_coherent () =
  (* Under the Stache policy a parallel phase grants exclusive copies:
     disjoint writes by two nodes must both survive reconcile (which is a
     plain barrier for Stache). *)
  let ((m, p) as mp) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:16 in
  parallel_phase mp
    [ (1, fun () -> Memeff.store a 1); (2, fun () -> Memeff.store (a + 8) 2) ];
  Alcotest.(check int) "write 1" 1 (Proto.peek p a);
  Alcotest.(check int) "write 2" 2 (Proto.peek p (a + 8));
  Alcotest.(check int) "no clean copies under stache" 0 (stat mp "lcm.clean_copies")

(* ------------------------------------------------------------------ *)
(* LCM basics                                                          *)
(* ------------------------------------------------------------------ *)

let lcm_both f () =
  f Policy.lcm_scc;
  f Policy.lcm_mcc

let test_lcm_mark_write_reconcile policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  Proto.poke p a 10;
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 20 );
    ];
  (* before reconcile the master still holds the phase-start value *)
  Alcotest.(check int) "master clean during phase" 10 (Proto.peek p a);
  Proto.reconcile p;
  Alcotest.(check int) "merged after reconcile" 20 (Proto.peek p a)

let test_lcm_reads_see_phase_start policy =
  let ((m, p) as mp) = mk policy in
  let a = alloc m ~dist:(Gmem.On 2) ~nwords:8 in
  Proto.poke p a 1;
  let observed = ref (-1) in
  (* node 0 marks+writes+flushes; node 1 then reads the same word: it must
     see the phase-start value, not node 0's update. *)
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 2;
          Memeff.directive Memeff.Flush_copies );
    ];
  run_fibers m [ (1, fun () -> observed := Memeff.load a) ];
  Proto.reconcile p;
  Alcotest.(check int) "phase-start value" 1 !observed;
  Alcotest.(check int) "after reconcile" 2 (Proto.peek p a);
  ignore mp

let test_lcm_disjoint_words_merge policy =
  (* Two invocations on different nodes write different words of the same
     block — the false-sharing pattern LCM handles without ping-pong. *)
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 3) ~nwords:8 in
  parallel_phase (m, p)
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 11 );
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification (a + 5));
          Memeff.store (a + 5) 22 );
    ];
  Alcotest.(check int) "word 0" 11 (Proto.peek p a);
  Alcotest.(check int) "word 5" 22 (Proto.peek p (a + 5));
  Alcotest.(check int) "no conflicts" 0
    (Lcm_util.Stats.get (Machine.stats m) "lcm.conflicts")

let test_lcm_unmodified_words_keep_value policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  for i = 0 to 7 do
    Proto.poke p (a + i) (100 + i)
  done;
  parallel_phase (m, p)
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store (a + 2) 0 );
    ];
  for i = 0 to 7 do
    let expected = if i = 2 then 0 else 100 + i in
    Alcotest.(check int) (Printf.sprintf "word %d" i) expected (Proto.peek p (a + i))
  done

let test_lcm_implicit_mark policy =
  (* An unannotated store during a parallel phase is detected by the memory
     system and handled as a mark (the paper's run-time fallback). *)
  let ((m, p) as mp) = mk policy in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  parallel_phase mp [ (0, fun () -> Memeff.store a 5) ];
  Alcotest.(check int) "store merged" 5 (Proto.peek p a);
  Alcotest.(check bool) "implicit mark counted" true
    (Lcm_util.Stats.get (Machine.stats m) "lcm.implicit_marks" >= 1)

let test_lcm_flush_between_invocations policy =
  (* One node runs two invocations; flush_copies between them guarantees the
     second sees phase-start values even for blocks the first modified. *)
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  Proto.poke p a 7;
  let second_saw = ref (-1) in
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 0,
        fun () ->
          (* invocation 1: writes word 0 *)
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 8;
          Memeff.directive Memeff.Flush_copies;
          (* invocation 2: reads word 0 — must see the clean value *)
          second_saw := Memeff.load a;
          (* and writes word 1 *)
          Memeff.directive (Memeff.Mark_modification (a + 1));
          Memeff.store (a + 1) 9;
          Memeff.directive Memeff.Flush_copies );
    ];
  Proto.reconcile p;
  Alcotest.(check int) "second invocation saw clean value" 7 !second_saw;
  Alcotest.(check int) "both writes merged: w0" 8 (Proto.peek p a);
  Alcotest.(check int) "both writes merged: w1" 9 (Proto.peek p (a + 1))

let test_scc_refetches_after_flush () =
  let ((m, p) as mp) = mk Policy.lcm_scc in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1;
          Memeff.directive Memeff.Flush_copies;
          (* scc dropped the copy: this re-mark must fetch again *)
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store (a + 1) 2;
          Memeff.directive Memeff.Flush_copies );
    ];
  Proto.reconcile p;
  Alcotest.(check int) "two remote fetches" 2 (stat mp "proto.fetch_remote");
  Alcotest.(check int) "no local restores" 0 (stat mp "lcm.local_restores")

let test_mcc_restores_locally () =
  let ((m, p) as mp) = mk Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1;
          Memeff.directive Memeff.Flush_copies;
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store (a + 1) 2;
          Memeff.directive Memeff.Flush_copies );
    ];
  Proto.reconcile p;
  Alcotest.(check int) "single remote fetch" 1 (stat mp "proto.fetch_remote");
  Alcotest.(check bool) "local restores happened" true (stat mp "lcm.local_restores" >= 1);
  Alcotest.(check int) "both writes merged" 1 (Proto.peek p a);
  Alcotest.(check int) "second write merged" 2 (Proto.peek p (a + 1))

let test_lcm_scc_vs_mcc_same_result () =
  (* Differential: the same workload under scc and mcc must produce the
     same memory image. *)
  let run policy =
    let (m, p) = mk policy in
    let a = alloc m ~dist:Gmem.Chunked ~nwords:64 in
    for i = 0 to 63 do
      Proto.poke p (a + i) i
    done;
    Proto.begin_parallel p;
    run_fibers m
      (List.init 4 (fun nid ->
           ( nid,
             fun () ->
               for i = 0 to 15 do
                 let addr = a + (nid * 16) + i in
                 Memeff.directive (Memeff.Mark_modification addr);
                 Memeff.store addr (Memeff.load addr * 2);
                 Memeff.directive Memeff.Flush_copies
               done )));
    Proto.reconcile p;
    List.init 64 (fun i -> Proto.peek p (a + i))
  in
  Alcotest.(check (list int)) "identical images" (run Policy.lcm_scc)
    (run Policy.lcm_mcc);
  Alcotest.(check (list int)) "doubled" (List.init 64 (fun i -> 2 * i))
    (run Policy.lcm_scc)

let test_lcm_copies_invalidated_after_reconcile policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  Proto.poke p a 1;
  (* node 2 reads the block during phase 1 (gets a clean RO copy); node 0
     modifies it; after reconcile node 2 must observe the new value. *)
  Proto.begin_parallel p;
  run_fibers m
    [
      (2, fun () -> ignore (Memeff.load a));
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 42 );
    ];
  Proto.reconcile p;
  let seen = ref 0 in
  run_fibers m [ (2, fun () -> seen := Memeff.load a) ];
  Alcotest.(check int) "stale RO copy invalidated" 42 !seen

let test_lcm_sequential_coherence_after_reconcile policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 9 );
    ];
  (* back in the sequential phase, plain exclusive writes work again *)
  run_fibers m [ (2, fun () -> Memeff.store a (Memeff.load a + 1)) ];
  Alcotest.(check int) "sequential write on top" 10 (Proto.peek p a)

let test_lcm_marked_but_unwritten policy =
  let ((m, p) as mp) = mk policy in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  Proto.poke p a 3;
  parallel_phase mp
    [ (0, fun () -> Memeff.directive (Memeff.Mark_modification a)) ];
  Alcotest.(check int) "value unchanged" 3 (Proto.peek p a);
  Alcotest.(check int) "nothing reconciled" 0 (stat mp "lcm.reconciled_blocks")

let test_lcm_exclusive_block_marked policy =
  (* A block written in the sequential phase (exclusive at a remote node)
     is then marked by the same node in the parallel phase: its current
     value must become the phase-start baseline. *)
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  run_fibers m [ (1, fun () -> Memeff.store a 5) ];
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store (a + 1) 6 );
      (* another node reads the block mid-phase: must see 5 (pushed home) *)
      (2, fun () -> ignore (Memeff.load a));
    ];
  Proto.reconcile p;
  Alcotest.(check int) "sequential write survives" 5 (Proto.peek p a);
  Alcotest.(check int) "parallel write merged" 6 (Proto.peek p (a + 1))

let test_lcm_exclusive_elsewhere_marked policy =
  (* Node 1 owns the block exclusively; node 2 marks it — home must recall
     node 1's copy before granting the LCM copy. *)
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  run_fibers m [ (1, fun () -> Memeff.store a 5) ];
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 2,
        fun () ->
          Memeff.directive (Memeff.Mark_modification (a + 1));
          Memeff.store (a + 1) 7 );
    ];
  Proto.reconcile p;
  Alcotest.(check int) "recalled value intact" 5 (Proto.peek p a);
  Alcotest.(check int) "lcm write merged" 7 (Proto.peek p (a + 1))

let test_lcm_home_node_marks_own_block policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  Proto.poke p a 1;
  let observed = ref (-1) in
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 2 );
      (1, fun () -> observed := Memeff.load a);
    ];
  Proto.reconcile p;
  Alcotest.(check int) "reader saw clean value" 1 !observed;
  Alcotest.(check int) "home write merged" 2 (Proto.peek p a)

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

let test_reduction_int_sum policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  Proto.poke p a 100;
  Proto.register_reduction p ~base:a ~nwords:8 Reduction.int_sum;
  parallel_phase (m, p)
    (List.init 4 (fun nid ->
         ( nid,
           fun () ->
             Memeff.directive (Memeff.Mark_modification a);
             (* accumulate into the private copy, as %+= compiles to *)
             Memeff.store a (Memeff.load a + nid + 1) )));
  (* 100 + 1+2+3+4 *)
  Alcotest.(check int) "sum" 110 (Proto.peek p a)

let test_reduction_f32_sum policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  Proto.poke p a (Word.of_float 1.0);
  Proto.register_reduction p ~base:a ~nwords:8 Reduction.f32_sum;
  parallel_phase (m, p)
    (List.init 4 (fun nid ->
         ( nid,
           fun () ->
             Memeff.directive (Memeff.Mark_modification a);
             Memeff.store a
               (Word.of_float (Word.to_float (Memeff.load a) +. 0.5)) )));
  Alcotest.(check (float 1e-6)) "sum" 3.0 (Word.to_float (Proto.peek p a))

let test_reduction_max policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 2) ~nwords:8 in
  Proto.poke p a 5;
  Proto.register_reduction p ~base:a ~nwords:8 Reduction.int_max;
  parallel_phase (m, p)
    (List.init 4 (fun nid ->
         ( nid,
           fun () ->
             Memeff.directive (Memeff.Mark_modification a);
             Memeff.store a (max (Memeff.load a) (10 * nid)) )));
  Alcotest.(check int) "max" 30 (Proto.peek p a)

let test_reduction_multiple_flushes policy =
  (* One node contributes several times (flushing between invocations):
     every contribution must count exactly once. *)
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  Proto.register_reduction p ~base:a ~nwords:8 Reduction.int_sum;
  Proto.begin_parallel p;
  run_fibers m
    [
      ( 1,
        fun () ->
          for _ = 1 to 3 do
            Memeff.directive (Memeff.Mark_modification a);
            Memeff.store a (Memeff.load a + 1);
            Memeff.directive Memeff.Flush_copies
          done );
      ( 2,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a (Memeff.load a + 10) );
    ];
  Proto.reconcile p;
  Alcotest.(check int) "3 + 10" 13 (Proto.peek p a)

let test_reduction_spanning_blocks policy =
  (* a reduction region covering several blocks: every word reduces *)
  let (m, p) = mk policy in
  let a = alloc m ~dist:Gmem.Interleaved ~nwords:24 in
  Proto.register_reduction p ~base:a ~nwords:24 Reduction.int_sum;
  parallel_phase (m, p)
    (List.init 4 (fun nid ->
         ( nid,
           fun () ->
             for w = 0 to 23 do
               Memeff.directive (Memeff.Mark_modification (a + w));
               Memeff.store (a + w) (Memeff.load (a + w) + nid + 1)
             done )));
  (* each word accumulated 1+2+3+4 = 10 *)
  for w = 0 to 23 do
    Alcotest.(check int) (Printf.sprintf "word %d" w) 10 (Proto.peek p (a + w))
  done

let test_empty_parallel_phase policy =
  (* begin_parallel + reconcile with no work must be a harmless barrier *)
  let (m, p) = mk policy in
  let a = alloc m ~dist:Gmem.Chunked ~nwords:8 in
  Proto.poke p a 5;
  Proto.begin_parallel p;
  Proto.reconcile p;
  Proto.begin_parallel p;
  Proto.reconcile p;
  Alcotest.(check int) "data untouched" 5 (Proto.peek p a);
  Alcotest.(check bool) "clocks advanced by barriers" true
    (Machine.clock (Machine.node m 0) > 0);
  match Proto.check_invariants p with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invariants: %s" (String.concat "; " es)

let test_epoch_advances_per_reconcile () =
  let (m, p) = mk Policy.lcm_mcc in
  Alcotest.(check int) "epoch 0" 0 (Machine.epoch m);
  Proto.begin_parallel p;
  Proto.reconcile p;
  Proto.begin_parallel p;
  Proto.reconcile p;
  Alcotest.(check int) "epoch 2" 2 (Machine.epoch m)

let test_evict_ro_cleans_directory () =
  (* an evicted read-only copy tells the home, so a later exclusive grant
     sends no invalidation to the evictor *)
  let (m, p) = mk ~capacity_blocks:1 Policy.stache in
  let a = alloc m ~dist:(Gmem.On 3) ~nwords:16 in
  run_fibers m
    [
      ( 0,
        fun () ->
          ignore (Memeff.load a);
          (* second block evicts the first from node 0's 1-block cache *)
          ignore (Memeff.load (a + 8)) );
    ];
  ignore (Lcm_util.Stats.get (Machine.stats m) "proto.invals");
  (* node 1 takes block 0 exclusively: no sharers remain, so no invals *)
  let invals_before = Lcm_util.Stats.get (Machine.stats m) "proto.invals" in
  run_fibers m [ (1, fun () -> Memeff.store a 1) ];
  Alcotest.(check int) "no invalidation needed" invals_before
    (Lcm_util.Stats.get (Machine.stats m) "proto.invals");
  Alcotest.(check int) "value written" 1 (Proto.peek p a)

let test_message_breakdown () =
  let (m, p) = mk Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  parallel_phase (m, p)
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1 );
    ];
  let r =
    Lcm_apps.Bench_result.make ~name:"t" ~cycles:1 ~checksum:0.0
      ~stats:(Machine.stats m)
  in
  let breakdown = Lcm_apps.Bench_result.message_breakdown r in
  Alcotest.(check bool) "has get_lcm" true (List.mem_assoc "get_lcm" breakdown);
  Alcotest.(check bool) "has flush" true (List.mem_assoc "flush" breakdown);
  (* sorted by descending count *)
  let counts = List.map snd breakdown in
  Alcotest.(check (list int)) "sorted" (List.sort (fun a b -> compare b a) counts) counts

let test_peek_poke_untouched_address () =
  let (m, p) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 2) ~nwords:8 in
  Alcotest.(check int) "fresh memory is zero" 0 (Proto.peek p (a + 7));
  Proto.poke p (a + 7) 9;
  Alcotest.(check int) "poke/peek roundtrip" 9 (Proto.peek p (a + 7));
  ignore m

(* operator laws *)
let prop_reduction_idempotent_ops_combine_like_apply =
  QCheck.Test.make ~name:"idempotent ops: combine = apply" ~count:200
    QCheck.(triple small_int small_int small_int)
    (fun (clean, current, incoming) ->
      let w = Lcm_mem.Word.of_int in
      List.for_all
        (fun (op : Reduction.t) ->
          op.Reduction.combine ~clean:(w clean) ~current:(w current)
            ~incoming:(w incoming)
          = op.Reduction.apply (w current) (w incoming))
        [ Reduction.int_min; Reduction.int_max; Reduction.band; Reduction.bor ])

let prop_reduction_sum_combine_recovers_contribution =
  QCheck.Test.make ~name:"int_sum: combine adds the contribution" ~count:200
    QCheck.(triple (int_bound 10000) (int_bound 10000) (int_bound 10000))
    (fun (clean, current, delta) ->
      let w = Lcm_mem.Word.of_int in
      let incoming = w (clean + delta) in
      Lcm_mem.Word.to_int
        (Reduction.int_sum.Reduction.combine ~clean:(w clean) ~current:(w current)
           ~incoming)
      = current + delta)

let prop_reduction_apply_identity =
  QCheck.Test.make ~name:"apply op identity = id" ~count:100
    QCheck.(int_bound 100000)
    (fun v ->
      let w = Lcm_mem.Word.of_int v in
      List.for_all
        (fun (op : Reduction.t) ->
          op.Reduction.apply op.Reduction.identity w = w
          && op.Reduction.apply w op.Reduction.identity = w)
        [
          Reduction.int_sum;
          Reduction.int_min;
          Reduction.int_max;
          Reduction.band;
          Reduction.bor;
          Reduction.bxor;
        ])

let prop_reduction_apply_commutative =
  QCheck.Test.make ~name:"apply commutative" ~count:200
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let wa = Lcm_mem.Word.of_int a and wb = Lcm_mem.Word.of_int b in
      List.for_all
        (fun (op : Reduction.t) -> op.Reduction.apply wa wb = op.Reduction.apply wb wa)
        Reduction.all)

let test_reduction_f32_minmax policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:16 in
  Proto.poke p a (Word.of_float 50.0);
  Proto.poke p (a + 8) (Word.of_float (-50.0));
  Proto.register_reduction p ~base:a ~nwords:8 Reduction.f32_min;
  Proto.register_reduction p ~base:(a + 8) ~nwords:8 Reduction.f32_max;
  parallel_phase (m, p)
    (List.init 4 (fun nid ->
         ( nid,
           fun () ->
             let v = float_of_int ((nid * 13) - 20) in
             Memeff.directive (Memeff.Mark_modification a);
             Memeff.store a
               (Word.of_float (Float.min (Word.to_float (Memeff.load a)) v));
             Memeff.directive (Memeff.Mark_modification (a + 8));
             Memeff.store (a + 8)
               (Word.of_float (Float.max (Word.to_float (Memeff.load (a + 8))) v)) )));
  Alcotest.(check (float 1e-6)) "min" (-20.0) (Word.to_float (Proto.peek p a));
  Alcotest.(check (float 1e-6)) "max" 19.0 (Word.to_float (Proto.peek p (a + 8)))

let test_reduction_bxor policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 2) ~nwords:8 in
  Proto.poke p a 0b1010;
  Proto.register_reduction p ~base:a ~nwords:8 Reduction.bxor;
  parallel_phase (m, p)
    (List.init 4 (fun nid ->
         ( nid,
           fun () ->
             Memeff.directive (Memeff.Mark_modification a);
             Memeff.store a (Memeff.load a lxor (1 lsl nid)) )));
  Alcotest.(check int) "xor of contributions" (0b1010 lxor 0b1111) (Proto.peek p a)

let test_reduction_ops_unit () =
  let w = Word.of_int in
  let c op ~clean ~current ~incoming =
    Word.to_int
      (op.Reduction.combine ~clean:(w clean) ~current:(w current) ~incoming:(w incoming))
  in
  Alcotest.(check int) "sum" 15 (c Reduction.int_sum ~clean:10 ~current:12 ~incoming:13);
  Alcotest.(check int) "min" 3 (c Reduction.int_min ~clean:9 ~current:5 ~incoming:3);
  Alcotest.(check int) "max" 9 (c Reduction.int_max ~clean:0 ~current:9 ~incoming:4);
  Alcotest.(check int) "band" 4 (c Reduction.band ~clean:7 ~current:6 ~incoming:5);
  Alcotest.(check int) "bor" 7 (c Reduction.bor ~clean:0 ~current:6 ~incoming:3);
  Alcotest.(check int) "bxor contribution" (12 lxor 9)
    (c Reduction.bxor ~clean:0 ~current:12 ~incoming:9)

(* ------------------------------------------------------------------ *)
(* Detection                                                           *)
(* ------------------------------------------------------------------ *)

let test_conflict_detection () =
  let (m, p) = mk ~detection:Detect.At_reconcile Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1 );
      ( 2,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 2 );
    ];
  match Proto.conflicts p with
  | [ c ] ->
    Alcotest.(check (list int)) "conflicting word" [ 0 ]
      (Lcm_util.Mask.to_list c.Detect.words)
  | other -> Alcotest.failf "expected one conflict, got %d" (List.length other)

let test_no_false_conflicts () =
  let (m, p) = mk ~detection:Detect.At_reconcile Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1 );
      ( 2,
        fun () ->
          Memeff.directive (Memeff.Mark_modification (a + 1));
          Memeff.store (a + 1) 2 );
    ];
  Alcotest.(check int) "no conflicts" 0 (List.length (Proto.conflicts p))

let test_silent_store_conflict_detected () =
  (* Both writers store the same value: a value-diff scheme would miss it;
     dirty masks must not. *)
  let (m, p) = mk ~detection:Detect.At_reconcile Policy.lcm_scc in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  Proto.poke p a 5;
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 5 );
      ( 2,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 5 );
    ];
  Alcotest.(check int) "silent conflict found" 1 (List.length (Proto.conflicts p))

let test_race_detection () =
  let (m, p) = mk ~detection:Detect.At_reconcile Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  parallel_phase (m, p)
    [
      (1, fun () -> ignore (Memeff.load a));
      ( 2,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1 );
    ];
  match Proto.races p with
  | [ r ] -> Alcotest.(check (list int)) "reader list" [ 1 ] r.Detect.readers
  | other -> Alcotest.failf "expected one race, got %d" (List.length other)

(* Regression: the home node's reads never fault — its backing line is
   always resident and readable — so a home reader used to be invisible
   to race detection, which only recorded readers in [serve].  The load
   path must record home reads too. *)
let test_race_detection_home_reader () =
  let (m, p) = mk ~detection:Detect.At_reconcile Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  parallel_phase (m, p)
    [
      (0, fun () -> ignore (Memeff.load a));
      ( 2,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1 );
    ];
  match Proto.races p with
  | [ r ] -> Alcotest.(check (list int)) "home is a reader" [ 0 ] r.Detect.readers
  | other -> Alcotest.failf "expected one race, got %d" (List.length other)

let test_strict_detection_requires_detect () =
  let m =
    Machine.create ~nnodes:2 ~words_per_block:8 ~topology:Lcm_net.Topology.Crossbar ()
  in
  Alcotest.(check bool) "update policy rejected" true
    (try
       ignore
         (Proto.install ~detection:Detect.Strict ~policy:Policy.lcm_mcc_update m);
       false
     with Invalid_argument _ -> true)

(* A race whose read is satisfied by a copy cached in an EARLIER phase:
   only strict detection (flush all read-only copies at sync points)
   catches it. *)
let run_cross_phase_race ~strict =
  let (m, p) = mk ~detection:Detect.At_reconcile Policy.lcm_mcc in
  let m, p =
    if strict then begin
      let m2 =
        Machine.create ~nnodes:4 ~words_per_block:8
          ~topology:Lcm_net.Topology.Crossbar ()
      in
      (m2, Proto.install ~detection:Detect.Strict ~policy:Policy.lcm_mcc m2)
    end
    else (m, p)
  in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  (* phase 1: node 2 reads the block (and caches it) *)
  Proto.begin_parallel p;
  run_fibers m [ (2, fun () -> ignore (Memeff.load a)) ];
  Proto.reconcile p;
  (* phase 2: node 2 reads again (cached!), node 1 writes *)
  Proto.begin_parallel p;
  run_fibers m
    [
      (2, fun () -> ignore (Memeff.load a));
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 7 );
    ];
  Proto.reconcile p;
  List.exists (fun (race : Detect.race) -> List.mem 2 race.Detect.readers)
    (Proto.races p)

let test_strict_detection_catches_cached_reader () =
  Alcotest.(check bool) "missed without strict" false
    (run_cross_phase_race ~strict:false);
  Alcotest.(check bool) "caught with strict" true
    (run_cross_phase_race ~strict:true)

let test_strict_detection_costs_invals () =
  let run ~strict =
    let m =
      Machine.create ~nnodes:4 ~words_per_block:8
        ~topology:Lcm_net.Topology.Crossbar ()
    in
    let p =
      Proto.install
        ~detection:(if strict then Detect.Strict else Detect.At_reconcile)
        ~policy:Policy.lcm_mcc m
    in
    let a = alloc m ~dist:Gmem.Chunked ~nwords:32 in
    for phase = 0 to 2 do
      ignore phase;
      Proto.begin_parallel p;
      run_fibers m
        (List.init 4 (fun nid ->
             (nid, fun () -> ignore (Memeff.load (a + (((nid + 1) mod 4) * 8))))));
      Proto.reconcile p
    done;
    Lcm_util.Stats.get (Machine.stats m) "detect.strict_invals"
  in
  Alcotest.(check int) "no strict invals when off" 0 (run ~strict:false);
  Alcotest.(check bool) "strict invalidates read-only copies" true
    (run ~strict:true > 0)

let test_detection_off_by_default () =
  let (m, p) = mk Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1 );
      ( 2,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 2 );
    ];
  Alcotest.(check int) "no records" 0 (List.length (Proto.conflicts p));
  (* but the statistic still counts it *)
  Alcotest.(check int) "stat counted" 1
    (Lcm_util.Stats.get (Machine.stats m) "lcm.conflicts")

(* ------------------------------------------------------------------ *)
(* Stale data                                                          *)
(* ------------------------------------------------------------------ *)

let test_stale_pin_survives_reconcile () =
  let (m, p) = mk Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  Proto.poke p a 1;
  (* consumer (node 3) reads and pins the block *)
  run_fibers m
    [
      ( 3,
        fun () ->
          ignore (Memeff.load a);
          Stale.pin a );
    ];
  (* producer updates it in a parallel phase *)
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 2 );
    ];
  (* the pinned consumer still reads the stale value, with no new fetch *)
  let before = stat (m, p) "proto.fetch_remote" in
  let seen = ref 0 in
  run_fibers m [ (3, fun () -> seen := Memeff.load a) ];
  Alcotest.(check int) "stale value" 1 !seen;
  Alcotest.(check int) "no new fetch" before (stat (m, p) "proto.fetch_remote");
  (* refresh: next read fetches the reconciled value *)
  let seen2 = ref 0 in
  run_fibers m
    [
      ( 3,
        fun () ->
          Stale.refresh a;
          seen2 := Memeff.load a );
    ];
  Alcotest.(check int) "fresh value" 2 !seen2

(* ------------------------------------------------------------------ *)
(* peek/poke edge cases                                                *)
(* ------------------------------------------------------------------ *)

let test_poke_rejects_shared_blocks () =
  let (m, p) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  run_fibers m [ (0, fun () -> Memeff.store a 1) ];
  Alcotest.(check bool) "poke refuses" true
    (try
       Proto.poke p a 9;
       false
     with Failure _ -> true)

let test_peek_consults_exclusive_owner () =
  let (m, p) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  run_fibers m [ (0, fun () -> Memeff.store a 33) ];
  (* master at home is stale; peek must consult node 0 *)
  Alcotest.(check int) "owner value" 33 (Proto.peek p a)

(* ------------------------------------------------------------------ *)
(* Message-flow golden tests: exact per-class message counts for        *)
(* canonical transactions                                               *)
(* ------------------------------------------------------------------ *)

let msg (m, _) tag = Lcm_util.Stats.get (Machine.stats m) ("msg." ^ tag)

let test_flow_remote_read () =
  let ((m, _) as mp) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  run_fibers m [ (0, fun () -> ignore (Memeff.load a)) ];
  Alcotest.(check int) "one request" 1 (msg mp "get_ro");
  Alcotest.(check int) "one data reply" 1 (msg mp "data_ro");
  Alcotest.(check int) "nothing else" 2
    (Lcm_util.Stats.get (Machine.stats m) "net.msgs")

let test_flow_read_then_remote_write () =
  let ((m, _) as mp) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  run_fibers m [ (0, fun () -> ignore (Memeff.load a)) ];
  run_fibers m [ (2, fun () -> Memeff.store a 1) ];
  (* write grant: get_rw + inval to node 0 + ack + data *)
  Alcotest.(check int) "get_rw" 1 (msg mp "get_rw");
  Alcotest.(check int) "inval" 1 (msg mp "inval");
  Alcotest.(check int) "inval_ack" 1 (msg mp "inval_ack");
  Alcotest.(check int) "data_rw" 1 (msg mp "data_rw")

let test_flow_write_then_remote_read () =
  let ((m, _) as mp) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  run_fibers m [ (0, fun () -> Memeff.store a 1) ];
  run_fibers m [ (2, fun () -> ignore (Memeff.load a)) ];
  (* the read recalls the exclusive copy *)
  Alcotest.(check int) "recall" 1 (msg mp "recall");
  Alcotest.(check int) "writeback" 1 (msg mp "put");
  Alcotest.(check int) "then a plain read grant" 1 (msg mp "data_ro")

let test_flow_lcm_mark_write_reconcile () =
  let ((m, p) as mp) = mk Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  parallel_phase (m, p)
    [
      ( 0,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 1 );
    ];
  (* one LCM fetch, one data, one flush, one ack; the reconciliation sweep
     then invalidates the flusher's restored (now stale) clean copy *)
  Alcotest.(check int) "get_lcm" 1 (msg mp "get_lcm");
  Alcotest.(check int) "data_lcm" 1 (msg mp "data_lcm");
  Alcotest.(check int) "flush" 1 (msg mp "flush");
  Alcotest.(check int) "flush_ack" 1 (msg mp "flush_ack");
  Alcotest.(check int) "one reconcile inval" 1 (msg mp "inval");
  Alcotest.(check int) "total messages" 6
    (Lcm_util.Stats.get (Machine.stats m) "net.msgs")

(* ------------------------------------------------------------------ *)
(* The snooping-bus family                                             *)
(* ------------------------------------------------------------------ *)

let test_snoop_read_remote () =
  List.iter
    (fun policy ->
      let ((m, p) as mp) = mk policy in
      let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
      Proto.poke p (a + 3) 77;
      let seen = ref 0 in
      run_fibers m [ (0, fun () -> seen := Memeff.load (a + 3)) ];
      Alcotest.(check int) (policy.Policy.name ^ " remote value") 77 !seen;
      Alcotest.(check int) (policy.Policy.name ^ " one transaction") 1
        (stat mp "bus.transactions");
      match Proto.check_invariants p with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es))
    [ Policy.msi; Policy.mesi; Policy.moesi ]

(* Regression: a cache-to-cache supply is part of serving one miss — it
   must count one proto.fetch_remote (at request issue) plus one
   bus.c2c_transfers, never a second fetch. *)
let test_snoop_c2c_does_not_double_count_fetches () =
  let ((m, p) as mp) = mk Policy.mesi in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  run_fibers m [ (1, fun () -> Memeff.store a 5) ];
  Alcotest.(check int) "write miss fetches remote once" 1
    (stat mp "proto.fetch_remote");
  run_fibers m [ (2, fun () -> ignore (Memeff.load a)) ];
  Alcotest.(check int) "c2c-supplied read adds exactly one fetch" 2
    (stat mp "proto.fetch_remote");
  Alcotest.(check int) "one cache-to-cache transfer" 1
    (stat mp "bus.c2c_transfers");
  Alcotest.(check int) "dirty holder snooped" 1 (stat mp "bus.snoop_hits");
  (* the home node arbitrates like everyone else, but counts local *)
  run_fibers m [ (0, fun () -> ignore (Memeff.load a)) ];
  Alcotest.(check int) "home read is a local fetch" 1
    (stat mp "proto.fetch_local");
  Alcotest.(check int) "home read is not a remote fetch" 2
    (stat mp "proto.fetch_remote");
  (match Proto.check_invariants p with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  Alcotest.(check int) "everyone agrees" 5 (Proto.peek p a)

(* Regression: an Owned line evicted while a BUS_RDX for the same block
   is already arbitrating.  The eviction stages the dirty data in the
   writeback buffer; the RDX must consume it (the freshest copy) and the
   later FLUSH must become a no-op — not write stale data over the new
   owner's block. *)
let test_snoop_owned_writeback_races_bus_rdx () =
  let ((m, p) as mp) = mk ~capacity_blocks:1 Policy.moesi in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:16 in
  (* node 1 dirties the block ... *)
  run_fibers m [ (1, fun () -> Memeff.store (a + 1) 111) ];
  (* ... and a reader downgrades it M -> O (dirty sharing, memory stale) *)
  run_fibers m [ (2, fun () -> ignore (Memeff.load (a + 1))) ];
  Alcotest.(check int) "owner supplied cache-to-cache" 1
    (stat mp "bus.c2c_transfers");
  (* node 1's miss on the next block evicts the Owned line mid-arbitration
     of node 3's write: spawn order puts node 1's BUS_RD ahead of node 3's
     BUS_RDX on the bus, so the eviction (at RD completion) lands while
     the RDX is still queued, and the FLUSH queues behind the RDX *)
  run_fibers m
    [
      (1, fun () -> ignore (Memeff.load (a + 8)));
      ( 3,
        fun () ->
          Memeff.work 10;
          Memeff.store (a + 1) 222 );
    ];
  Alcotest.(check bool) "writeback buffer supplied the racing RDX" true
    (stat mp "bus.wb_supplies" >= 1);
  Alcotest.(check int) "last write wins" 222 (Proto.peek p (a + 1));
  match Proto.check_invariants p with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_snoop_silent_upgrade () =
  (* MESI's point: an unshared load fills Exclusive, so the first store
     upgrades with no bus transaction; MSI must broadcast the upgrade. *)
  let run policy =
    let ((m, _) as mp) = mk policy in
    let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
    run_fibers m
      [
        ( 1,
          fun () ->
            ignore (Memeff.load a);
            Memeff.store a 9 );
      ];
    (stat mp "bus.transactions", stat mp "bus.upgr")
  in
  Alcotest.(check (pair int int)) "mesi: read miss only" (1, 0)
    (run Policy.mesi);
  Alcotest.(check (pair int int)) "msi: read miss + upgrade" (2, 1)
    (run Policy.msi)

let test_snoop_upgrade_race_converts_to_rdx () =
  (* Two Shared holders race to write: the loser's BUS_UPGR is granted
     after its copy was invalidated, so it must convert to a full
     read-exclusive in the same bus slot (and still get the right data). *)
  let ((m, p) as mp) = mk Policy.msi in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  Proto.poke p a 1;
  run_fibers m [ (1, fun () -> ignore (Memeff.load a)) ];
  run_fibers m [ (2, fun () -> ignore (Memeff.load a)) ];
  run_fibers m
    [
      (1, fun () -> Memeff.store a (Memeff.load a + 10));
      (2, fun () -> Memeff.store a (Memeff.load a + 100));
    ];
  Alcotest.(check int) "upgrade race detected" 1 (stat mp "bus.upgr_races");
  Alcotest.(check bool) "a racing write survives"
    true
    (List.mem (Proto.peek p a) [ 11; 101; 111 ]);
  match Proto.check_invariants p with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let test_snoop_auditor_detects_corruption () =
  let (m, p) = mk Policy.msi in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  run_fibers m [ (1, fun () -> Memeff.store a 3) ];
  (* forge a writable copy behind the protocol's back *)
  let b = Gmem.block_of_addr (Machine.gmem m) a in
  let data = Lcm_mem.Block.copy (Machine.master m b) in
  ignore
    (Machine.install_line (Machine.node m 2) b ~data
       ~tag:Lcm_tempest.Tag.Writable);
  match Proto.check_invariants p with
  | Ok () -> Alcotest.fail "auditor missed a forged line"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The RSM design space                                                *)
(* ------------------------------------------------------------------ *)

let test_policy_registry () =
  Alcotest.(check (list string)) "registry order"
    [ "stache"; "lcm-scc"; "lcm-mcc"; "lcm-mcc-update"; "msi"; "mesi"; "moesi" ]
    (List.map (fun p -> p.Policy.name) Policy.policies);
  List.iter
    (fun (s, expect) ->
      match Policy.of_string s with
      | Ok p -> Alcotest.(check string) s expect p.Policy.name
      | Error e -> Alcotest.fail e)
    [
      ("stache", "stache");
      ("Stache+copy", "stache");
      ("copy", "stache");
      ("scc", "lcm-scc");
      ("SCC", "lcm-scc");
      ("mcc", "lcm-mcc");
      ("LCM-MCC", "lcm-mcc");
      ("lcm", "lcm-mcc");
      ("update", "lcm-mcc-update");
      ("msi", "msi");
      (" msi ", "msi");
      ("MESI", "mesi");
      (" MESI ", "mesi");
      ("moesi", "moesi");
    ];
  (match Policy.of_string "mosi" with
  | Error e ->
    Alcotest.(check string) "error enumerates accepted spellings"
      "unknown policy \"mosi\" (expected one of: stache|stache+copy|copy, \
       lcm-scc|scc, lcm-mcc|mcc|lcm, lcm-mcc-update|mcc-update|update, msi, \
       mesi, moesi)"
      e
  | Ok _ -> Alcotest.fail "junk accepted");
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Policy.name ^ " family split")
        (match p.Policy.family with
         | Policy.Snoop _ -> true
         | Policy.Directory _ -> false)
        (not (Policy.is_lcm p) && p.Policy.name <> "stache"))
    Policy.policies

let test_rsm_novel_point_runs () =
  (* lcm-scc-update: a point the paper never measured still works *)
  let policy =
    {
      Policy.lcm_scc with
      Policy.name = "lcm-scc-update";
      label = "LCM-scc-update";
      family =
        Policy.Directory
          {
            Policy.parallel_write_grant = Policy.Lcm_copy;
            local_clean_copies = false;
            update_on_reconcile = true;
          };
    }
  in
  let (m, p) = mk policy in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 3 );
    ];
  Alcotest.(check int) "merged" 3 (Proto.peek p a);
  match Proto.check_invariants p with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invariants: %s" (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Update-based reconciliation                                         *)
(* ------------------------------------------------------------------ *)

let test_update_same_results () =
  let run policy =
    let (m, p) = mk policy in
    let a = alloc m ~dist:Gmem.Chunked ~nwords:32 in
    for i = 0 to 31 do
      Proto.poke p (a + i) i
    done;
    for _phase = 0 to 2 do
      Proto.begin_parallel p;
      run_fibers m
        (List.init 4 (fun nid ->
             ( nid,
               fun () ->
                 for k = 0 to 7 do
                   let addr = a + (nid * 8) + k in
                   (* read a neighbour chunk, update own element *)
                   let other = a + (((nid + 1) mod 4) * 8) + k in
                   let v = Memeff.load other in
                   Memeff.directive (Memeff.Mark_modification addr);
                   Memeff.store addr (Memeff.load addr + v);
                   Memeff.directive Memeff.Flush_copies
                 done )));
      Proto.reconcile p
    done;
    List.init 32 (fun i -> Proto.peek p (a + i))
  in
  Alcotest.(check (list int)) "update = invalidate results"
    (run Policy.lcm_mcc)
    (run Policy.lcm_mcc_update)

let test_update_refreshes_consumer_copies () =
  let (m, p) = mk Policy.lcm_mcc_update in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  Proto.poke p a 1;
  (* consumer on node 2 reads the block *)
  run_fibers m [ (2, fun () -> ignore (Memeff.load a)) ];
  (* producer modifies it in a parallel phase *)
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 2 );
    ];
  let fetches_before = Lcm_util.Stats.get (Machine.stats m) "proto.fetch_remote" in
  (* consumer re-reads: its copy was refreshed in place — fresh value, no
     new fetch *)
  let seen = ref 0 in
  run_fibers m [ (2, fun () -> seen := Memeff.load a) ];
  Alcotest.(check int) "fresh value" 2 !seen;
  Alcotest.(check int) "no new remote fetch" fetches_before
    (Lcm_util.Stats.get (Machine.stats m) "proto.fetch_remote");
  Alcotest.(check bool) "updates counted" true
    (Lcm_util.Stats.get (Machine.stats m) "lcm.reconcile_updates" >= 1);
  match Proto.check_invariants p with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invariants: %s" (String.concat "; " es)

let test_update_invalidate_fetch_difference () =
  (* same workload; the update variant must re-fetch strictly less *)
  let run policy =
    let (m, p) = mk policy in
    let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
    for _phase = 0 to 3 do
      Proto.begin_parallel p;
      run_fibers m
        [
          (* consumer reads every phase; producer writes every phase *)
          (2, fun () -> ignore (Memeff.load a));
          ( 1,
            fun () ->
              Memeff.directive (Memeff.Mark_modification a);
              Memeff.store a (Memeff.load a + 1) );
        ];
      Proto.reconcile p
    done;
    Lcm_util.Stats.get (Machine.stats m) "proto.fetch_remote"
  in
  let inval = run Policy.lcm_mcc and update = run Policy.lcm_mcc_update in
  Alcotest.(check bool)
    (Printf.sprintf "update fetches %d < invalidate fetches %d" update inval)
    true (update < inval)

let test_update_respects_stale_pins () =
  let (m, p) = mk Policy.lcm_mcc_update in
  let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
  Proto.poke p a 1;
  run_fibers m
    [
      ( 3,
        fun () ->
          ignore (Memeff.load a);
          Stale.pin a );
    ];
  parallel_phase (m, p)
    [
      ( 1,
        fun () ->
          Memeff.directive (Memeff.Mark_modification a);
          Memeff.store a 2 );
    ];
  (* the pinned copy must stay stale even under the update policy *)
  let seen = ref 0 in
  run_fibers m [ (3, fun () -> seen := Memeff.load a) ];
  Alcotest.(check int) "still stale" 1 !seen

(* ------------------------------------------------------------------ *)
(* Invariant auditing                                                  *)
(* ------------------------------------------------------------------ *)

let assert_invariants p =
  match Proto.check_invariants p with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invariants violated:\n  %s" (String.concat "\n  " es)

let test_invariants_after_sequential_traffic () =
  let (m, p) = mk Policy.stache in
  let a = alloc m ~dist:Gmem.Interleaved ~nwords:64 in
  run_fibers m
    (List.init 4 (fun nid ->
         ( nid,
           fun () ->
             for k = 0 to 15 do
               let addr = a + (((nid * 13) + (k * 3)) mod 64) in
               if k mod 2 = 0 then Memeff.store addr (nid + k)
               else ignore (Memeff.load addr)
             done )));
  assert_invariants p

let test_invariants_after_lcm_phases policy =
  let (m, p) = mk policy in
  let a = alloc m ~dist:Gmem.Chunked ~nwords:64 in
  for phase = 0 to 2 do
    Proto.begin_parallel p;
    run_fibers m
      (List.init 4 (fun nid ->
           ( nid,
             fun () ->
               for k = 0 to 7 do
                 let addr = a + (((nid + phase) * 16 mod 64) + k) in
                 Memeff.directive (Memeff.Mark_modification addr);
                 Memeff.store addr (Memeff.load addr + 1);
                 Memeff.directive Memeff.Flush_copies
               done )));
    Proto.reconcile p;
    assert_invariants p
  done

let test_clean_copies_reclaimed_at_reconcile () =
  (* §5.1: "Clean copies exist only during a parallel function call and
     are reclaimed at the reconcile_copies() directive" — the live gauge
     must return to zero after every phase *)
  List.iter
    (fun policy ->
      let (m, p) = mk policy in
      let a = alloc m ~dist:Gmem.Chunked ~nwords:64 in
      for phase = 0 to 1 do
        ignore phase;
        Proto.begin_parallel p;
        run_fibers m
          (List.init 4 (fun nid ->
               ( nid,
                 fun () ->
                   for k = 0 to 7 do
                     let addr = a + (nid * 16) + k in
                     Memeff.directive (Memeff.Mark_modification addr);
                     Memeff.store addr (nid + k);
                     Memeff.directive Memeff.Flush_copies
                   done )));
        Proto.reconcile p;
        Alcotest.(check int)
          (policy.Policy.name ^ ": no live clean copies after reconcile")
          0
          (Lcm_util.Stats.get (Machine.stats m) "lcm.live_clean_copies")
      done;
      Alcotest.(check bool) (policy.Policy.name ^ ": peak observed") true
        (match
           List.assoc_opt "lcm.peak_clean_copies"
             (Lcm_util.Stats.gauges (Machine.stats m))
         with
        | Some peak -> peak > 0
        | None -> false))
    [ Policy.lcm_scc; Policy.lcm_mcc ]

let test_lcm_capacity_evictions_during_phase () =
  (* working set exceeds the cache mid-phase: evicted LCM copies flush home
     early and everything still merges correctly *)
  List.iter
    (fun policy ->
      let (m, p) = mk ~capacity_blocks:2 policy in
      let a = alloc m ~dist:(Gmem.On 3) ~nwords:(8 * 6) in
      for w = 0 to 47 do
        Proto.poke p (a + w) w
      done;
      Proto.begin_parallel p;
      run_fibers m
        [
          ( 0,
            fun () ->
              (* touch 6 blocks with a 2-block cache *)
              for blk = 0 to 5 do
                let addr = a + (8 * blk) + blk in
                Memeff.directive (Memeff.Mark_modification addr);
                Memeff.store addr (1000 + blk)
              done );
        ];
      Proto.reconcile p;
      for blk = 0 to 5 do
        Alcotest.(check int)
          (Printf.sprintf "%s block %d merged" policy.Policy.name blk)
          (1000 + blk)
          (Proto.peek p (a + (8 * blk) + blk))
      done;
      (* unwritten words kept *)
      Alcotest.(check int) "neighbour word intact" 1 (Proto.peek p (a + 1));
      match Proto.check_invariants p with
      | Ok () -> ()
      | Error es ->
        Alcotest.failf "%s: %s" policy.Policy.name (String.concat "; " es))
    [ Policy.lcm_scc; Policy.lcm_mcc ]

let test_invariants_with_capacity_evictions () =
  let (m, p) = mk ~capacity_blocks:3 Policy.stache in
  let a = alloc m ~dist:(Gmem.On 3) ~nwords:(8 * 8) in
  run_fibers m
    [
      ( 0,
        fun () ->
          for blk = 0 to 7 do
            Memeff.store (a + (8 * blk)) blk
          done;
          for blk = 0 to 7 do
            ignore (Memeff.load (a + (8 * blk)))
          done );
    ];
  assert_invariants p

let test_invariants_catch_corruption () =
  (* sanity: the auditor actually reports planted violations *)
  let (m, p) = mk Policy.stache in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  run_fibers m [ (0, fun () -> ignore (Memeff.load a)) ];
  (* corrupt node 0's read-only copy *)
  let b = Gmem.block_of_addr (Machine.gmem m) a in
  (match Machine.find_line (Machine.node m 0) b with
  | Some line -> line.Lcm_tempest.Machine.data.(0) <- 12345
  | None -> Alcotest.fail "expected a cached line");
  Alcotest.(check bool) "corruption detected" true
    (match Proto.check_invariants p with Error _ -> true | Ok () -> false)

let test_invariants_report_in_block_order () =
  (* A report lists its blocks in ascending order, whatever order the
     protocol's block table iterates in: blocks 1 and 6 of eight iterate
     6 first at 16 buckets and at 4096. *)
  List.iter
    (fun (policy, wording) ->
      let (m, p) = mk policy in
      let a = alloc m ~dist:(Gmem.On 1) ~nwords:64 in
      run_fibers m
        [ (0, fun () -> for blk = 0 to 7 do ignore (Memeff.load (a + (8 * blk))) done) ];
      let b0 = Gmem.block_of_addr (Machine.gmem m) a in
      let broken = [ b0 + 6; b0 + 1 ] in
      List.iter
        (fun b ->
          match Machine.find_line (Machine.node m 0) b with
          | Some line -> line.Lcm_tempest.Machine.data.(0) <- 12345
          | None -> Alcotest.fail "expected a cached line")
        broken;
      Alcotest.(check (result unit (list string)))
        (policy.Policy.name ^ " reports in block order")
        (Error (List.map wording (List.sort Int.compare broken)))
        (Proto.check_invariants p))
    [
      ( Policy.stache,
        Printf.sprintf "block %d: sharer 0's read-only copy differs from master" );
      (Policy.msi, Printf.sprintf "block %d: node 0's S copy diverges from memory");
    ]

let test_invariants_catch_parked_retry () =
  (* the facade audits parked accesses for both engines: a retry left
     parked on a quiescent directory machine is reported *)
  let (m, p) = mk Policy.lcm_mcc in
  let a = alloc m ~dist:(Gmem.On 1) ~nwords:8 in
  let b = Gmem.block_of_addr (Machine.gmem m) a in
  Alcotest.(check bool) "clean before" true (Proto.check_invariants p = Ok ());
  ignore (Machine.park (Machine.node m 0) b (fun () -> ()));
  match Proto.check_invariants p with
  | Error [ e ] ->
    Alcotest.(check string) "names block and node"
      (Printf.sprintf "block %d: node 0 has a pending retry while quiescent" b)
      e
  | Error _ | Ok () -> Alcotest.fail "expected one parked-retry violation"

let test_entry_rejects_unallocated_block () =
  (* A directory entry materialises on first touch, but only for a block
     inside allocated memory: a corrupt block number in a message must
     fail naming the block, not mint a ghost entry. *)
  let m =
    Machine.create ~nnodes:2 ~words_per_block:8
      ~topology:Lcm_net.Topology.Crossbar ()
  in
  let p = Proto_dir.install ~policy:Policy.stache m in
  let a = Gmem.alloc (Machine.gmem m) ~dist:Gmem.Chunked ~nwords:8 in
  Proto_dir.touch_entry p (Gmem.block_of_addr (Machine.gmem m) a);
  Alcotest.check_raises "unallocated block named"
    (Failure "Proto_dir.get_entry: block 9 is not an allocated block")
    (fun () -> Proto_dir.touch_entry p 9)

let prop_invariants_random_mixed =
  (* random interleavings of phases, marks, plain ops, reductions — the
     auditor must stay clean and all protocols agree *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 4)
          (list_size (int_range 1 12)
             (pair (int_bound 3) (pair (int_bound 31) (int_bound 99)))))
  in
  QCheck.Test.make ~name:"invariants hold across random phase mixes" ~count:25
    gen (fun phases ->
      List.for_all
        (fun policy ->
          let (m, p) = mk policy in
          let a = alloc m ~dist:Gmem.Interleaved ~nwords:32 in
          List.iteri
            (fun pi ops ->
              (* dedupe writes per address per phase to stay conflict-free *)
              let tbl = Hashtbl.create 16 in
              List.iter (fun (nid, (off, v)) -> Hashtbl.replace tbl off (nid, v)) ops;
              let by_node = Array.make 4 [] in
              Hashtbl.iter
                (fun off (nid, v) -> by_node.(nid) <- (off, v) :: by_node.(nid))
                tbl;
              if pi mod 2 = 0 then begin
                (* parallel phase with marks *)
                Proto.begin_parallel p;
                run_fibers m
                  (List.init 4 (fun nid ->
                       ( nid,
                         fun () ->
                           List.iter
                             (fun (off, v) ->
                               Memeff.directive
                                 (Memeff.Mark_modification (a + off));
                               Memeff.store (a + off) v)
                             by_node.(nid) )));
                Proto.reconcile p
              end
              else
                (* sequential traffic from one node at a time *)
                Array.iteri
                  (fun nid ops ->
                    if ops <> [] then
                      run_fibers m
                        [
                          ( nid,
                            fun () ->
                              List.iter
                                (fun (off, v) ->
                                  Memeff.store (a + off)
                                    (v + Memeff.load (a + off)))
                                ops );
                        ])
                  by_node)
            phases;
          Proto.check_invariants p = Ok ())
        [ Policy.stache; Policy.lcm_scc; Policy.lcm_mcc ])

(* ------------------------------------------------------------------ *)
(* Barrier models                                                      *)
(* ------------------------------------------------------------------ *)

let costs = Lcm_sim.Costs.default

let test_barrier_constant () =
  let joins = [| 100; 250; 180 |] in
  Alcotest.(check int) "latest + constant"
    (250 + costs.Lcm_sim.Costs.barrier_base + (3 * costs.Lcm_sim.Costs.barrier_per_node))
    (Barrier.release_time ~costs ~style:Barrier.Constant ~join_times:joins)

let test_barrier_after_last_join () =
  List.iter
    (fun style ->
      let joins = [| 10; 999; 500 |] in
      Alcotest.(check bool)
        (Barrier.to_string style ^ " releases after last join")
        true
        (Barrier.release_time ~costs ~style ~join_times:joins > 999))
    [ Barrier.Constant; Barrier.Flat; Barrier.Tree 2; Barrier.Tree 4 ]

let test_barrier_tree_beats_flat_at_scale () =
  let joins = Array.make 128 1000 in
  let flat = Barrier.release_time ~costs ~style:Barrier.Flat ~join_times:joins in
  let tree = Barrier.release_time ~costs ~style:(Barrier.Tree 4) ~join_times:joins in
  Alcotest.(check bool)
    (Printf.sprintf "tree %d < flat %d" tree flat)
    true (tree < flat)

let test_barrier_flat_fine_at_small_scale () =
  let joins = Array.make 4 1000 in
  let flat = Barrier.release_time ~costs ~style:Barrier.Flat ~join_times:joins in
  let tree = Barrier.release_time ~costs ~style:(Barrier.Tree 2) ~join_times:joins in
  Alcotest.(check bool)
    (Printf.sprintf "flat %d <= tree %d at P=4" flat tree)
    true
    (flat <= tree)

let test_barrier_validation () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Barrier.release_time ~costs ~style:Barrier.Flat ~join_times:[||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "arity 1 rejected" true
    (try
       ignore
         (Barrier.release_time ~costs ~style:(Barrier.Tree 1) ~join_times:[| 1 |]);
       false
     with Invalid_argument _ -> true)

let test_barrier_parse () =
  Alcotest.(check bool) "constant" true (Barrier.of_string "constant" = Ok Barrier.Constant);
  Alcotest.(check bool) "flat" true (Barrier.of_string "flat" = Ok Barrier.Flat);
  Alcotest.(check bool) "tree" true (Barrier.of_string "tree:4" = Ok (Barrier.Tree 4));
  Alcotest.(check bool) "roundtrip" true
    (Barrier.of_string (Barrier.to_string (Barrier.Tree 8)) = Ok (Barrier.Tree 8));
  (match Barrier.of_string "ring" with
  | Error e ->
    Alcotest.(check string) "error enumerates accepted spellings"
      "unknown barrier style \"ring\" (expected constant, flat or \
       tree:<arity>)"
      e
  | Ok _ -> Alcotest.fail "junk accepted")

let test_barrier_release () =
  (* Barrier.release ends a phase for both engines: every clock set to the
     release, each node's wait charged, epoch advanced, phase sequential,
     Barrier_release traced before Epoch_advance *)
  let run ~not_before =
    let m =
      Machine.create ~nnodes:4 ~words_per_block:8
        ~topology:Lcm_net.Topology.Crossbar ()
    in
    Machine.enable_trace m;
    Machine.set_phase m `Parallel;
    let join_times = [| 10; 400; 250; 90 |] in
    Barrier.release m ~style:(Barrier.Tree 2) ~join_times ~not_before;
    (m, join_times)
  in
  let m, joins = run ~not_before:0 in
  let release = Barrier.release_time ~costs ~style:(Barrier.Tree 2) ~join_times:joins in
  Array.iter
    (fun n -> Alcotest.(check int) "clock at release" release (Machine.clock n))
    (Machine.nodes m);
  Alcotest.(check int) "waits summed"
    (Array.fold_left (fun acc j -> acc + (release - j)) 0 joins)
    (Lcm_util.Stats.get (Machine.stats m) "lcm.barrier_wait_cycles");
  Alcotest.(check int) "epoch advanced" 1 (Machine.epoch m);
  Alcotest.(check bool) "sequential" true (Machine.phase m = `Sequential);
  (match List.map snd (Machine.trace_events m) with
  | [ Machine.Trace.Barrier_release { nnodes = 4 };
      Machine.Trace.Epoch_advance { epoch = 1 } ] -> ()
  | _ -> Alcotest.fail "expected Barrier_release then Epoch_advance");
  let late = release + 1000 in
  let m, joins = run ~not_before:late in
  Alcotest.(check int) "later not_before wins" late
    (Machine.clock (Machine.node m 2));
  Alcotest.(check int) "waits run to not_before"
    (Array.fold_left (fun acc j -> acc + (late - j)) 0 joins)
    (Lcm_util.Stats.get (Machine.stats m) "lcm.barrier_wait_cycles")

let test_barrier_styles_same_results () =
  (* Timing models must not change computed values. *)
  let run style =
    let m =
      Machine.create ~nnodes:8 ~words_per_block:8 ~topology:Lcm_net.Topology.Crossbar ()
    in
    let p = Proto.install ~barrier:style ~policy:Policy.lcm_mcc m in
    let a = alloc m ~dist:Gmem.Chunked ~nwords:64 in
    Proto.begin_parallel p;
    run_fibers m
      (List.init 8 (fun nid ->
           ( nid,
             fun () ->
               for k = 0 to 7 do
                 let addr = a + (nid * 8) + k in
                 Memeff.directive (Memeff.Mark_modification addr);
                 Memeff.store addr (nid + k)
               done )));
    Proto.reconcile p;
    List.init 64 (fun i -> Proto.peek p (a + i))
  in
  let c = run Barrier.Constant in
  Alcotest.(check (list int)) "flat same" c (run Barrier.Flat);
  Alcotest.(check (list int)) "tree same" c (run (Barrier.Tree 4))

let prop_barrier_monotone_in_joins =
  QCheck.Test.make ~name:"barrier release monotone in join times" ~count:100
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 20) (int_bound 10000)) (int_bound 3))
    (fun (joins, style_idx) ->
      let style =
        match style_idx with
        | 0 -> Barrier.Constant
        | 1 -> Barrier.Flat
        | 2 -> Barrier.Tree 2
        | _ -> Barrier.Tree 4
      in
      let a = Array.of_list joins in
      let r1 = Barrier.release_time ~costs ~style ~join_times:a in
      let b = Array.map (fun t -> t + 17) a in
      let r2 = Barrier.release_time ~costs ~style ~join_times:b in
      r2 >= r1)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

(* For random disjoint write sets, all three protocols agree with a
   sequential reference. *)
let prop_protocols_agree =
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 20)
          (pair (int_bound 3) (pair (int_bound 31) (int_bound 1000))))
  in
  QCheck.Test.make ~name:"protocols agree on disjoint writes" ~count:30 gen
    (fun ops ->
      (* assign each address to the unique node that writes it last to keep
         writes conflict-free: dedupe by address keeping last *)
      let tbl = Hashtbl.create 16 in
      List.iter (fun (nid, (off, v)) -> Hashtbl.replace tbl off (nid, v)) ops;
      let ops = Hashtbl.fold (fun off (nid, v) acc -> (nid, off, v) :: acc) tbl [] in
      let run policy =
        let (m, p) = mk policy in
        let a = alloc m ~dist:Gmem.Interleaved ~nwords:32 in
        Proto.begin_parallel p;
        let by_node = Array.make 4 [] in
        List.iter (fun (nid, off, v) -> by_node.(nid) <- (off, v) :: by_node.(nid)) ops;
        run_fibers m
          (List.init 4 (fun nid ->
               ( nid,
                 fun () ->
                   List.iter
                     (fun (off, v) ->
                       Memeff.directive (Memeff.Mark_modification (a + off));
                       Memeff.store (a + off) v)
                     by_node.(nid) )));
        Proto.reconcile p;
        List.init 32 (fun i -> Proto.peek p (a + i))
      in
      let expected = Array.make 32 0 in
      List.iter (fun (_, off, v) -> expected.(off) <- v) ops;
      let expected = Array.to_list expected in
      run Policy.stache = expected
      && run Policy.lcm_scc = expected
      && run Policy.lcm_mcc = expected)

let prop_peek_agrees_with_fiber_reads =
  (* peek (the host-side extraction used by every checksum) must agree with
     what a simulated reader would observe once quiescent *)
  let gen =
    QCheck.make
      QCheck.Gen.(list_size (int_range 1 12) (pair (int_bound 3) (pair (int_bound 15) (int_bound 500))))
  in
  QCheck.Test.make ~name:"peek agrees with simulated reads" ~count:30 gen
    (fun ops ->
      List.for_all
        (fun policy ->
          let (m, p) = mk policy in
          let a = alloc m ~dist:Gmem.Interleaved ~nwords:16 in
          let by_node = Array.make 4 [] in
          let tbl = Hashtbl.create 8 in
          List.iter (fun (nid, (off, v)) -> Hashtbl.replace tbl off (nid, v)) ops;
          Hashtbl.iter (fun off (nid, v) -> by_node.(nid) <- (off, v) :: by_node.(nid)) tbl;
          (* sequential writes from each node in turn *)
          Array.iteri
            (fun nid writes ->
              if writes <> [] then
                run_fibers m
                  [ (nid, fun () -> List.iter (fun (o, v) -> Memeff.store (a + o) v) writes) ])
            by_node;
          (* a reader fiber observes every word; compare against peek *)
          let seen = Array.make 16 0 in
          run_fibers m
            [
              ( 3,
                fun () ->
                  for o = 0 to 15 do
                    seen.(o) <- Memeff.load (a + o)
                  done );
            ];
          Array.for_all Fun.id
            (Array.init 16 (fun o -> seen.(o) = Proto.peek p (a + o))))
        [ Policy.stache; Policy.lcm_scc; Policy.lcm_mcc ])

let prop_reduction_sum_matches =
  let gen =
    QCheck.make
      QCheck.Gen.(list_size (int_range 1 12) (pair (int_bound 3) (int_range 1 100)))
  in
  QCheck.Test.make ~name:"distributed sum equals sequential sum" ~count:30 gen
    (fun contributions ->
      let (m, p) = mk Policy.lcm_mcc in
      let a = alloc m ~dist:(Gmem.On 0) ~nwords:8 in
      Proto.register_reduction p ~base:a ~nwords:8 Reduction.int_sum;
      let by_node = Array.make 4 [] in
      List.iter (fun (nid, v) -> by_node.(nid) <- v :: by_node.(nid)) contributions;
      Proto.begin_parallel p;
      run_fibers m
        (List.init 4 (fun nid ->
             ( nid,
               fun () ->
                 List.iter
                   (fun v ->
                     Memeff.directive (Memeff.Mark_modification a);
                     Memeff.store a (Memeff.load a + v);
                     Memeff.directive Memeff.Flush_copies)
                   by_node.(nid) )));
      Proto.reconcile p;
      Proto.peek p a = List.fold_left (fun acc (_, v) -> acc + v) 0 contributions)

let both name f =
  [
    (name ^ " (scc)", `Quick, fun () -> f Policy.lcm_scc);
    (name ^ " (mcc)", `Quick, fun () -> f Policy.lcm_mcc);
  ]

let () =
  ignore lcm_both;
  Alcotest.run "lcm_core"
    [
      ( "stache",
        [
          ("read remote", `Quick, test_stache_read_remote);
          ("second read hits", `Quick, test_stache_second_read_hits);
          ("write then remote read", `Quick, test_stache_write_then_remote_read);
          ("write invalidates sharers", `Quick, test_stache_write_invalidates_sharers);
          ("writer migration", `Quick, test_stache_writer_migration);
          ("home write recalls", `Quick, test_stache_home_write_recalls_exclusive);
          ("eviction writeback", `Quick, test_stache_eviction_writeback);
          ("parallel phase coherent", `Quick, test_stache_parallel_phase_is_coherent);
        ] );
      ( "lcm",
        both "mark/write/reconcile" test_lcm_mark_write_reconcile
        @ both "reads see phase start" test_lcm_reads_see_phase_start
        @ both "disjoint words merge" test_lcm_disjoint_words_merge
        @ both "unmodified words keep value" test_lcm_unmodified_words_keep_value
        @ both "implicit mark" test_lcm_implicit_mark
        @ both "flush between invocations" test_lcm_flush_between_invocations
        @ both "copies invalidated after reconcile"
            test_lcm_copies_invalidated_after_reconcile
        @ both "sequential coherence after" test_lcm_sequential_coherence_after_reconcile
        @ both "marked but unwritten" test_lcm_marked_but_unwritten
        @ both "exclusive block marked by owner" test_lcm_exclusive_block_marked
        @ both "exclusive elsewhere marked" test_lcm_exclusive_elsewhere_marked
        @ both "home marks own block" test_lcm_home_node_marks_own_block
        @ [
            ("scc refetches after flush", `Quick, test_scc_refetches_after_flush);
            ("mcc restores locally", `Quick, test_mcc_restores_locally);
            ("scc/mcc same result", `Quick, test_lcm_scc_vs_mcc_same_result);
          ] );
      ( "reduction",
        both "int sum" test_reduction_int_sum
        @ both "f32 sum" test_reduction_f32_sum
        @ both "max" test_reduction_max
        @ both "multiple flushes" test_reduction_multiple_flushes
        @ both "region spans blocks" test_reduction_spanning_blocks
        @ both "f32 min/max" test_reduction_f32_minmax
        @ both "bxor" test_reduction_bxor
        @ [ ("operators", `Quick, test_reduction_ops_unit) ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_reduction_idempotent_ops_combine_like_apply;
              prop_reduction_sum_combine_recovers_contribution;
              prop_reduction_apply_identity;
              prop_reduction_apply_commutative;
            ] );
      ( "phases",
        both "empty parallel phase" test_empty_parallel_phase
        @ [
            ("epoch advances", `Quick, test_epoch_advances_per_reconcile);
            ("evict_ro cleans directory", `Quick, test_evict_ro_cleans_directory);
            ("message breakdown", `Quick, test_message_breakdown);
            ("peek/poke untouched", `Quick, test_peek_poke_untouched_address);
          ] );
      ( "detect",
        [
          ("write/write conflict", `Quick, test_conflict_detection);
          ("no false conflicts", `Quick, test_no_false_conflicts);
          ("silent store conflict", `Quick, test_silent_store_conflict_detected);
          ("read/write race", `Quick, test_race_detection);
          ("home node as reader", `Quick, test_race_detection_home_reader);
          ("off by default", `Quick, test_detection_off_by_default);
          ("strict requires detect", `Quick, test_strict_detection_requires_detect);
          ("strict catches cached reader", `Quick, test_strict_detection_catches_cached_reader);
          ("strict costs invals", `Quick, test_strict_detection_costs_invals);
        ] );
      ("stale", [ ("pin survives reconcile", `Quick, test_stale_pin_survives_reconcile) ]);
      ( "barrier",
        [
          ("constant formula", `Quick, test_barrier_constant);
          ("after last join", `Quick, test_barrier_after_last_join);
          ("tree beats flat at scale", `Quick, test_barrier_tree_beats_flat_at_scale);
          ("flat fine at small scale", `Quick, test_barrier_flat_fine_at_small_scale);
          ("validation", `Quick, test_barrier_validation);
          ("parse", `Quick, test_barrier_parse);
          ("styles agree on results", `Quick, test_barrier_styles_same_results);
          ("release ends the phase", `Quick, test_barrier_release);
          QCheck_alcotest.to_alcotest prop_barrier_monotone_in_joins;
        ] );
      ( "peek/poke",
        [
          ("poke rejects shared", `Quick, test_poke_rejects_shared_blocks);
          ("peek consults owner", `Quick, test_peek_consults_exclusive_owner);
        ] );
      ( "message flows",
        [
          ("remote read", `Quick, test_flow_remote_read);
          ("read then remote write", `Quick, test_flow_read_then_remote_write);
          ("write then remote read", `Quick, test_flow_write_then_remote_read);
          ("lcm mark/write/reconcile", `Quick, test_flow_lcm_mark_write_reconcile);
        ] );
      ( "snoop bus",
        [
          ("remote read, all members", `Quick, test_snoop_read_remote);
          ("c2c supply counts one fetch", `Quick,
           test_snoop_c2c_does_not_double_count_fetches);
          ("owned writeback races BUS_RDX", `Quick,
           test_snoop_owned_writeback_races_bus_rdx);
          ("silent upgrade only under MESI", `Quick, test_snoop_silent_upgrade);
          ("upgrade race converts to RDX", `Quick,
           test_snoop_upgrade_race_converts_to_rdx);
          ("auditor detects forged line", `Quick,
           test_snoop_auditor_detects_corruption);
        ] );
      ( "rsm space",
        [
          ("policy registry", `Quick, test_policy_registry);
          ("novel point runs", `Quick, test_rsm_novel_point_runs);
        ] );
      ( "update",
        [
          ("same results", `Quick, test_update_same_results);
          ("refreshes consumer copies", `Quick, test_update_refreshes_consumer_copies);
          ("fewer fetches than invalidate", `Quick, test_update_invalidate_fetch_difference);
          ("respects stale pins", `Quick, test_update_respects_stale_pins);
        ] );
      ( "invariants",
        [
          ("after sequential traffic", `Quick, test_invariants_after_sequential_traffic);
          ( "after lcm phases (scc)",
            `Quick,
            fun () -> test_invariants_after_lcm_phases Policy.lcm_scc );
          ( "after lcm phases (mcc)",
            `Quick,
            fun () -> test_invariants_after_lcm_phases Policy.lcm_mcc );
          ("with evictions", `Quick, test_invariants_with_capacity_evictions);
          ("lcm evictions mid-phase", `Quick, test_lcm_capacity_evictions_during_phase);
          ("clean copies reclaimed", `Quick, test_clean_copies_reclaimed_at_reconcile);
          ("auditor detects corruption", `Quick, test_invariants_catch_corruption);
          ("auditor reports in block order", `Quick,
           test_invariants_report_in_block_order);
          ("auditor reports parked retry", `Quick, test_invariants_catch_parked_retry);
          ("entry lookup rejects unallocated block", `Quick,
           test_entry_rejects_unallocated_block);
          QCheck_alcotest.to_alcotest prop_invariants_random_mixed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_protocols_agree;
            prop_reduction_sum_matches;
            prop_peek_agrees_with_fiber_reads;
          ] );
    ]
