(* Tests for the Tempest layer: tags, the machine, fibers, fault dispatch.

   These use a deliberately trivial test protocol — on any fault, fetch the
   master copy from home and install it writable — to exercise the machinery
   without the real coherence protocols (tested in test_core). *)

open Lcm_tempest

let test_tag_permissions () =
  Alcotest.(check bool) "invalid not readable" false (Tag.readable Tag.Invalid);
  Alcotest.(check bool) "ro readable" true (Tag.readable Tag.Read_only);
  Alcotest.(check bool) "ro not writable" false (Tag.writable Tag.Read_only);
  Alcotest.(check bool) "rw writable" true (Tag.writable Tag.Writable);
  Alcotest.(check bool) "lcm writable" true (Tag.writable Tag.Lcm_modified);
  Alcotest.(check string) "pp" "ReadOnly" (Tag.to_string Tag.Read_only)

(* The closure form of a protocol send: [k dnode ~now] on arrival. *)
let send m ~src ~dst ~words ~tag ~at k =
  Machine.send m ~src ~dst ~words ~tag ~at
    (fun _ dnode now _ _ -> k dnode ~now)
    Machine.no_data 0 0

(* A minimal protocol: requester sends a request to home, home replies with a
   copy of the master, requester installs it writable and retries.  Writes
   are never sent home and evicted copies are dropped silently — the test
   protocol is incoherent on purpose. *)
let test_protocol m : Machine.protocol =
  let gmem = Machine.gmem m in
  let costs = Machine.costs m in
  let fetch node b ~retry =
    let home = Lcm_mem.Gmem.home_of_block gmem b in
    let src = Machine.id node in
    send m ~src ~dst:home ~words:1 ~tag:"req" ~at:(Machine.clock node)
      (fun _home_node ~now ->
        let data = Lcm_mem.Block.copy (Machine.master m b) in
        send m ~src:home ~dst:src
          ~words:(Lcm_mem.Gmem.words_per_block gmem)
          ~tag:"rep" ~at:now
          (fun requester ~now ->
            ignore (Machine.install_line requester b ~data ~tag:Tag.Writable);
            Machine.resume requester ~now ~cost:costs.Lcm_sim.Costs.block_install
              retry))
  in
  {
    read_fault = fetch;
    write_fault = fetch;
    directive = (fun _ _ ~retry -> retry ());
    evict = (fun _ _ _ -> ());
    read_hit = None;
    home_backing = true;
  }

(* A protocol that never resumes a faulting access. *)
let never_resumes m =
  {
    (test_protocol m) with
    read_fault = (fun _ _ ~retry:_ -> ());
    write_fault = (fun _ _ ~retry:_ -> ());
  }

let mk ?capacity_blocks ?(nnodes = 4) () =
  let m =
    Machine.create ?capacity_blocks ~nnodes ~words_per_block:8
      ~topology:Lcm_net.Topology.Crossbar ()
  in
  Machine.install m (test_protocol m);
  m

(* Until [install] home backing is on and every hook fails.  After it,
   home backing is the protocol's choice: with it the home node's first
   load hits its backing line, without it that load faults like any
   other node's. *)
let test_install_contract () =
  let fresh () =
    let m =
      Machine.create ~nnodes:2 ~words_per_block:8
        ~topology:Lcm_net.Topology.Crossbar ()
    in
    (m, Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:(Lcm_mem.Gmem.On 0) ~nwords:8)
  in
  let load m nid a =
    Machine.spawn m (Machine.node m nid) (fun () -> ignore (Memeff.load a));
    Machine.run_to_quiescence m;
    Lcm_util.Stats.get (Machine.stats m) "fault.read"
  in
  let m, a = fresh () in
  Alcotest.(check int) "before install: the home's first load hits" 0
    (load m 0 a);
  Alcotest.check_raises "before install: a miss fails"
    (Failure "Machine: no protocol handler registered")
    (fun () -> ignore (load m 1 a));
  List.iter
    (fun (home_backing, faults) ->
      let m, a = fresh () in
      Machine.install m { (test_protocol m) with home_backing };
      Alcotest.(check int)
        (Printf.sprintf "home_backing %b: the home's first load, fault.read"
           home_backing)
        faults (load m 0 a))
    [ (true, 0); (false, 1) ]

let test_fiber_completes_without_memory () =
  let m = mk () in
  let done_ = ref false in
  Machine.spawn m (Machine.node m 0) (fun () ->
      Memeff.work 100;
      done_ := true);
  Machine.run_to_quiescence m;
  Alcotest.(check bool) "done" true !done_;
  Alcotest.(check int) "work charged" 100 (Machine.clock (Machine.node m 0));
  Alcotest.(check int) "no active fibers" 0 (Machine.active_fibers m)

(* Compute time is charged to a machine fiber's clock; outside one there
   is nothing to charge. *)
let test_work_outside_fiber () =
  Alcotest.check_raises "work outside a machine fiber"
    (Invalid_argument "Memeff.work: outside a machine fiber") (fun () ->
      Memeff.work 1)

let test_local_home_access_hits () =
  let m = mk () in
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 0) ~nwords:8 in
  let seen = ref (-1) in
  Machine.spawn m (Machine.node m 0) (fun () ->
      Memeff.store a 42;
      seen := Memeff.load a);
  Machine.run_to_quiescence m;
  Alcotest.(check int) "readback" 42 !seen;
  Alcotest.(check int) "no faults" 0
    (Lcm_util.Stats.get (Machine.stats m) "fault.read"
    + Lcm_util.Stats.get (Machine.stats m) "fault.write");
  (* Home line aliases the master copy. *)
  let b = Lcm_mem.Gmem.block_of_addr gmem a in
  Alcotest.(check int) "master updated" 42 (Machine.master m b).(0)

let test_master_rejects_unallocated_block () =
  let m = mk () in
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 0) ~nwords:16 in
  (* 2 allocated blocks (wpb = 8): a corrupt block number must fail with
     a typed message naming the block, not mint a ghost master copy. *)
  ignore (Machine.master m (Lcm_mem.Gmem.block_of_addr gmem a));
  Alcotest.check_raises "unallocated block named"
    (Failure "Machine.master: block 7 is not an allocated block (2 blocks allocated)")
    (fun () -> ignore (Machine.master m 7));
  Alcotest.check_raises "negative block named"
    (Failure "Machine.master: block -1 is not an allocated block (2 blocks allocated)")
    (fun () -> ignore (Machine.master m (-1)))

let test_remote_access_faults_and_suspends () =
  let m = mk () in
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 1) ~nwords:8 in
  (Machine.master m (Lcm_mem.Gmem.block_of_addr gmem a)).(2) <- 7;
  let seen = ref (-1) in
  Machine.spawn m (Machine.node m 0) (fun () -> seen := Memeff.load (a + 2));
  Alcotest.(check int) "suspended" 1 (Machine.active_fibers m);
  Machine.run_to_quiescence m;
  Alcotest.(check int) "value fetched" 7 !seen;
  Alcotest.(check int) "one read fault" 1
    (Lcm_util.Stats.get (Machine.stats m) "fault.read");
  Alcotest.(check bool) "time advanced past trap+network" true
    (Machine.clock (Machine.node m 0) > 100)

(* One fault path: a load, a store and an rmw that miss each count one
   fault of their kind, trace one Fault naming the access, and charge the
   trap once, before the protocol's fault hook runs. *)
let test_one_fault_path () =
  List.iter
    (fun (what, kind, access) ->
      let m = mk () in
      Machine.enable_trace m;
      let gmem = Machine.gmem m in
      let base = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 1) ~nwords:8 in
      let addr = base + 3 in
      let b = Lcm_mem.Gmem.block_of_addr gmem addr in
      let hook_clocks = ref [] in
      let hook hook_kind node fb ~retry =
        hook_clocks := (hook_kind, Machine.clock node, fb) :: !hook_clocks;
        ignore
          (Machine.install_line node b
             ~data:(Lcm_mem.Block.copy (Machine.master m b))
             ~tag:Tag.Writable);
        retry ()
      in
      Machine.install m
        {
          (test_protocol m) with
          read_fault = hook Lcm_sim.Trace.Read;
          write_fault = hook Lcm_sim.Trace.Write;
        };
      Machine.spawn m (Machine.node m 0) (fun () -> access addr);
      Machine.run_to_quiescence m;
      let count name = Lcm_util.Stats.get (Machine.stats m) name in
      Alcotest.(check (pair int int)) (what ^ ": fault.read, fault.write")
        (if kind = Lcm_sim.Trace.Read then (1, 0) else (0, 1))
        (count "fault.read", count "fault.write");
      let faults =
        List.filter_map
          (function
            | time, Lcm_sim.Trace.Fault { kind; node; addr; block } ->
              Some (time, kind, [ node; addr; block ])
            | _ -> None)
          (Machine.trace_events m)
      in
      match (faults, !hook_clocks) with
      | [ (time, traced_kind, where) ], [ (hook_kind, clock, fb) ] ->
        Alcotest.(check bool) (what ^ ": traced kind") true (traced_kind = kind);
        Alcotest.(check (list int)) (what ^ ": traced node, addr, block")
          [ 0; addr; b ] where;
        Alcotest.(check bool) (what ^ ": hook of its kind") true
          (hook_kind = kind);
        Alcotest.(check int) (what ^ ": hook given the block") b fb;
        Alcotest.(check int) (what ^ ": one trap charged before the hook")
          (time + (Machine.costs m).Lcm_sim.Costs.fault_trap)
          clock
      | _ ->
        Alcotest.failf "%s: %d Fault events, %d hook calls, want 1 and 1" what
          (List.length faults) (List.length !hook_clocks))
    [
      ("load", Lcm_sim.Trace.Read, fun a -> ignore (Memeff.load a));
      ("store", Lcm_sim.Trace.Write, fun a -> Memeff.store a 5);
      ("rmw", Lcm_sim.Trace.Write, fun a -> ignore (Memeff.rmw a succ));
    ]

let test_second_access_hits () =
  let m = mk () in
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 1) ~nwords:8 in
  Machine.spawn m (Machine.node m 0) (fun () ->
      ignore (Memeff.load a);
      ignore (Memeff.load (a + 1)));
  Machine.run_to_quiescence m;
  Alcotest.(check int) "only one fault for two loads" 1
    (Lcm_util.Stats.get (Machine.stats m) "fault.read")

let test_store_sets_dirty_mask_on_lcm_line () =
  let m = mk () in
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 0) ~nwords:8 in
  let b = Lcm_mem.Gmem.block_of_addr gmem a in
  let node = Machine.node m 1 in
  ignore
    (Machine.install_line node b
       ~data:(Lcm_mem.Block.make ~words:8)
       ~tag:Tag.Lcm_modified);
  Machine.spawn m node (fun () ->
      Memeff.store (a + 3) 9;
      Memeff.store (a + 5) 9);
  Machine.run_to_quiescence m;
  match Machine.find_line node b with
  | None -> Alcotest.fail "line vanished"
  | Some line ->
    Alcotest.(check (list int)) "dirty words" [ 3; 5 ]
      (Lcm_util.Mask.to_list line.Machine.dirty)

let test_plain_writable_store_does_not_track_dirty () =
  let m = mk () in
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 0) ~nwords:8 in
  Machine.spawn m (Machine.node m 0) (fun () -> Memeff.store a 1);
  Machine.run_to_quiescence m;
  let b = Lcm_mem.Gmem.block_of_addr gmem a in
  match Machine.find_line (Machine.node m 0) b with
  | None -> Alcotest.fail "no line"
  | Some line ->
    Alcotest.(check (list int)) "no dirty bits" []
      (Lcm_util.Mask.to_list line.Machine.dirty)

let test_many_fibers_interleave () =
  let m = mk () in
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:Lcm_mem.Gmem.Interleaved ~nwords:(8 * 8) in
  let total = ref 0 in
  for i = 0 to 3 do
    Machine.spawn m (Machine.node m i) (fun () ->
        (* every node touches every block *)
        for blk = 0 to 7 do
          ignore (Memeff.load (a + (8 * blk)))
        done;
        incr total)
  done;
  Machine.run_to_quiescence m;
  Alcotest.(check int) "all fibers finished" 4 !total

let test_directive_dispatch () =
  let m = mk () in
  let hits = ref [] in
  Machine.install m
    {
      (test_protocol m) with
      directive =
        (fun node d ~retry ->
          (match d with
          | Memeff.Mark_modification a ->
            hits := ("mark", Machine.id node, a) :: !hits
          | Memeff.Flush_copies ->
            hits := ("flush", Machine.id node, -1) :: !hits
          | _ -> ());
          retry ());
    };
  Machine.spawn m (Machine.node m 2) (fun () ->
      Memeff.directive (Memeff.Mark_modification 40);
      Memeff.directive Memeff.Flush_copies);
  Machine.run_to_quiescence m;
  Alcotest.(check int) "two directives" 2 (List.length !hits);
  Alcotest.(check bool) "mark seen" true (List.mem ("mark", 2, 40) !hits)

let test_capacity_eviction () =
  let m = mk ~capacity_blocks:2 () in
  let evicted = ref [] in
  Machine.install m
    {
      (test_protocol m) with
      evict = (fun _node b _line -> evicted := b :: !evicted);
    };
  let gmem = Machine.gmem m in
  (* all blocks homed on node 1; node 0 caches them under capacity 2 *)
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 1) ~nwords:(8 * 4) in
  Machine.spawn m (Machine.node m 0) (fun () ->
      for blk = 0 to 3 do
        ignore (Memeff.load (a + (8 * blk)))
      done);
  Machine.run_to_quiescence m;
  Alcotest.(check int) "two evictions" 2 (List.length !evicted);
  Alcotest.(check int) "lru order" 0 (List.nth (List.rev !evicted) 0);
  Alcotest.(check int) "eviction stat" 2
    (Lcm_util.Stats.get (Machine.stats m) "cache.evictions")

let test_home_lines_not_evicted () =
  let m = mk ~capacity_blocks:1 () in
  let gmem = Machine.gmem m in
  let local = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 0) ~nwords:(8 * 3) in
  Machine.spawn m (Machine.node m 0) (fun () ->
      for blk = 0 to 2 do
        Memeff.store (local + (8 * blk)) blk
      done;
      (* all three home blocks must still hit *)
      for blk = 0 to 2 do
        ignore (Memeff.load (local + (8 * blk)))
      done);
  Machine.run_to_quiescence m;
  Alcotest.(check int) "no faults on home data" 0
    (Lcm_util.Stats.get (Machine.stats m) "fault.read")

let test_deadlock_detected () =
  let m =
    Machine.create ~nnodes:2 ~words_per_block:8 ~topology:Lcm_net.Topology.Crossbar ()
  in
  Machine.install m (never_resumes m);
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 1) ~nwords:8 in
  Machine.spawn m (Machine.node m 0) (fun () -> ignore (Memeff.load a));
  Alcotest.(check bool) "deadlock reported" true
    (try
       Machine.run_to_quiescence m;
       false
     with Failure _ -> true)

let test_rmw_atomic_local () =
  let m = mk () in
  let a = Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:(Lcm_mem.Gmem.On 0) ~nwords:8 in
  let old = ref (-1) in
  Machine.spawn m (Machine.node m 0) (fun () ->
      Memeff.store a 10;
      old := Memeff.rmw a (fun v -> v + 5));
  Machine.run_to_quiescence m;
  Alcotest.(check int) "returns old value" 10 !old;
  let b = Lcm_mem.Gmem.block_of_addr (Machine.gmem m) a in
  Alcotest.(check int) "applied" 15 (Machine.master m b).(0)

let test_rmw_faults_when_not_writable () =
  let m = mk () in
  let a = Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:(Lcm_mem.Gmem.On 1) ~nwords:8 in
  Machine.spawn m (Machine.node m 0) (fun () -> ignore (Memeff.rmw a (fun v -> v + 1)));
  Machine.run_to_quiescence m;
  Alcotest.(check int) "write fault raised" 1
    (Lcm_util.Stats.get (Machine.stats m) "fault.write")

let test_rmw_sets_dirty_on_lcm_line () =
  let m = mk () in
  let gmem = Machine.gmem m in
  let a = Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On 0) ~nwords:8 in
  let b = Lcm_mem.Gmem.block_of_addr gmem a in
  let node = Machine.node m 1 in
  ignore
    (Machine.install_line node b ~data:(Lcm_mem.Block.make ~words:8)
       ~tag:Tag.Lcm_modified);
  Machine.spawn m node (fun () -> ignore (Memeff.rmw (a + 2) (fun v -> v + 1)));
  Machine.run_to_quiescence m;
  match Machine.find_line node b with
  | Some line ->
    Alcotest.(check (list int)) "dirty bit" [ 2 ]
      (Lcm_util.Mask.to_list line.Machine.dirty)
  | None -> Alcotest.fail "line vanished"

let test_yield_interleaves_by_time () =
  (* two fibers that only yield and work: events interleave in simulated
     time order, so the log alternates according to their work sizes *)
  let m = mk () in
  let log = ref [] in
  let fiber name work =
    fun () ->
      for _ = 1 to 3 do
        Memeff.yield ();
        Memeff.work work;
        log := name :: !log
      done
  in
  Machine.spawn m (Machine.node m 0) (fiber "slow" 100);
  Machine.spawn m (Machine.node m 1) (fiber "fast" 10);
  Machine.run_to_quiescence m;
  (* deterministic: slow's 1st step runs at its t=0 resumption (FIFO before
     fast's), then fast's three steps (t=10,20,30) all precede slow's
     later steps at t=100 and t=200 *)
  Alcotest.(check (list string)) "time-ordered interleave"
    [ "slow"; "fast"; "fast"; "fast"; "slow"; "slow" ]
    (List.rev !log)

let test_epoch_and_phase () =
  let m = mk () in
  Alcotest.(check int) "epoch 0" 0 (Machine.epoch m);
  Machine.incr_epoch m;
  Alcotest.(check int) "epoch 1" 1 (Machine.epoch m);
  Alcotest.(check bool) "sequential" true (Machine.phase m = `Sequential);
  Machine.set_phase m `Parallel;
  Alcotest.(check bool) "parallel" true (Machine.phase m = `Parallel)

let test_clock_utilities () =
  let m = mk () in
  Machine.advance_clock (Machine.node m 1) 500;
  Machine.advance_clock (Machine.node m 1) 20;
  Alcotest.(check int) "max clock" 520 (Machine.max_clock m);
  Machine.set_all_clocks m 1000;
  Alcotest.(check int) "sync" 1000 (Machine.clock (Machine.node m 3))

let test_handler_occupancy_serializes () =
  (* two messages arriving together at one node: the second handler's
     completion time reflects the first's occupancy *)
  let m = mk () in
  let times = ref [] in
  send m ~src:0 ~dst:2 ~words:1 ~tag:"a" ~at:0 (fun _ ~now ->
      times := now :: !times);
  send m ~src:1 ~dst:2 ~words:1 ~tag:"b" ~at:0 (fun _ ~now ->
      times := now :: !times);
  Machine.run_to_quiescence m;
  match List.rev !times with
  | [ t1; t2 ] ->
    let occ = (Machine.costs m).Lcm_sim.Costs.handler_occupancy in
    Alcotest.(check bool)
      (Printf.sprintf "serialized (%d then %d)" t1 t2)
      true
      (t2 >= t1 + occ)
  | _ -> Alcotest.fail "expected two deliveries"

let test_resume_clock_semantics () =
  let m = mk () in
  let node = Machine.node m 1 in
  Machine.advance_clock node 50;
  Machine.resume node ~now:200 ~cost:7 (fun () -> ());
  Alcotest.(check int) "clock jumps to event time + cost" 207 (Machine.clock node);
  Machine.resume node ~now:100 ~cost:3 (fun () -> ());
  (* an old event cannot move the clock backwards *)
  Alcotest.(check int) "monotone" 210 (Machine.clock node)

let test_park_and_wake () =
  (* the first access parked on a block counts one fetch by the block's
     home and asks for the request; later ones ride it and count nothing;
     wake resumes them all, oldest first, after the block-install cost *)
  let m = mk () in
  let gmem = Machine.gmem m in
  let stat name = Lcm_util.Stats.get (Machine.stats m) name in
  let block_on home =
    Lcm_mem.Gmem.block_of_addr gmem
      (Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On home) ~nwords:8)
  in
  let local = block_on 1 and remote = block_on 2 in
  let node = Machine.node m 1 in
  let log = ref [] in
  let retry name () = log := (name, Machine.clock node) :: !log in
  Alcotest.(check bool) "first local park" true (Machine.park node local (retry "a"));
  Alcotest.(check (pair int int)) "one local fetch" (1, 0)
    (stat "proto.fetch_local", stat "proto.fetch_remote");
  Alcotest.(check bool) "second park" false (Machine.park node local (retry "b"));
  Alcotest.(check bool) "third park" false (Machine.park node local (retry "c"));
  Alcotest.(check bool) "first remote park" true
    (Machine.park node remote (retry "r"));
  Alcotest.(check (pair int int)) "later parks count nothing" (1, 1)
    (stat "proto.fetch_local", stat "proto.fetch_remote");
  Alcotest.(check (list int)) "parked, sorted"
    (List.sort compare [ local; remote ])
    (Machine.parked node);
  Machine.advance_clock node 50;
  Machine.wake node local ~now:100;
  let at = 100 + (Machine.costs m).Lcm_sim.Costs.block_install in
  Alcotest.(check (list (pair string int))) "park order, after install"
    [ ("a", at); ("b", at); ("c", at) ]
    (List.rev !log);
  Alcotest.(check (list int)) "only remote still parked" [ remote ]
    (Machine.parked node);
  Machine.wake node remote ~now:0;
  Alcotest.(check (pair string int)) "an old event cannot rewind the clock"
    ("r", at + (Machine.costs m).Lcm_sim.Costs.block_install)
    (List.hd !log);
  Alcotest.(check (list int)) "none parked" [] (Machine.parked node)

let test_hw_cache_charges_misses () =
  let run hw =
    let m =
      Machine.create ?hw_cache_blocks:hw ~nnodes:2 ~words_per_block:8
        ~topology:Lcm_net.Topology.Crossbar ()
    in
    Machine.install m (test_protocol m);
    let a = Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:(Lcm_mem.Gmem.On 0) ~nwords:(8 * 4) in
    Machine.spawn m (Machine.node m 0) (fun () ->
        (* two sweeps over 4 blocks: all hit node memory, but a 2-slot
           direct-mapped hw cache misses every block on both sweeps *)
        for sweep = 1 to 2 do
          ignore sweep;
          for blk = 0 to 3 do
            ignore (Memeff.load (a + (8 * blk)))
          done
        done);
    Machine.run_to_quiescence m;
    ( Machine.clock (Machine.node m 0),
      Lcm_util.Stats.get (Machine.stats m) "cache.hw_misses" )
  in
  let base_clock, base_misses = run None in
  let small_clock, small_misses = run (Some 2) in
  let big_clock, big_misses = run (Some 64) in
  Alcotest.(check int) "no hw cache: no misses" 0 base_misses;
  Alcotest.(check int) "2-slot: 8 conflict misses" 8 small_misses;
  Alcotest.(check int) "64-slot: 4 cold misses" 4 big_misses;
  Alcotest.(check bool) "misses cost cycles" true (small_clock > base_clock);
  Alcotest.(check bool) "bigger cache cheaper" true (big_clock < small_clock)

let test_hw_cache_validation () =
  Alcotest.(check bool) "zero rejected" true
    (try
       ignore
         (Machine.create ~hw_cache_blocks:0 ~nnodes:2 ~words_per_block:8 ());
       false
     with Invalid_argument _ -> true)

let test_capacity_validation () =
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Machine.create: capacity_blocks must be positive")
    (fun () ->
      ignore (Machine.create ~capacity_blocks:0 ~nnodes:2 ~words_per_block:8 ()))

let test_trace_ring () =
  let tr = Lcm_sim.Trace.create ~capacity:3 in
  List.iteri (fun i e -> Lcm_sim.Trace.record tr ~time:(10 * i) e)
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check int) "recorded total" 4 (Lcm_sim.Trace.recorded tr);
  Alcotest.(check (list string)) "keeps newest, oldest first"
    [ "[t=10] b"; "[t=20] c"; "[t=30] d" ]
    (Lcm_sim.Trace.dump (Lcm_sim.Trace.events tr));
  Alcotest.(check bool) "bad capacity" true
    (try
       ignore (Lcm_sim.Trace.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

let test_machine_trace_captures_events () =
  let m = mk () in
  Machine.enable_trace ~capacity:16 m;
  let a = Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:(Lcm_mem.Gmem.On 1) ~nwords:8 in
  Machine.spawn m (Machine.node m 0) (fun () -> ignore (Memeff.load a));
  Machine.run_to_quiescence m;
  let events = Lcm_sim.Trace.dump (Machine.trace_events m) in
  Alcotest.(check bool) "fault recorded" true
    (List.exists (fun e -> String.length e > 0 &&
        (let has sub =
           let nl = String.length sub and hl = String.length e in
           let rec go i = i + nl <= hl && (String.sub e i nl = sub || go (i + 1)) in
           go 0
         in
         has "read fault")) events);
  Alcotest.(check bool) "message recorded" true
    (List.exists (fun e ->
         let has sub =
           let nl = String.length sub and hl = String.length e in
           let rec go i = i + nl <= hl && (String.sub e i nl = sub || go (i + 1)) in
           go 0
         in
         has "msg req") events)

let test_deadlock_reports_trace () =
  let m =
    Machine.create ~nnodes:2 ~words_per_block:8 ~topology:Lcm_net.Topology.Crossbar ()
  in
  Machine.enable_trace m;
  Machine.install m (never_resumes m);
  let a = Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:(Lcm_mem.Gmem.On 1) ~nwords:8 in
  Machine.spawn m (Machine.node m 0) (fun () -> ignore (Memeff.load a));
  Alcotest.(check bool) "failure message has events" true
    (try
       Machine.run_to_quiescence m;
       false
     with Failure msg ->
       let has sub =
         let nl = String.length sub and hl = String.length msg in
         let rec go i = i + nl <= hl && (String.sub msg i nl = sub || go (i + 1)) in
         go 0
       in
       has "last events" && has "read fault")

let () =
  Alcotest.run "lcm_tempest"
    [
      ("tag", [ ("permissions", `Quick, test_tag_permissions) ]);
      ( "machine",
        [
          ("install contract", `Quick, test_install_contract);
          ("fiber completes", `Quick, test_fiber_completes_without_memory);
          ("home access hits", `Quick, test_local_home_access_hits);
          ("remote faults+suspends", `Quick, test_remote_access_faults_and_suspends);
          ("master rejects unallocated block", `Quick,
           test_master_rejects_unallocated_block);
          ("one fault path", `Quick, test_one_fault_path);
          ("second access hits", `Quick, test_second_access_hits);
          ("lcm dirty mask", `Quick, test_store_sets_dirty_mask_on_lcm_line);
          ("plain store untracked", `Quick, test_plain_writable_store_does_not_track_dirty);
          ("fibers interleave", `Quick, test_many_fibers_interleave);
          ("directive dispatch", `Quick, test_directive_dispatch);
          ("capacity eviction", `Quick, test_capacity_eviction);
          ("home lines pinned", `Quick, test_home_lines_not_evicted);
          ("deadlock detected", `Quick, test_deadlock_detected);
          ("rmw atomic local", `Quick, test_rmw_atomic_local);
          ("rmw faults", `Quick, test_rmw_faults_when_not_writable);
          ("rmw dirty bit", `Quick, test_rmw_sets_dirty_on_lcm_line);
          ("yield interleaves by time", `Quick, test_yield_interleaves_by_time);
          ("epoch and phase", `Quick, test_epoch_and_phase);
          ("clock utilities", `Quick, test_clock_utilities);
          ("handler occupancy", `Quick, test_handler_occupancy_serializes);
          ("resume clock semantics", `Quick, test_resume_clock_semantics);
          ("park and wake", `Quick, test_park_and_wake);
          ("hw cache misses", `Quick, test_hw_cache_charges_misses);
          ("hw cache validation", `Quick, test_hw_cache_validation);
          ("capacity validation", `Quick, test_capacity_validation);
          ("trace ring", `Quick, test_trace_ring);
          ("machine trace", `Quick, test_machine_trace_captures_events);
          ("deadlock reports trace", `Quick, test_deadlock_reports_trace);
          ("work outside a fiber", `Quick, test_work_outside_fiber);
        ] );
    ]
