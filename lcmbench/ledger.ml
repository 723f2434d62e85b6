(* Per-operation host cost of each layer's unit operation, timed through
   public APIs in a child process of its own.  Every operation is timed in
   batches of k = base..8*base and fitted by least squares through the
   origin (ns/op and r2).  Cache misses and fiber yields suspend the
   calling fiber, so they cannot be re-run synchronously by bechamel's
   sampler; one batch sampler times every operation alike instead.

   Operations overlap — a network send schedules an engine event, a
   remote miss sends two messages — so each cost is reported with the
   lower layers' share subtracted, and a workload's estimate is the sum
   over layers of its count of that layer's operation times ns/op. *)

module Engine = Lcm_sim.Engine
module Heap = Lcm_util.Heap
module Stats = Lcm_util.Stats
module Network = Lcm_net.Network
module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff
module Config = Lcm_harness.Config
module Runtime = Lcm_cstar.Runtime

let elapsed f =
  let t0 = Probe.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Probe.now_ns ()) t0)

(* Operations one [fit] runs: a warm-up batch of [base], then [reps]
   rounds of k = base..8*base. *)
let ops ~reps ~base = base * (1 + (36 * reps))

(* [batch k] runs k operations and returns the nanoseconds they took.
   Every batch starts from a fully collected heap, so collection work the
   previous batch left owing is not charged to it. *)
let fit ~reps ~base batch =
  ignore (batch base);
  let samples =
    List.concat_map
      (fun _ -> List.init 8 (fun i -> float_of_int ((i + 1) * base)))
      (List.init reps Fun.id)
    |> List.map (fun k ->
           Gc.full_major ();
           (k, batch (truncate k)))
  in
  Summary.ols (List.map fst samples) (List.map snd samples)

(* Event-queue add+pop holding [depth] pending events; each new key lands a
   pseudo-random delay after the one just popped, as simulated events do. *)
let heap_batch depth k =
  let h = Heap.create ~hint:(depth + 1) () in
  let rnd = ref 12345 in
  let delay () =
    rnd := ((!rnd * 1103515245) + 12345) land 0x3fffffff;
    1 + ((!rnd lsr 8) mod (2 * depth))
  in
  for _ = 1 to depth do
    Heap.add h ~key:(delay ()) ()
  done;
  elapsed (fun () ->
      for _ = 1 to k do
        let t = Heap.top_key h in
        Heap.pop_exn h;
        Heap.add h ~key:(t + delay ()) ()
      done)

let noop () _ _ = ()

let engine_batch k =
  let e = Engine.create () in
  elapsed (fun () ->
      for _ = 1 to k do
        Engine.schedule_call e ~at:(Engine.now e) noop () 0 0;
        ignore (Engine.step e)
      done)

(* One message between two nodes, delivered before the next is sent; under
   a fault plan with no faults every send also pays its envelope, ack and
   timer.  Also returns the engine events the sends ran. *)
let network ?faults () =
  let e = Engine.create () in
  let n =
    Network.create ?faults ~engine:e ~costs:Lcm_sim.Costs.default ~stats:(Stats.create ())
      ~topology:Config.default_machine.Config.topology ~nnodes:2 ()
  in
  let send = if faults = None then Network.send_call else Network.send_reliable_call in
  let batch k =
    elapsed (fun () ->
        for _ = 1 to k do
          send n ~src:0 ~dst:1 ~words:1 ~at:(Engine.now e) noop () 0;
          Engine.run e
        done)
  in
  (batch, fun () -> float_of_int (Engine.events_processed e))

let runtime ?(system = Config.stache) nnodes =
  Config.make_runtime { Config.default_machine with Config.nnodes } system
    ~schedule:Lcm_cstar.Schedule.Static

let machine nnodes = Runtime.machine (runtime nnodes)
let home_block m = Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:(Lcm_mem.Gmem.On 0) ~nwords:8

(* Loads that hit node 0's own home block, inside a fiber. *)
let hit () =
  let m = machine 1 in
  let addr = home_block m in
  fun k ->
    let t = ref 0. in
    Machine.spawn m (Machine.node m 0) (fun () ->
        ignore (Memeff.load addr);
        t := elapsed (fun () -> for _ = 1 to k do ignore (Memeff.load addr) done));
    Machine.run_to_quiescence m;
    !t

(* Fiber yields: each suspends through one engine event and resumes. *)
let yield () =
  let m = machine 1 in
  fun k ->
    elapsed (fun () ->
        Machine.spawn m (Machine.node m 0) (fun () -> for _ = 1 to k do Memeff.yield () done);
        Machine.run_to_quiescence m)

(* What every marked write of an LCM parallel invocation costs: a mark
   directive, the store, and a flush directive merging the block at its
   home (node 0's own block here, as for a chunk interior). *)
let flush () =
  let rt = runtime ~system:Config.lcm_mcc 1 in
  let addr = home_block (Runtime.machine rt) in
  fun k ->
    let t = ref 0. in
    Runtime.parallel_apply rt ~n:1 (fun _ ->
        t :=
          elapsed (fun () ->
              for i = 1 to k do
                Memeff.directive (Memeff.Mark_modification addr);
                Memeff.store addr i;
                Memeff.directive Memeff.Flush_copies
              done));
    !t

(* Stache read misses from node 0 to fresh blocks homed on node 1.  Also
   returns the engine events and messages per miss. *)
let miss ~blocks =
  let m = machine 2 in
  let wpb = Config.default_machine.Config.words_per_block in
  let base = Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:(Lcm_mem.Gmem.On 1) ~nwords:(blocks * wpb) in
  let next = ref 0 in
  let batch k =
    let first = !next in
    next := first + k;
    elapsed (fun () ->
        Machine.spawn m (Machine.node m 0) (fun () ->
            for b = first to first + k - 1 do
              ignore (Memeff.load (base + (b * wpb)))
            done);
        Machine.run_to_quiescence m)
  in
  let per_miss () =
    let n = float_of_int !next in
    ( float_of_int (Engine.events_processed (Machine.engine m)) /. n,
      float_of_int (Stats.get (Machine.stats m) "net.msgs") /. n )
  in
  (batch, per_miss)

(* The ledger's costs as (per-layer metric name, ns/op, r2). *)
let measure ~smoke =
  let reps, scale = if smoke then (1, 1) else (6, 10) in
  let fit base batch = fit ~reps ~base:(base * scale) batch in
  let engine_ns, engine_r2 = fit 2000 engine_batch in
  let d32, d32_r2 = fit 2000 (heap_batch 32) in
  let d4k, d4k_r2 = fit 2000 (heap_batch 4096) in
  let per_send ?faults () =
    let batch, events = network ?faults () in
    let ns, r2 = fit 200 batch in
    let sends = float_of_int (ops ~reps ~base:(200 * scale)) in
    (ns -. (events () /. sends *. engine_ns), r2)
  in
  let send_ns, send_r2 = per_send () in
  let rel_ns, rel_r2 = per_send ~faults:(Lcm_net.Faults.make ~seed:1 ()) () in
  let hit_ns, hit_r2 = fit 2000 (hit ()) in
  let yield_ns, yield_r2 = fit 200 (yield ()) in
  let miss_batch, per_miss = miss ~blocks:(ops ~reps ~base:(20 * scale)) in
  let miss_ns, miss_r2 = fit 20 miss_batch in
  let flush_ns, flush_r2 = fit 200 (flush ()) in
  let ev_per_miss, msgs_per_miss = per_miss () in
  [
    ("engine.ns_per_event", engine_ns, engine_r2);
    ("heap.ns_per_op.d32", d32, d32_r2);
    ("heap.ns_per_op.d4k", d4k, d4k_r2);
    ("net.ns_per_send", send_ns, send_r2);
    ("net.ns_per_send_reliable", rel_ns, rel_r2);
    ("tempest.ns_per_hit", hit_ns, hit_r2);
    ("tempest.ns_per_yield", yield_ns -. engine_ns, yield_r2);
    ( "proto.ns_per_remote_miss",
      miss_ns -. (ev_per_miss *. engine_ns) -. (msgs_per_miss *. send_ns),
      miss_r2 );
    ("lcm.ns_per_flush", flush_ns -. hit_ns, flush_r2);
  ]
