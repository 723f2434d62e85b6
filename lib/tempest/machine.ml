module Trace = Lcm_sim.Trace
module Stats = Lcm_util.Stats
module Itbl = Lcm_util.Itbl

type line = {
  mutable data : Lcm_mem.Block.t;
  mutable tag : Tag.t;
  mutable dirty : Lcm_util.Mask.t;
  mutable local_clean : Lcm_mem.Block.t option;
  mutable last_use : int;
  is_home_line : bool;
}

(* A finite per-node cache: its bound and a lazy-deletion min-heap of
   (last_use stamp, block) for eviction.  Entries go stale when a line is
   re-touched or dropped; [evict_one] skips them.  Stamps are unique per
   node, so the surviving minimum is the least recently used line. *)
type lru = { capacity : int; heap : int Lcm_util.Heap.t }

type node = {
  node_id : int;
  machine : t;
  mutable node_clock : int;
  mutable handler_free : int;
  lines : line Itbl.t;
  mutable access_stamp : int;
  la_blocks : int array;
      (* small direct-mapped lookaside in front of [lines]: slot
         [b land la_mask] holds the block of the most recent successful
         lookup mapping there (-1 = empty) and [la_lines] its result.
         Memory accesses are highly repetitive over a handful of blocks
         (a stencil cell touches three), so most hits skip the hash. *)
  la_lines : line option array;
  lru : lru option;  (* present iff the machine has a finite capacity *)
  hw_cache : int array option;
      (* optional direct-mapped hardware cache above node memory: slot i
         holds the block number cached there (-1 = empty); a mismatch adds
         the hw-miss penalty to the access *)
  parked : (unit -> unit) list Itbl.t;
      (* block -> retries of the accesses waiting for it, newest first *)
  self : node option;
      (* [Some] of this node, allocated once with it: what [set_cur]
         stores in the domain's current-node slot, so installing a node
         allocates nothing *)
  (* Preallocated effect-handler arms + the scratch slots they read.
     [Effect.Deep.match_with]'s [effc] must return [Some handler] per
     perform; building that pair fresh each time made the effect
     dispatch itself the simulator's biggest allocator.  Instead the
     effect's payload is parked in a scratch slot and a per-node arm —
     one [Some closure] for the node's whole lifetime, built with the
     node — picks it up.  Safe because the arm consumes its scratch
     synchronously, before any other effect on this domain can perform:
     the handler runs the arm immediately after [effc] returns it. *)
  mutable sc_addr : int;
  mutable sc_val : int;
  mutable sc_rmw : int -> int;
  mutable sc_units : int;
  mutable sc_dir : Memeff.dir;
  arm_load : ((int, unit) Effect.Deep.continuation -> unit) option;
  arm_store : ((unit, unit) Effect.Deep.continuation -> unit) option;
  arm_rmw : ((int, unit) Effect.Deep.continuation -> unit) option;
  arm_work : ((unit, unit) Effect.Deep.continuation -> unit) option;
  arm_yield : ((unit, unit) Effect.Deep.continuation -> unit) option;
  arm_directive : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

and t = {
  m_engine : Lcm_sim.Engine.t;
  m_network : Lcm_net.Network.t;
  m_gmem : Lcm_mem.Gmem.t;
  m_costs : Lcm_sim.Costs.t;
  m_stats : Lcm_util.Stats.t;
  m_rng : Lcm_util.Rng.t;
  mutable m_nodes : node array;  (* filled right after creation *)
  masters : Lcm_mem.Block.t Itbl.t;
  (* pre-resolved handles for every counter the access path can touch *)
  h_hw_misses : Stats.Handle.counter;
  h_evictions : Stats.Handle.counter;
  h_fault_read : Stats.Handle.counter;
  h_fault_write : Stats.Handle.counter;
  h_live_clean : Stats.Handle.counter;
  h_handler_runs : Stats.Handle.counter;
  h_fetch_local : Stats.Handle.counter;
  h_fetch_remote : Stats.Handle.counter;
  mutable home_backing : bool;
      (* install the home node's master-aliasing backing line on first
         master creation (directory protocols); bus protocols disable
         this so home nodes take the bus like everyone else *)
  mutable m_epoch : int;
  mutable m_phase : [ `Sequential | `Parallel ];
  mutable m_active_fibers : int;
  mutable read_fault : node -> addr:int -> retry:(unit -> unit) -> unit;
  mutable write_fault : node -> addr:int -> retry:(unit -> unit) -> unit;
  mutable on_directive : node -> Memeff.dir -> retry:(unit -> unit) -> unit;
  mutable on_evict : node -> int -> line -> unit;
  mutable on_read_hit : (node -> int -> line -> unit) option;
  m_yield_h : (unit, unit) Effect.Deep.continuation -> int -> int -> unit;
      (* preallocated engine-event handler for yield resumption:
         payload = the fiber's continuation, i1 = resume time, i2 = node
         id (see Engine.schedule_call) *)
  m_recv_h : msg_cell -> int -> int -> unit;
      (* preallocated network delivery handler for protocol messages:
         payload = the message cell, i1 = arrival *)
  mutable trace : Trace.t option;
  m_msg_pool : msg_cell Lcm_util.Pool.t;
      (* free-list of in-flight protocol-message cells (see [send]) *)
}

(* One in-flight protocol message: the receive-side handler, its data
   payload and two integer riders.  Cells come from [m_msg_pool] and are
   released at delivery, so steady-state protocol traffic allocates no
   per-message record. *)
and msg_cell = {
  mutable mc_h : handler;
  mutable mc_data : Lcm_mem.Block.t;
  mutable mc_dst : int;
  mutable mc_b : int;
  mutable mc_x : int;
}

and handler = Lcm_mem.Block.t -> node -> int -> int -> int -> unit

let no_handler _ = failwith "Machine: no protocol handler registered"

let no_data : Lcm_mem.Block.t = [||]

(* The node whose fiber code is executing on this domain, for the Memeff
   fast-path hooks: set immediately before every [continue] (and before
   the initial body in [spawn]), cleared the moment the fiber suspends
   back into a handler arm or returns.  Fiber code is sequential between
   a resume and the next suspension, so the slot is never stale while
   anything that reads it can run.  Each node carries its own
   preallocated [Some], so reads and writes never allocate. *)
let cur_node : node option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let[@inline] set_cur n = Domain.DLS.set cur_node n.self

let[@inline] clear_cur () = Domain.DLS.set cur_node None

let dead_msg_h _ _ _ _ _ =
  failwith "Machine: message cell used after release"

let make_msg_cell () =
  { mc_h = dead_msg_h; mc_data = no_data; mc_dst = 0; mc_b = 0; mc_x = 0 }

let poison_msg_cell c =
  c.mc_h <- dead_msg_h;
  c.mc_data <- no_data

let la_slots = 64
let la_mask = la_slots - 1

let engine t = t.m_engine
let network t = t.m_network
let gmem t = t.m_gmem
let costs t = t.m_costs
let stats t = t.m_stats
let rng t = t.m_rng
let nnodes t = Array.length t.m_nodes
let node t i = t.m_nodes.(i)
let nodes t = t.m_nodes

let epoch t = t.m_epoch
let incr_epoch t = t.m_epoch <- t.m_epoch + 1

let phase t = t.m_phase
let set_phase t p = t.m_phase <- p

let id n = n.node_id
let clock n = n.node_clock
let set_clock n c = n.node_clock <- c
let advance_clock n d = n.node_clock <- n.node_clock + d

let[@inline] find_line n b =
  let slot = b land la_mask in
  if Array.unsafe_get n.la_blocks slot = b then Array.unsafe_get n.la_lines slot
  else
    match Itbl.find_opt n.lines b with
    | Some _ as r ->
      Array.unsafe_set n.la_blocks slot b;
      Array.unsafe_set n.la_lines slot r;
      r
    | None -> None

let invalidate_lookaside n b =
  let slot = b land la_mask in
  if n.la_blocks.(slot) = b then begin
    n.la_blocks.(slot) <- -1;
    n.la_lines.(slot) <- None
  end

let touch n b line =
  n.access_stamp <- n.access_stamp + 1;
  line.last_use <- n.access_stamp;
  match n.lru with
  | None -> ()
  | Some { heap = h; _ } ->
    (* Home backing lines are never eviction candidates; keep them out of
       the heap entirely. *)
    if not line.is_home_line then begin
      Lcm_util.Heap.add h ~key:line.last_use b;
      (* Lazy deletion lets stale stamps pile up; rebuild from the live
         table when they dominate.  Stamps are unique, so the pop order
         does not depend on the order the table is walked in. *)
      if Lcm_util.Heap.length h > 64 + (8 * Itbl.length n.lines) then begin
        Lcm_util.Heap.clear h;
        Itbl.iter
          (fun b line ->
            if not line.is_home_line then
              Lcm_util.Heap.add h ~key:line.last_use b)
          n.lines
      end
    end

(* Direct-mapped hardware-cache check: charges the miss penalty and
   installs the block on a mismatch.  No-op when the machine has no
   hardware cache configured. *)
let[@inline] hw_access t n b =
  match n.hw_cache with
  | None -> ()
  | Some slots ->
    let slot = b mod Array.length slots in
    if slots.(slot) <> b then begin
      slots.(slot) <- b;
      n.node_clock <- n.node_clock + t.m_costs.Lcm_sim.Costs.hw_miss;
      Stats.Handle.incr t.h_hw_misses
    end

(* Track the number of live per-node clean copies (LCM-mcc snapshots) so
   the paper's §5.1 memory-usage discussion can be quantified; the gauge
   decrements whenever a line holding one disappears. *)
let note_clean_copy_gone t (line : line) =
  if line.local_clean <> None then Stats.Handle.add t.h_live_clean (-1)

let heap_victim n h =
  (* Pop stamps until one is live: present in the table, evictable, and
     still the line's current stamp.  Stamps are unique, so this is the
     least recently used evictable line. *)
  let rec go () =
    match Lcm_util.Heap.pop h with
    | None -> None
    | Some (stamp, b) -> (
      match Itbl.find_opt n.lines b with
      | Some line when (not line.is_home_line) && line.last_use = stamp ->
        Some (b, line)
      | Some _ | None -> go ())
  in
  go ()

let evict_one t n h =
  match heap_victim n h with
  | None -> () (* nothing evictable: over-capacity with home lines only *)
  | Some (b, line) ->
    Stats.Handle.incr t.h_evictions;
    t.on_evict n b line;
    note_clean_copy_gone t line;
    Itbl.remove n.lines b;
    invalidate_lookaside n b

let install_line n b ~data ~tag =
  let t = n.machine in
  let is_home_line = Lcm_mem.Gmem.home_of_block t.m_gmem b = n.node_id in
  (match Itbl.find_opt n.lines b with
  | Some old -> note_clean_copy_gone t old
  | None -> (
    match n.lru with
    | Some { capacity; heap }
      when (not is_home_line) && Itbl.length n.lines >= capacity ->
      (* Home backing lines are the node's share of distributed memory,
         not cache fills: they materialise lazily (possibly outside the
         engine loop, e.g. from a debug peek) and must never displace a
         cached copy — an eviction writeback issued then would never be
         delivered. *)
      evict_one t n heap
    | Some _ | None -> ()));
  let line =
    {
      data;
      tag;
      dirty = Lcm_util.Mask.empty;
      local_clean = None;
      last_use = 0;
      is_home_line;
    }
  in
  touch n b line;
  Itbl.replace n.lines b line;
  let slot = b land la_mask in
  n.la_blocks.(slot) <- b;
  n.la_lines.(slot) <- Some line;
  line

let drop_line n b =
  (match Itbl.find_opt n.lines b with
  | Some line -> note_clean_copy_gone n.machine line
  | None -> ());
  Itbl.remove n.lines b;
  invalidate_lookaside n b

let master t b =
  match Itbl.find t.masters b with
  | data -> data
  | exception Not_found ->
    (* Master copies materialise lazily, but only for real blocks: under
       snoop policies (no home backing) nothing else validates [b], so a
       corrupt block number in a message would otherwise mint a ghost
       master and corrupt the run silently instead of failing here. *)
    if not (Lcm_mem.Gmem.is_allocated t.m_gmem b) then
      failwith
        (Printf.sprintf
           "Machine.master: block %d is not an allocated block (%d blocks \
            allocated)"
           b
           (Lcm_mem.Gmem.allocated_words t.m_gmem
           / Lcm_mem.Gmem.words_per_block t.m_gmem));
    let data = Lcm_mem.Block.make ~words:(Lcm_mem.Gmem.words_per_block t.m_gmem) in
    Itbl.add t.masters b data;
    (if t.home_backing then begin
       let home = t.m_nodes.(Lcm_mem.Gmem.home_of_block t.m_gmem b) in
       (* The home's backing line aliases the master copy and starts
          writable: memory is born coherent and home-owned. *)
       match Itbl.find_opt home.lines b with
       | Some _ -> ()
       | None -> ignore (install_line home b ~data ~tag:Tag.Writable)
     end);
    data

let enable_trace ?(capacity = 256) t =
  let tr = Trace.create ~capacity in
  t.trace <- Some tr;
  Lcm_net.Network.set_trace t.m_network (Some tr)

let trace_events t =
  match t.trace with Some tr -> Trace.events tr | None -> []

let trace_emit t ~time ev =
  match t.trace with Some tr -> Trace.emit tr ~time ev | None -> ()

(* Format only when a ring will keep the note: untraced bus grants must
   not build a string per miss. *)
let tracef t ~time fmt =
  match t.trace with
  | Some tr -> Printf.ksprintf (Trace.record tr ~time) fmt
  | None -> Printf.ikfprintf ignore () fmt

let set_home_backing t enabled = t.home_backing <- enabled

let set_handlers t ~read_fault ~write_fault ~directive =
  t.read_fault <- read_fault;
  t.write_fault <- write_fault;
  t.on_directive <- directive

let set_evict_handler t f = t.on_evict <- f
let set_read_observer t f = t.on_read_hit <- f

(* The network layer records Msg_send/Msg_recv; the receive handler
   records the protocol-processor occupancy interval the message induces.
   Protocol traffic always takes the reliable path: without a fault plan
   it is the plain send, with one it gets exactly-once in-order delivery,
   so the protocol handlers never see drops or duplicates — which is also
   what makes recycling the cell at delivery sound. *)
let send t ~src ~dst ~words ~tag ~at h data b x =
  let c = Lcm_util.Pool.acquire t.m_msg_pool in
  c.mc_h <- h;
  c.mc_data <- data;
  c.mc_dst <- dst;
  c.mc_b <- b;
  c.mc_x <- x;
  Lcm_net.Network.send_reliable_call t.m_network ~src ~dst ~words ~tag ~at
    t.m_recv_h c 0

let resume n ~now ~cost retry =
  (* A fiber coming back to life is semantic progress for the quiescence
     watchdog (no-op unless one is armed). *)
  Lcm_sim.Engine.notify_progress n.machine.m_engine;
  n.node_clock <- max n.node_clock now + cost;
  retry ()

(* Fault waiting: a node has at most one request in flight per block.
   Accesses that fault on a block while its request is outstanding park
   behind the first one and resume with it. *)
let park n b retry =
  let t = n.machine in
  let pending = Itbl.find_opt n.parked b in
  Itbl.replace n.parked b (retry :: Option.value pending ~default:[]);
  let first = pending = None in
  if first then
    Stats.Handle.incr
      (if Lcm_mem.Gmem.home_of_block t.m_gmem b = n.node_id then t.h_fetch_local
       else t.h_fetch_remote);
  first

let wake n b ~now =
  let retries = Option.value (Itbl.find_opt n.parked b) ~default:[] in
  Itbl.remove n.parked b;
  resume n ~now ~cost:n.machine.m_costs.Lcm_sim.Costs.block_install
    (fun () -> List.iter (fun retry -> retry ()) (List.rev retries))

let parked n =
  Itbl.fold (fun b _ acc -> b :: acc) n.parked [] |> List.sort Int.compare

(* ------------------------------------------------------------------ *)
(* The memory access path.                                            *)
(* ------------------------------------------------------------------ *)

(* Home blocks materialise lazily so that first-touch at home hits:
   [master]'s lazy creation is observation-free (zero fill, no counters,
   no trace), so deferring it until something reads the master copy is
   unobservable. *)
let home_fill t n b =
  if Lcm_mem.Gmem.home_of_block t.m_gmem b = n.node_id then begin
    ignore (master t b);
    find_line n b
  end
  else None

(* The line [n] holds for [b]: the lookaside, then the line table, and
   only on a miss the home backing line, so the common hit skips a
   table probe. *)
let[@inline] lookup t n b =
  match find_line n b with None -> home_fill t n b | some -> some

open Effect.Deep

(* The access path takes the fiber's continuation directly rather than a
   closure wrapping it: one less allocation on every simulated load/store,
   and [continue] is the only thing the wrapper would have done.

   The hit bodies are shared with the Memeff fast-path hooks below, so a
   synchronous hit and an effect-dispatched one are side-effect-identical
   by construction. *)

let[@inline] hit_load t n b off line =
  touch n b line;
  hw_access t n b;
  (match t.on_read_hit with Some f -> f n b line | None -> ());
  line.data.(off)

(* A write into an LCM copy records the word for reconcile. *)
let[@inline] mark_dirty line off =
  match line.tag with
  | Tag.Lcm_modified -> line.dirty <- Lcm_util.Mask.set line.dirty off
  | Tag.Invalid | Tag.Read_only | Tag.Writable -> ()

let[@inline] hit_store t n b off line v =
  touch n b line;
  hw_access t n b;
  line.data.(off) <- v;
  mark_dirty line off

(* The tag check failed: trap to the protocol's fault handler, which
   resumes the access through [retry] once the block is installed. *)
let fault t n kind addr b retry =
  Stats.Handle.incr
    (match kind with
    | Trace.Read -> t.h_fault_read
    | Trace.Write -> t.h_fault_write);
  trace_emit t ~time:n.node_clock
    (Trace.Fault { kind; node = n.node_id; addr; block = b });
  n.node_clock <- n.node_clock + t.m_costs.Lcm_sim.Costs.fault_trap;
  match kind with
  | Trace.Read -> t.read_fault n ~addr ~retry
  | Trace.Write -> t.write_fault n ~addr ~retry

let rec do_load t n addr (k : (int, unit) continuation) =
  let b = Lcm_mem.Gmem.block_of_addr t.m_gmem addr in
  match lookup t n b with
  | Some line when Tag.readable line.tag ->
    let v = hit_load t n b (Lcm_mem.Gmem.offset_in_block t.m_gmem addr) line in
    set_cur n;
    continue k v
  | Some _ | None -> fault t n Trace.Read addr b (fun () -> do_load t n addr k)

let rec do_store t n addr v (k : (unit, unit) continuation) =
  let b = Lcm_mem.Gmem.block_of_addr t.m_gmem addr in
  match lookup t n b with
  | Some line when Tag.writable line.tag ->
    hit_store t n b (Lcm_mem.Gmem.offset_in_block t.m_gmem addr) line v;
    set_cur n;
    continue k ()
  | Some _ | None ->
    fault t n Trace.Write addr b (fun () -> do_store t n addr v k)

(* Atomic fetch-and-op: once the line is locally writable the update is a
   single indivisible step. *)
let rec do_rmw t n addr f (k : (int, unit) continuation) =
  let b = Lcm_mem.Gmem.block_of_addr t.m_gmem addr in
  match lookup t n b with
  | Some line when Tag.writable line.tag ->
    let off = Lcm_mem.Gmem.offset_in_block t.m_gmem addr in
    touch n b line;
    hw_access t n b;
    let old = line.data.(off) in
    line.data.(off) <- f old;
    mark_dirty line off;
    set_cur n;
    continue k old
  | Some _ | None -> fault t n Trace.Write addr b (fun () -> do_rmw t n addr f k)

let active_fibers t = t.m_active_fibers

(* ------------------------------------------------------------------ *)
(* Memeff fast-path hooks.                                            *)
(* ------------------------------------------------------------------ *)

(* Installed once, process-wide: the executing node rides domain-local
   storage and carries its machine, so any number of machines (a fleet
   of cells, one per worker domain) share these three hooks safely.  A
   hook completes the access iff the hit path would have resumed the
   fiber immediately, with the same clock charges, counters, LRU
   touches and observers — so skipping the perform is unobservable to
   the simulation.  Anything else (a miss, a tag violation, a foreign
   effect handler with no installed node) declines and the caller
   performs the effect exactly as before. *)

let fast_load_hook addr =
  match Domain.DLS.get cur_node with
  | None -> Memeff.fast_miss
  | Some n -> (
    let t = n.machine in
    let b = Lcm_mem.Gmem.block_of_addr t.m_gmem addr in
    match lookup t n b with
    | Some line when Tag.readable line.tag ->
      n.node_clock <- n.node_clock + t.m_costs.Lcm_sim.Costs.cpu_op;
      hit_load t n b (Lcm_mem.Gmem.offset_in_block t.m_gmem addr) line
    | Some _ | None -> Memeff.fast_miss)

let fast_store_hook addr v =
  match Domain.DLS.get cur_node with
  | None -> false
  | Some n -> (
    let t = n.machine in
    let b = Lcm_mem.Gmem.block_of_addr t.m_gmem addr in
    match lookup t n b with
    | Some line when Tag.writable line.tag ->
      n.node_clock <- n.node_clock + t.m_costs.Lcm_sim.Costs.cpu_op;
      hit_store t n b (Lcm_mem.Gmem.offset_in_block t.m_gmem addr) line v;
      true
    | Some _ | None -> false)

let fast_work_hook units =
  match Domain.DLS.get cur_node with
  | None -> false
  | Some n ->
    n.node_clock <-
      n.node_clock + (units * n.machine.m_costs.Lcm_sim.Costs.compute_unit);
    true

let () =
  Memeff.fast_load := fast_load_hook;
  Memeff.fast_store := fast_store_hook;
  Memeff.fast_work := fast_work_hook

(* One node with its preallocated effect arms (see the [node] type).
   Each arm is one closure + one [Some] block for the node's lifetime;
   the per-perform payload travels through the scratch slots, which the
   arm reads before anything else can perform on this domain. *)
let make_node t ~capacity_blocks ~hw_cache_blocks i =
  let cpu_op = t.m_costs.Lcm_sim.Costs.cpu_op in
  let compute_unit = t.m_costs.Lcm_sim.Costs.compute_unit in
  let rec n =
    {
      node_id = i;
      machine = t;
      node_clock = 0;
      handler_free = 0;
      lines = Itbl.create 16;
      access_stamp = 0;
      la_blocks = Array.make la_slots (-1);
      la_lines = Array.make la_slots None;
      lru =
        Option.map
          (fun capacity -> { capacity; heap = Lcm_util.Heap.create () })
          capacity_blocks;
      hw_cache = Option.map (fun n -> Array.make n (-1)) hw_cache_blocks;
      parked = Itbl.create 16;
      self = Some n;
      sc_addr = 0;
      sc_val = 0;
      sc_rmw = (fun v -> v);
      sc_units = 0;
      sc_dir = Memeff.Flush_copies;
      arm_load =
        Some
          (fun k ->
            clear_cur ();
            n.node_clock <- n.node_clock + cpu_op;
            do_load t n n.sc_addr k);
      arm_store =
        Some
          (fun k ->
            clear_cur ();
            n.node_clock <- n.node_clock + cpu_op;
            do_store t n n.sc_addr n.sc_val k);
      arm_rmw =
        Some
          (fun k ->
            clear_cur ();
            n.node_clock <- n.node_clock + (2 * cpu_op);
            do_rmw t n n.sc_addr n.sc_rmw k);
      arm_work =
        Some
          (fun k ->
            (* only reached when no current node was installed (a foreign
               frame): the fast hook handles every in-fiber Work *)
            clear_cur ();
            n.node_clock <- n.node_clock + (n.sc_units * compute_unit);
            set_cur n;
            continue k ());
      arm_yield =
        Some
          (fun k ->
            clear_cur ();
            let at = max n.node_clock (Lcm_sim.Engine.now t.m_engine) in
            (* allocation-free resume: the continuation rides an engine
               event as the payload, the resume time and node id in the
               int slots.  The owner hint marks the resume as node-local
               work for the choice hook's independence heuristic; it
               never changes execution order. *)
            Lcm_sim.Engine.schedule_call t.m_engine ~owner:n.node_id ~at
              t.m_yield_h k at n.node_id);
      arm_directive =
        Some
          (fun k ->
            clear_cur ();
            t.on_directive n n.sc_dir ~retry:(fun () ->
                set_cur n;
                continue k ()));
    }
  in
  n

let create ?(costs = Lcm_sim.Costs.default)
    ?(topology = Lcm_net.Topology.Fat_tree { arity = 4 }) ?(seed = 42)
    ?capacity_blocks ?hw_cache_blocks ?faults ~nnodes ~words_per_block () =
  let engine = Lcm_sim.Engine.create () in
  let stats = Lcm_util.Stats.create () in
  let network =
    Lcm_net.Network.create ?faults ~engine ~costs ~stats ~topology ~nnodes ()
  in
  (* A lossy interconnect can livelock (drops outpacing retransmission);
     arm the engine's quiescence watchdog so that surfaces as a typed
     Stalled instead of an unbounded run. *)
  (match faults with
  | Some plan ->
    Lcm_sim.Engine.set_stall_limit engine (Some plan.Lcm_net.Faults.stall_limit)
  | None -> ());
  let gmem = Lcm_mem.Gmem.create ~nnodes ~words_per_block in
  if Option.value capacity_blocks ~default:1 <= 0 then
    invalid_arg "Machine.create: capacity_blocks must be positive";
  if Option.value hw_cache_blocks ~default:1 <= 0 then
    invalid_arg "Machine.create: hw_cache_blocks must be positive";
  let rec m =
    {
      m_engine = engine;
      m_network = network;
      m_gmem = gmem;
      m_costs = costs;
      m_stats = stats;
      m_rng = Lcm_util.Rng.create ~seed;
      m_nodes = [||];
      masters = Itbl.create 16;
      h_hw_misses = Stats.counter stats "cache.hw_misses";
      h_evictions = Stats.counter stats "cache.evictions";
      h_fault_read = Stats.counter stats "fault.read";
      h_fault_write = Stats.counter stats "fault.write";
      h_live_clean = Stats.counter stats "lcm.live_clean_copies";
      h_handler_runs = Stats.counter stats "proto.handler_runs";
      h_fetch_local = Stats.counter stats "proto.fetch_local";
      h_fetch_remote = Stats.counter stats "proto.fetch_remote";
      home_backing = true;
      m_epoch = 0;
      m_phase = `Sequential;
      m_active_fibers = 0;
      read_fault = (fun _ ~addr:_ ~retry:_ -> no_handler ());
      write_fault = (fun _ ~addr:_ ~retry:_ -> no_handler ());
      on_directive = (fun _ _ ~retry:_ -> no_handler ());
      on_evict = (fun _ _ _ -> no_handler ());
      on_read_hit = None;
      m_yield_h =
        (fun k at nid ->
          let n = m.m_nodes.(nid) in
          n.node_clock <- max n.node_clock at;
          (* a fiber picking its compute back up is semantic progress for
             the stall watchdog — a yield-heavy phase must not read as a
             livelock *)
          Lcm_sim.Engine.notify_progress m.m_engine;
          set_cur n;
          Effect.Deep.continue k ());
      (* Delivery runs on the destination's protocol processor: the
         message waits for the handler to be free, occupies it, and the
         receive handler sees the occupancy-completion time.  The cell is
         recycled before the handler runs, which may send again. *)
      m_recv_h =
        (fun c arrival _ ->
          let dst = c.mc_dst in
          let dnode = m.m_nodes.(dst) in
          let start = max arrival dnode.handler_free in
          let finish = start + m.m_costs.Lcm_sim.Costs.handler_occupancy in
          dnode.handler_free <- finish;
          Stats.Handle.incr m.h_handler_runs;
          (match m.trace with
          | Some tr ->
            Trace.emit tr ~time:start (Trace.Handler { node = dst; finish })
          | None -> ());
          let h = c.mc_h and data = c.mc_data and b = c.mc_b and x = c.mc_x in
          poison_msg_cell c;
          Lcm_util.Pool.release m.m_msg_pool c;
          h data dnode finish b x);
      trace = None;
      m_msg_pool =
        Lcm_util.Pool.create ~poison:poison_msg_cell ~make:make_msg_cell ();
    }
  in
  m.m_nodes <-
    Array.init nnodes (make_node m ~capacity_blocks ~hw_cache_blocks);
  m

let spawn t n f =
  t.m_active_fibers <- t.m_active_fibers + 1;
  set_cur n;
  match_with f ()
    {
      retc =
        (fun () ->
          clear_cur ();
          t.m_active_fibers <- t.m_active_fibers - 1);
      exnc =
        (fun e ->
          clear_cur ();
          raise e);
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Memeff.Load addr ->
            n.sc_addr <- addr;
            (n.arm_load : ((c, unit) continuation -> unit) option)
          | Memeff.Store (addr, v) ->
            n.sc_addr <- addr;
            n.sc_val <- v;
            (n.arm_store : ((c, unit) continuation -> unit) option)
          | Memeff.Rmw (addr, f) ->
            n.sc_addr <- addr;
            n.sc_rmw <- f;
            (n.arm_rmw : ((c, unit) continuation -> unit) option)
          | Memeff.Work units ->
            n.sc_units <- units;
            (n.arm_work : ((c, unit) continuation -> unit) option)
          | Memeff.Yield ->
            (n.arm_yield : ((c, unit) continuation -> unit) option)
          | Memeff.Directive d ->
            n.sc_dir <- d;
            (n.arm_directive : ((c, unit) continuation -> unit) option)
          | _ -> None);
    }

let run_to_quiescence ?limit t =
  Lcm_sim.Engine.run ?limit t.m_engine;
  if
    t.m_active_fibers > 0
    && (match Lcm_net.Network.faults t.m_network with
       | Some plan -> not plan.Lcm_net.Faults.retransmit
       | None -> false)
  then
    (* Under a fault plan without retransmission a drained queue with
       suspended fibers is the expected outcome of a lost message, not a
       protocol bug: report it as the typed stall. *)
    raise
      (Lcm_sim.Engine.Stalled
         {
           clock = Lcm_sim.Engine.now t.m_engine;
           pending = t.m_active_fibers;
         });
  if t.m_active_fibers > 0 then begin
    let tail =
      match t.trace with
      | None ->
        "\n(enable_trace the machine to capture the event tail)"
      | Some _ ->
        "\nlast events:\n  "
        ^ String.concat "\n  " (Trace.dump (trace_events t))
    in
    failwith
      (Printf.sprintf
         "Machine.run_to_quiescence: deadlock — %d fiber(s) still suspended \
          at t=%d%s"
         t.m_active_fibers
         (Lcm_sim.Engine.now t.m_engine)
         tail)
  end

let max_clock t =
  Array.fold_left (fun acc n -> max acc n.node_clock) 0 t.m_nodes

let set_all_clocks t c = Array.iter (fun n -> n.node_clock <- c) t.m_nodes
