(** The simulated multiprocessor: nodes, their block tables, fiber
    execution, and Tempest-style fault dispatch.

    A {!t} bundles the event engine, network, global address space and an
    array of nodes.  Each node has:

    - a CPU clock ([clock]), advanced by the computation it runs;
    - a protocol processor whose occupancy ([handler_free]) serializes
      incoming protocol messages (see DESIGN.md §3);
    - a table of cache {!line}s holding tagged block copies — at the home
      node the line for an owned block aliases the block's master copy.

    Computation runs as fibers (OCaml effect handlers).  Loads and stores
    check the local tag: a hit resumes immediately; a violation charges the
    fault-trap cost and calls the fault handler of the {!protocol} given to
    {!install}, passing a [retry] thunk that re-executes the access once
    the protocol has installed an acceptable copy.

    Suspending a faulting access is Tempest's job, not the protocol's: a
    protocol {!park}s the retry on the block it needs, requests the block
    for the first access parked there, and {!wake}s them all when the
    copy arrives.  Both coherence engines share this waiter table. *)

type line = {
  mutable data : Lcm_mem.Block.t;  (** current local contents *)
  mutable tag : Tag.t;
  mutable dirty : Lcm_util.Mask.t;  (** words stored-to while [Lcm_modified] *)
  mutable local_clean : Lcm_mem.Block.t option;
      (** LCM-mcc per-node clean copy snapshot *)
  mutable last_use : int;  (** LRU stamp, maintained by the access path *)
  is_home_line : bool;  (** home backing store: never evicted *)
}

type node

type t

val create :
  ?costs:Lcm_sim.Costs.t ->
  ?topology:Lcm_net.Topology.t ->
  ?seed:int ->
  ?capacity_blocks:int ->
  ?hw_cache_blocks:int ->
  ?faults:Lcm_net.Faults.t ->
  nnodes:int ->
  words_per_block:int ->
  unit ->
  t
(** [create ~nnodes ~words_per_block ()] builds a machine.  [topology]
    defaults to the CM-5 fat tree of arity 4; [capacity_blocks] bounds each
    node's cache in blocks (default: unbounded, Stache-style main-memory
    cache).  [hw_cache_blocks] adds a direct-mapped per-node hardware cache
    of that many block slots above node memory: accesses that miss it pay
    {!Lcm_sim.Costs.t.hw_miss} extra cycles (default: no hardware cache —
    every local access costs one cycle).  [faults] makes the interconnect
    unreliable per the plan (see {!Lcm_net.Faults}): protocol messaging
    then rides {!Lcm_net.Network.send_reliable_call}.

    A machine runs on the domain that creates it, on one sequential event
    engine; parallelism lives one level up, across independent machines
    (the fleet pool in [Lcm_fleet]).  [create] runs one minor collection
    before it allocates anything, so a caller that builds a machine per
    case, dropping the last, keeps each machine in the minor heap.
    @raise Invalid_argument on a non-positive [capacity_blocks] or
    [hw_cache_blocks], or a block size {!Lcm_mem.Gmem.create} rejects. *)

(** {1 Machine accessors} *)

val engine : t -> Lcm_sim.Engine.t

val network : t -> Lcm_net.Network.t
val gmem : t -> Lcm_mem.Gmem.t
val costs : t -> Lcm_sim.Costs.t
val stats : t -> Lcm_util.Stats.t
val rng : t -> Lcm_util.Rng.t
val nnodes : t -> int
val node : t -> int -> node
val nodes : t -> node array

val epoch : t -> int
val incr_epoch : t -> unit

val phase : t -> [ `Sequential | `Parallel ]
val set_phase : t -> [ `Sequential | `Parallel ] -> unit

(** {1 Node accessors} *)

val id : node -> int
val clock : node -> int
val advance_clock : node -> int -> unit

(** {1 Block tables (protocol side)} *)

val master : t -> Lcm_mem.Gmem.block -> Lcm_mem.Block.t
(** [master t b] is the master copy of block [b], created zero-filled on
    first use.  Also installs the home node's writable backing line if not
    present, when the protocol's [home_backing] asks for it. *)

val find_line : node -> Lcm_mem.Gmem.block -> line option

val install_line :
  node -> Lcm_mem.Gmem.block -> data:Lcm_mem.Block.t -> tag:Tag.t -> line
(** Install (or overwrite) a cached copy.  May trigger an LRU eviction
    through the protocol's [evict] handler when the node's capacity is
    bounded. *)

val drop_line : node -> Lcm_mem.Gmem.block -> unit

(** {1 The protocol} *)

type protocol = {
  read_fault : node -> Lcm_mem.Gmem.block -> retry:(unit -> unit) -> unit;
      (** a load missed on this block: install a readable copy, then run
          [retry] *)
  write_fault : node -> Lcm_mem.Gmem.block -> retry:(unit -> unit) -> unit;
      (** a store or read-modify-write missed on this block: install a
          writable copy, then run [retry] *)
  directive : node -> Memeff.dir -> retry:(unit -> unit) -> unit;
      (** a fiber issued a memory-system directive; [retry] resumes it *)
  evict : node -> Lcm_mem.Gmem.block -> line -> unit;
      (** capacity pressure is about to evict this line: write back or
          notify the home as needed.  The line leaves the table after the
          handler returns. *)
  read_hit : (node -> Lcm_mem.Gmem.block -> line -> unit) option;
      (** observe loads that {e hit} a readable local line (faulting
          loads already reach [read_fault]).  Race detection needs it:
          the home's backing line is always readable, so home reads never
          fault.  [None] keeps the hit path observer-free. *)
  home_backing : bool;
      (** whether {!master} installs the home node's master-aliasing
          writable backing line when it creates a master copy (directory
          protocols rely on it, see DESIGN.md §3); bus protocols turn it
          off so home-node accesses take the bus like everyone else's *)
}
(** A coherence protocol as Tempest runs it: the user-level handlers for
    an access fault, a directive and an eviction, plus how home memory
    is backed.  Messages reach the protocol through the {!handler} each
    {!send} carries. *)

val install : t -> protocol -> unit
(** [install t p] makes [p] the machine's protocol.  Until then every
    hook fails with [Failure "Machine: no protocol handler registered"]
    and home backing is on.  Install before any block is touched:
    [home_backing] acts when a master copy is first created. *)

(** {1 Messaging} *)

type handler = Lcm_mem.Block.t -> node -> int -> int -> int -> unit
(** A protocol message handler: [h data dnode now b x] runs on the
    destination node [dnode]'s protocol processor, where [now] is the time
    its handler occupancy completes — the timestamp any reply should
    carry.  [data] is the message's block payload ({!no_data} for control
    messages) and [b]/[x] are integer riders (a block number, a packed
    request descriptor). *)

val no_data : Lcm_mem.Block.t
(** The empty payload, for messages that carry no block. *)

val ctrl_words : int
(** The size in words of a message that carries no block: a request, an
    invalidation, an acknowledgement. *)

val data_words : t -> int
(** The size in words of a message that carries one block: the block's
    words plus {!ctrl_words}. *)

val send :
  t ->
  src:int ->
  dst:int ->
  words:int ->
  tag:string ->
  at:int ->
  handler ->
  Lcm_mem.Block.t ->
  int ->
  int ->
  unit
(** [send t ~src ~dst ~words ~tag ~at h data b x] transmits a protocol
    message; [h data dnode now b x] runs on arrival (see {!handler}).
    Hot protocol paths pass a handler preallocated per protocol instance;
    cold ones pass a fresh closure.  The four ride a pooled message cell
    recycled at delivery, so a steady-state message with a preallocated
    handler allocates nothing.  Messages always take
    {!Lcm_net.Network.send_reliable_call}: exactly-once, in order per
    channel, under any fault plan that retransmits. *)

val resume : node -> now:int -> cost:int -> (unit -> unit) -> unit
(** [resume n ~now ~cost retry] returns control to a suspended fiber: sets
    the node clock to [max clock now + cost] and runs [retry]. *)

val park : node -> Lcm_mem.Gmem.block -> (unit -> unit) -> bool
(** [park n b retry] suspends a faulting access of node [n] until block
    [b] arrives.  Returns [true] only for the first access parked on [b]:
    that call counts [proto.fetch_local] or [proto.fetch_remote] by [b]'s
    home, and its caller issues the one request.  Later accesses return
    [false] and count nothing; they ride the request already in flight. *)

val wake : node -> Lcm_mem.Gmem.block -> now:int -> unit
(** [wake n b ~now] resumes every access parked on [b], oldest first,
    after the block-install cost: the node clock becomes
    [max clock now + block_install]. *)

val parked : node -> Lcm_mem.Gmem.block list
(** The blocks node [n] has parked accesses on, sorted.  Empty whenever
    the machine is quiescent. *)

(** {1 Fibers} *)

val spawn : t -> node -> (unit -> unit) -> unit
(** [spawn t n f] runs [f] as a fiber on node [n], immediately, until its
    first suspension. *)

val active_fibers : t -> int

exception Stalled of { clock : int; pending : int }
(** Raised by {!run_to_quiescence} when the queue drained while fibers
    were still waiting for messages a fault plan without retransmission
    lost: [clock] is the engine clock, [pending] the number of suspended
    fibers.  [Printexc.to_string] gives
    ["stalled: no delivery progress at clock C (P pending)"]. *)

val run_to_quiescence : ?limit:int -> t -> unit
(** Drain the event queue.
    @raise Failure if fibers remain suspended after the queue empties
    (protocol deadlock) or [limit] events are exceeded.
    @raise Stalled instead of the deadlock [Failure] when the machine runs
    a fault plan with retransmission disabled — losing a message for good
    makes suspended fibers the expected outcome, and the typed stall
    identifies it deterministically.
    @raise Lcm_net.Network.Net_unreachable from a message that exhausted
    its retransmission budget, naming its channel.  The retry cap bounds
    every message's transmissions, so a run under a retransmitting plan
    cannot spin forever on lost messages. *)

val max_clock : t -> int
(** Maximum node CPU clock — the phase completion time. *)

val set_all_clocks : t -> int -> unit

(** {1 Tracing} *)

module Trace = Lcm_sim.Trace

val enable_trace : ?capacity:int -> t -> unit
(** Start recording typed protocol events (faults, message send/receive,
    handler occupancy, barriers, directives) into a ring of [capacity]
    (default 256) events; also attaches the ring to the network so message
    events are captured, and a deadlock failure dumps the tail. *)

val trace_events : t -> (int * Lcm_sim.Trace.event) list
(** The retained typed events with their timestamps, oldest first ([[]]
    when tracing is off).  Render with {!Lcm_sim.Trace.dump}, or feed to
    {!Lcm_harness.Traceview} for export. *)

val trace_emit : t -> time:int -> Lcm_sim.Trace.event -> unit
(** Record a typed event (no-op when tracing is off); protocol layers use
    this to annotate barriers and epochs. *)

val trace_directive : node -> string -> unit
(** [trace_directive n name] records that node [n] issued the directive
    [name], at its clock (no-op when tracing is off). *)

val tracef :
  t -> time:int -> ('a, unit, string, unit) format4 -> 'a
(** Record a free-form note event (no-op when tracing is off). *)
