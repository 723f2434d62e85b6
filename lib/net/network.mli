(** Point-to-point message transport between simulated nodes.

    A message is an active message: it names a delivery handler and
    carries a payload and an integer rider, and [h p arrival x] runs at
    its arrival time on the simulation engine.  The handler is meant to
    be preallocated (one closure per protocol instance, not per message);
    the triple then rides the engine's pooled event, so an untraced
    fault-free message allocates nothing.  A cold caller passes a fresh
    closure as [h] and [()] as [p].  Delivery preserves FIFO order per
    (src, dst) channel — the property the coherence protocols rely on so
    that, e.g., a flush followed by a re-fetch from the same node reaches
    the home in order.  There is no global ordering across channels.

    Latency model: [msg_fixed + hops * msg_per_hop + words * msg_per_word]
    cycles (see {!Lcm_sim.Costs}).  Bandwidth model: a channel remains
    occupied for each message's {!transmission_time}, so consecutive
    messages on one channel arrive spaced by at least the earlier
    message's transmission time — back-to-back large messages serialize by
    size, not by a fixed cycle.

    {b Loopback.}  A message with [src = dst] never touches the
    interconnect: it is delivered at [at + msg_fixed] (clamped to the
    engine clock), modeling the fixed protocol-handoff cost only — no
    per-hop or per-word latency terms, no channel occupancy, and no fault
    injection.  It still counts in ["net.msgs"]/["net.words"]/["msg.<tag>"].

    {b Fault injection.}  A network created with a {!Faults} plan passes
    every non-loopback {!send_call} through a lossy layer that may drop a
    message, duplicate it, delay it by bounded jitter, or black-hole it
    inside a link-down window — all decided from one {!Lcm_util.Rng}
    stream seeded by the plan, so a (plan, workload) pair replays
    bit-identically.  Dropped copies are lost at the sender's interface:
    they bump ["fault.drops"] and emit {!Lcm_sim.Trace.Msg_drop}, but do
    not occupy the channel or count as sent messages.
    {!send_reliable_call} layers exactly-once, in-order delivery on top. *)

type t

exception
  Net_unreachable of { src : int; dst : int; tag : string; attempts : int }
(** Raised (out of the engine loop) when a reliable send exhausted its
    retransmission budget without an acknowledgement.
    [Printexc.to_string] gives
    ["net unreachable: TAG SRC->DST gave up after N attempts"]. *)

val create :
  ?faults:Faults.t ->
  engine:Lcm_sim.Engine.t ->
  costs:Lcm_sim.Costs.t ->
  stats:Lcm_util.Stats.t ->
  topology:Topology.t ->
  nnodes:int ->
  unit ->
  t
(** [faults] installs a fault plan (default: none — the reliable CM-5-style
    transport the paper assumes, with {!send_reliable_call} equal to
    {!send_call}).
    @raise Invalid_argument if [nnodes] is outside [\[1, max_nodes\]]. *)

val max_nodes : int
(** 1024: the largest node count a network supports.  The reliable
    transport's reorder buffer packs a channel ([src * nnodes + dst]) and
    a sequence number into one int key, with 20 bits for the channel. *)

val faults : t -> Faults.t option
(** The fault plan this network was created with, if any. *)

type fate = Deliver | Drop | Dup
(** The fate of one physical message copy under {!set_fault_chooser}. *)

val set_fault_chooser : t -> (unit -> fate) option -> unit
(** [set_fault_chooser n (Some choose)] replaces the fault plan's RNG
    stream with a deterministic per-copy oracle: every copy a fault plan
    would subject to probabilistic drop/dup/jitter instead asks
    [choose ()] for its fate.  No RNG is drawn, no jitter is applied, and
    down windows are ignored — the chooser is the single source of fault
    truth, which is what makes a model checker's recorded fault choices
    replayable.  [Dup] injects two identical copies (channel occupancy
    still spaces them); [Drop] loses the copy at the sender's interface,
    counting in ["fault.drops"] exactly like an RNG drop.  The chooser
    is only consulted on paths a fault plan enables, i.e. the network
    must still be created with [?faults] (typically a zero-probability
    plan with retransmission on, so the reliable envelope machinery —
    acks, dedup, timers — is live and drops are eventually repaired). *)

val set_trace : t -> Lcm_sim.Trace.t option -> unit
(** Attach (or detach) a trace ring; when set, every send emits
    {!Lcm_sim.Trace.Msg_send} at the {e actual} injection time — the
    arrival minus the uncontended latency, which is later than the
    caller's [at] when the channel is occupied or the engine clock has
    passed [at] — and {!Lcm_sim.Trace.Msg_recv} at arrival.  Under a fault
    plan, dropped copies emit {!Lcm_sim.Trace.Msg_drop} and
    retransmissions {!Lcm_sim.Trace.Msg_retx}. *)

val send_call :
  t ->
  src:int ->
  dst:int ->
  words:int ->
  ?tag:string ->
  at:int ->
  ('a -> int -> int -> unit) ->
  'a ->
  int ->
  unit
(** [send_call n ~src ~dst ~words ?tag ~at h p x] injects a message of
    [words] payload words at local time [at] (the sender's clock, which
    may be ahead of the engine clock) and runs [h p arrival x] at the
    computed arrival time.  [p] is the handler's payload, [x] an integer
    rider (a block number, a node id).  [tag] labels the message class in
    statistics (["msg.<tag>"]); every send also bumps ["net.msgs"] and
    ["net.words"].  When channel occupancy or the engine clamp delays the
    message past its uncontended arrival, the delay is recorded in the
    ["net.channel_stall_cycles"] sample (one observation per stalled
    message).  Under a fault plan this path is fire-and-forget: [h] may
    run zero times (drop, link down) or twice (duplication).
    @raise Invalid_argument if [src] or [dst] is out of range, [words] is
    not positive, or [at] is negative. *)

val send_reliable_call :
  t ->
  src:int ->
  dst:int ->
  words:int ->
  ?tag:string ->
  at:int ->
  ('a -> int -> int -> unit) ->
  'a ->
  int ->
  unit
(** Like {!send_call}, but [h p arrival x] runs {e exactly once}, and
    messages on one channel are released to the application in send order
    even when fault injection drops or duplicates copies.  Implementation:
    per-channel sequence numbers, a receiver-side dedup/reorder buffer
    (suppressed duplicates bump ["fault.dup_suppressed"]), an
    acknowledgement (1-word ["ack"] message, itself subject to faults) per
    received copy, and a sender-side engine timer with exponential backoff
    that retransmits unacknowledged messages — bumping
    ["fault.retransmits"] / ["fault.timeouts"] and observing the
    ["net.retx_backoff_cycles"] sample — until the plan's retry cap.  The
    envelope and its timer are per-message closures; only the application
    triple is the caller's.
    Without a fault plan (or with [src = dst]) this is exactly
    {!send_call}: no envelopes, no acks, no timers.  With a plan whose
    [retransmit] is false it degrades to the lossy fire-and-forget path.
    @raise Net_unreachable once a message exceeds [max_retries]
    retransmissions (raised inside the engine loop, propagating out of
    {!Lcm_sim.Engine.run}). *)

val latency : t -> src:int -> dst:int -> words:int -> int
(** The uncontended latency the model assigns to such a message
    ([msg_fixed] alone when [src = dst]). *)

val transmission_time : t -> words:int -> int
(** [max 1 (words * msg_per_word)] — how long a message of [words] keeps
    its channel occupied after its own arrival. *)
