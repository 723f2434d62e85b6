(** A shared snooping bus: the interconnect model behind the MSI/MESI/MOESI
    policy family.

    One transaction occupies the bus at a time.  A transaction requested at
    cycle [at] is granted when the bus next becomes free, or at [at] if it
    is idle — the difference is accounted as arbitration stall
    ([bus.arb_stall_cycles]) — and holds the bus for
    [msg_fixed + words * msg_per_word] cycles, the same wire cost
    the point-to-point network charges minus per-hop switching (a bus has
    no switches).  The completion callback runs when the occupancy ends, so
    each transaction's snoop-side state changes are atomic with respect to
    the next grant: the protocol layer can read and update every cache's
    state inside the callback without intervening traffic.

    The bus is a {e reliable} medium: fault plans ({!Faults}) model lossy
    point-to-point links and deliberately do not apply here — every agent
    observes a snooping transaction by construction.

    Counters: [bus.transactions], [bus.rd]/[bus.rdx]/[bus.upgr]/[bus.flush]
    (per kind), [bus.arb_stall_cycles], [bus.busy_cycles].  Snoop-hit and
    cache-to-cache counters belong to the protocol layer, which knows what
    the snoop found. *)

type kind =
  | Rd  (** read miss: fetch a shared copy *)
  | Rdx  (** write miss: fetch an exclusive copy, invalidating others *)
  | Upgr  (** upgrade a held shared copy to exclusive (no data transfer) *)
  | Flush  (** writeback of a dirty evicted line *)

type t

val create :
  engine:Lcm_sim.Engine.t ->
  costs:Lcm_sim.Costs.t ->
  stats:Lcm_util.Stats.t ->
  unit ->
  t

val transact :
  t ->
  kind:kind ->
  at:int ->
  words:int ->
  ('a -> int -> int -> unit) ->
  'a ->
  int ->
  unit
(** [transact t ~kind ~at ~words g p x] queues a transaction requested at
    cycle [at]; the grant handler [g p now x] runs when its bus occupancy
    completes ([now] is that cycle).  [p] is the handler's payload and [x]
    an integer rider (a packed requester/block descriptor).  [g] is meant
    to be a static handler; the triple then rides the engine's pooled
    event, so a steady-state transaction allocates nothing.  Grants are in
    request order. *)
