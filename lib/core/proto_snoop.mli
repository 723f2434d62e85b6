(** The snooping-bus protocol engine for the MSI/MESI/MOESI family.

    The counterpart of {!Proto_dir}: where the directory engine coheres
    through per-block home directories and point-to-point messages, this
    engine broadcasts every miss on a single arbitrated {!Lcm_net.Bus}
    and lets every cache snoop it.  {!Snoop} holds the pure per-policy
    transition tables; this module owns only transport and the writeback
    buffer.  Faulting accesses wait in the machine
    ({!Lcm_tempest.Machine.park}/{!Lcm_tempest.Machine.wake}) and a phase
    ends in {!Barrier.release}, exactly as on the directory side.  Use
    {!Proto} unless you specifically need the concrete engine type.

    Transactions (BUS_RD, BUS_RDX, BUS_UPGR, FLUSH) serialize through bus
    arbitration and apply their state changes atomically at completion,
    so the engine needs no transient directory states.  BUS_RD, BUS_RDX
    and the invalidation half of BUS_UPGR share one pass over the other
    caches, differing only in the {!Snoop} reaction they apply.  Dirty snoopers
    supply requested lines cache-to-cache; evicted dirty lines wait in a
    writeback buffer that intervening transactions consult (and consume)
    before memory, resolving the Owned/Modified-writeback-versus-BUS_RDX
    race.  Home backing lines are disabled: every node arbitrates for the
    bus regardless of where a block is homed.

    Because bus protocols are coherent, {!reconcile} is only the
    end-of-phase barrier, and LCM/stale-data directives degrade to no-ops
    — programs compiled for LCM run unchanged (the paper's portability
    argument, mirrored from the Stache behaviour).  For the same reason
    the engine has no reductions, conflicts or races: {!Proto} answers
    those for it.

    The bus is a reliable medium: {!Lcm_net.Faults} plans shape the
    point-to-point network and do not apply to bus transactions. *)

type t

val install :
  ?barrier:Barrier.style ->
  policy:Policy.t ->
  Lcm_tempest.Machine.t ->
  t
(** [install ~policy machine] creates the shared bus and
    {!Lcm_tempest.Machine.install}s the engine's fault, directive and
    eviction handlers, with home backing lines off — so it must run
    before any block of [machine] is touched.
    @raise Invalid_argument if [policy] is not in the snooping family. *)

val reconcile : t -> unit
(** End-of-phase barrier: drain the machine, then {!Barrier.release} with
    every node joining at its own clock.  No data movement — the bus kept
    memory coherent throughout. *)

val check_invariants : t -> (string -> unit) -> unit
(** [check_invariants t report] audits the global protocol state when
    quiescent, calling [report] once per violation, in ascending block
    order ({!Proto.check_invariants} collects them):

    - every recorded state is admitted by the policy (no E under MSI, no
      O under MSI/MESI), and matches the machine's line table (state and
      tag agree; I holds no line);
    - at most one owner-state (M/E/O) holder per block, and M/E exclude
      all other copies;
    - with no dirty owner every cached copy equals memory; with an Owned
      holder every Shared copy equals the owner's data (memory may be
      stale); Exclusive copies equal memory;
    - the writeback buffer is empty. *)

val peek : t -> Lcm_mem.Gmem.block -> int -> int
(** [peek t b off] reads word [off] of block [b] bypassing the
    simulation: the M/E/O holder's copy if one exists, else a buffered
    writeback, else memory. *)

val poke : t -> Lcm_mem.Gmem.block -> int -> int -> unit
(** [poke t b off v] writes word [off] of block [b] in memory; raises
    [Failure] if any node caches the block. *)
