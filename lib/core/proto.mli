(** The protocol engine facade — the paper's primary contribution, plus
    the snooping-bus baseline family.

    A {!Policy.t}'s family selects the engine at {!install} time:

    - {b Directory} policies ride the generic home-directory engine
      ({!Proto_dir}), which implements all the memory systems the paper
      measures — {b Stache} (sequentially-consistent user-level directory
      protocol: single-writer invalidation coherence, home-based full
      directory, the node's memory as a large cache for remote blocks),
      {b LCM-scc} (loosely-coherent memory with a single clean copy at
      the home node), {b LCM-mcc} (clean copies on every caching node)
      and {b LCM-mcc-update} (update-based reconciliation);
    - {b Snoop} policies ride the shared-bus engine ({!Proto_snoop}):
      MSI, MESI and MOESI over an arbitrated broadcast bus with
      cache-to-cache supply — the hardware baseline the directory
      protocols are traditionally compared against.

    Either engine installs itself on a {!Lcm_tempest.Machine.t} as one
    {!Lcm_tempest.Machine.protocol}: its read-fault, write-fault,
    directive and eviction handlers, and whether home memory is backed
    by a line at the home node.  The directory engine consists of
    message-driven state machines at each block's home plus a thin
    requester side; the bus engine serializes misses through bus
    arbitration and applies snoop reactions atomically at transaction
    completion.  Both park faulting accesses in the machine
    ({!Lcm_tempest.Machine.park}) and end every phase with
    {!Barrier.release}.  This facade holds what the two share: the
    policy and machine, the phase and quiescence checks, the audit's
    error list and the split of an address into a block and an offset.
    Everything above this layer is engine-agnostic.

    {2 LCM operation (Section 5.1 of the paper)}

    The three directives are [mark_modification(addr)] (the
    {!Lcm_tempest.Memeff.Mark_modification} directive — or an implicit mark
    when unannotated code write-faults during a parallel phase),
    [flush_copies()] ({!Lcm_tempest.Memeff.Flush_copies}), and
    [reconcile_copies()] ({!reconcile}, invoked by the language runtime at
    the end of a parallel call).

    During a parallel phase the master copy of every block is immutable:
    writes land in private [Lcm_modified] copies that track per-word dirty
    masks, and flushed copies merge into a {e pending} shadow copy at the
    home.  Reads served during the phase therefore always observe the
    phase-start global state, which is exactly C\*\*'s "atomic and
    simultaneous" semantics.  [reconcile] completes the phase: every node
    flushes, a barrier waits for all flush acknowledgements, each home
    promotes its shadow to master, and outstanding read-only copies of
    modified blocks are invalidated system-wide. *)

type t

val install :
  ?detection:Detect.setting ->
  ?barrier:Barrier.style ->
  policy:Policy.t ->
  Lcm_tempest.Machine.t ->
  t
(** [install ~policy machine] registers the protocol on [machine] and
    returns the instance handle.  The engine follows
    [policy.family]; with a snooping policy, [detection] is inert
    (detection is an LCM reconciliation feature) and home backing lines
    are disabled, so install must run before any block is touched.
    [detection] (default {!Detect.Off}) selects reconcile-time
    write/write-conflict and read/write-race recording, and whether every
    read-only copy is flushed at each reconciliation ({!Detect.Strict},
    rejected under update-based reconciliation).  The eviction handler
    fires only on a machine created with a finite cache.  [barrier]
    selects the reconciliation-barrier timing model (default
    {!Barrier.Constant}). *)

val policy : t -> Policy.t

val machine : t -> Lcm_tempest.Machine.t

val register_reduction : t -> base:int -> nwords:int -> Reduction.t -> unit
(** Declare that the region [\[base, base+nwords)] holds reduction
    locations: reconciliation combines flushed values with the operator
    instead of last-writer-wins.  Applies at block granularity — the
    region is rounded out to whole blocks.  Ignored under a snooping
    policy: reductions on a coherent bus execute as ordinary atomic
    read-modify-writes. *)

val begin_parallel : t -> unit
(** Enter a parallel phase: subsequent write faults follow the policy's
    [parallel_write_grant].
    @raise Failure if fibers are still running; the caller (the C\*\*
    runtime) must be quiescent. *)

val reconcile : t -> unit
(** The [reconcile_copies()] directive: flush every node's modified
    copies, wait for all of them to reach their homes, promote pending
    copies to the new global state, invalidate outstanding read-only
    copies of modified blocks, advance the epoch and return to the
    sequential phase.  Runs the simulation to quiescence internally; on
    return all node clocks equal the barrier release time.
    @raise Failure if fibers are still running. *)

val conflicts : t -> Detect.conflict list
(** Write/write conflicts recorded so far (empty under {!Detect.Off}, and
    always under a snooping policy). *)

val races : t -> Detect.race list
(** Read/write races recorded so far (empty under {!Detect.Off}, and
    always under a snooping policy). *)

val check_invariants : t -> (unit, string list) result
(** Audit the global protocol state; intended for tests and debugging
    (call when the simulation is quiescent).  Both engines: no node has an
    access parked on a block ({!Lcm_tempest.Machine.parked}).  The bus
    engine's own audit is {!Proto_snoop.check_invariants}; the directory
    engine checks:

    - directory/line consistency: a remote exclusive owner actually holds a
      writable line, and nobody else holds any copy of that block; every
      recorded sharer's copy (if still cached) is read-only and — outside a
      parallel phase — equal to the master;
    - no transaction is stuck ([busy]/queued waiters when quiescent);
    - sequential phases have no [Lcm_modified] lines, no pending shadow
      copies and no LCM holders;
    - the home's backing line, when present and not a private LCM copy,
      holds the master's contents.

    Returns [Error messages] listing every violation found. *)

val peek : t -> int -> int
(** [peek t addr] reads the current coherent value of a word, bypassing
    the simulation (consults the exclusive owner's copy if one exists).
    For initialisation, result extraction and tests only. *)

val poke : t -> int -> int -> unit
(** [poke t addr v] writes a word directly into the master copy.  Only
    sound while no node caches the block (e.g. before the program starts);
    raises [Failure] if a remote copy exists. *)
