(** The directory-family RSM protocol engine — the paper's primary
    contribution.  Use {!Proto} unless you specifically need this engine:
    the facade dispatches on the policy's family and presents one type for
    directory and snooping policies alike.

    One generic home-directory protocol engine, parameterised by a
    directory-family {!Policy.t}, implements all three memory systems the
    paper measures:

    - {b Stache} — sequentially-consistent user-level directory protocol:
      single-writer invalidation coherence, home-based full directory, the
      node's memory as a large cache for remote blocks;
    - {b LCM-scc} — loosely-coherent memory with a single clean copy at the
      home node;
    - {b LCM-mcc} — LCM with clean copies on every caching node.

    The engine installs itself on a {!Lcm_tempest.Machine.t}: it owns the
    read-fault, write-fault, directive and eviction hooks, and consists of
    message-driven state machines at each block's home plus a thin
    requester side.

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
    returns the instance handle.  [policy] must belong to the
    [Policy.Directory] family ([Invalid_argument] otherwise — snooping
    policies ride {!Proto_snoop}).  [detection] (default {!Detect.Off})
    selects reconcile-time conflict and race recording; {!Detect.Strict}
    is rejected ([Invalid_argument]) under update-based reconciliation,
    whose updated copies satisfy reads without faulting.  The eviction
    hook is always registered; it fires only on a machine created with a
    finite cache.  [barrier] selects the reconciliation-barrier timing
    model (default {!Barrier.Constant}). *)

val policy : t -> Policy.t

val machine : t -> Lcm_tempest.Machine.t

val register_reduction : t -> base:int -> nwords:int -> Reduction.t -> unit
(** Declare that the region [\[base, base+nwords)] holds reduction
    locations: reconciliation combines flushed values with the operator
    instead of last-writer-wins.  Applies at block granularity — the
    region is rounded out to whole blocks. *)

val reconcile : t -> unit
(** The [reconcile_copies()] directive: flush every node's modified
    copies, wait for all of them to reach their homes, promote pending
    copies to the new global state, invalidate outstanding read-only
    copies of modified blocks, then {!Barrier.release} no earlier than the
    last sweep acknowledgement.  Runs the simulation to quiescence
    internally; on return all node clocks equal the barrier release
    time. *)

val conflicts : t -> Detect.conflict list
(** Write/write conflicts recorded so far (empty under {!Detect.Off}). *)

val races : t -> Detect.race list
(** Read/write races recorded so far (empty under {!Detect.Off}). *)

val touch_entry : t -> int -> unit
(** Materialise the directory entry for a block, validating the block
    number: an unallocated block raises a typed [Failure] naming it —
    the same guard every message handler's entry lookup goes through,
    so a corrupt block number in a message fails loudly instead of
    minting a ghost entry.  White-box probe for tests and debugging. *)

val check_invariants : t -> (unit, string list) result
(** Audit the global protocol state; intended for tests and debugging
    (call when the simulation is quiescent).  Checked invariants:

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
