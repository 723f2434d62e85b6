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

    The engine installs itself on a {!Lcm_tempest.Machine.t} as one
    {!Lcm_tempest.Machine.protocol} (read fault, write fault, directive
    and eviction handlers, with home backing lines on), and consists of
    message-driven state machines at each block's home plus a thin
    requester side.  {!Proto} states how LCM operates (Section 5.1 of
    the paper). *)

type t

val install :
  ?detection:Detect.setting ->
  ?barrier:Barrier.style ->
  policy:Policy.t ->
  Lcm_tempest.Machine.t ->
  t
(** [install ~policy machine] {!Lcm_tempest.Machine.install}s the
    protocol on [machine] and returns the instance handle.  [policy] must
    belong to the [Policy.Directory] family ([Invalid_argument] otherwise
    — snooping policies ride {!Proto_snoop}).  [detection] (default
    {!Detect.Off}) selects reconcile-time conflict and race recording;
    {!Detect.Strict} is rejected ([Invalid_argument]) under update-based
    reconciliation, whose updated copies satisfy reads without faulting.
    The eviction handler fires only on a machine created with a finite
    cache.  [barrier] selects the reconciliation-barrier timing model
    (default {!Barrier.Constant}). *)

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

val check_invariants : t -> (string -> unit) -> unit
(** [check_invariants t report] audits the global protocol state when
    quiescent, calling [report] once per violation, in ascending block
    order ({!Proto.check_invariants} collects them).  Checked invariants:

    - directory/line consistency: a remote exclusive owner actually holds a
      writable line, and nobody else holds any copy of that block; every
      recorded sharer's copy (if still cached) is read-only and — outside a
      parallel phase — equal to the master;
    - no transaction is stuck ([busy]/queued waiters when quiescent);
    - sequential phases have no [Lcm_modified] lines, no pending shadow
      copies and no LCM holders;
    - the home's backing line, when present and not a private LCM copy,
      holds the master's contents. *)

val peek : t -> Lcm_mem.Gmem.block -> int -> int
(** [peek t b off] reads the current coherent value of word [off] of
    block [b], bypassing the simulation (consults the exclusive owner's
    copy if one exists). *)

val poke : t -> Lcm_mem.Gmem.block -> int -> int -> unit
(** [poke t b off v] writes word [off] of block [b] directly into the
    master copy; raises [Failure] if a remote copy or a pending shadow
    exists. *)
