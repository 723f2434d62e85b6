(** Differential protocol stress harness and the spec it checks against.

    The paper's central claim (§3–§4) is that LCM's copy-on-write,
    merge-on-reconcile semantics are, for race-free programs, equivalent
    to executing each parallel phase against the phase-start state and
    applying all writes at once.  This module checks the protocol engine
    against that contract: it generates seeded random programs, runs them
    through the full simulated stack (machine, network, protocol,
    barriers, capacity evictions), and compares every outcome against
    {!spec} — a network-free abstract state machine of the per-epoch
    semantics, in the style of Schewe et al.'s concurrent-ASM
    specification of shared replicated memory:

    - reads during a parallel phase observe the phase-start value, or the
      reader's own private copy for blocks it has marked;
    - at reconcile, each word's new value is its unique writer's last
      store (last-writer-wins per word), or the registered reduction
      operator's combination of all contributions against the
      phase-start clean value;
    - an LCM flush hands the private copies back (the writer's next read
      sees the phase-start value again); a coherent flush is only a
      writeback;
    - sequential segments are ordinary coherent memory.

    After every segment the runner asserts equality with the spec
    word-for-word (via {!Lcm_core.Proto.peek}) plus
    {!Lcm_core.Proto.check_invariants}; predicted load values are also
    asserted inside the running fibers wherever they are
    schedule-independent (always in sequential segments; in parallel
    phases under LCM only with unbounded capacity — an eviction resets a
    node's private view — and under a coherent policy only for words no
    other node writes).  The model checker ({!Lcm_check.Check}) runs each
    explored schedule through the same runner, {!run_on}.

    Generated programs are race-free by construction (at most one writer
    per non-reduction word per phase; reductions restricted to exact
    integer operators so results do not depend on flush arrival order)
    and well-formed per the paper's compiler contract: a parallel write
    is explicitly marked whenever the writer might still hold a writable
    copy (its own home blocks, or blocks it wrote in an earlier
    sequential segment); other writes randomly rely on the implicit-mark
    backstop.  Sequential segments keep each node to its own word
    partition (word [w] belongs to node [w mod nnodes]).

    When a batch fails, {!run} shrinks its lowest-index failing program
    ({!shrink_with}) to a minimal reproducer and reports it together with
    the generating seed and case number. *)

(** One memory operation of a generated program.  Word indices are
    region-relative (the runner allocates one region and adds the base). *)
type op =
  | Load of int
  | Store of int * int
  | Rmw of int * int  (** fetch-and-add of the given delta *)
  | Accum of int * int  (** reduction accumulate with the region's operator *)
  | Mark of int  (** mark_modification of the word's block *)
  | Flush
  | Work of int
  | Yield

type segment = Sequential of op list array | Parallel of op list array
(** Per-node op lists; index = node id. *)

type prog = {
  seed : int;
  case : int;
  policy : Lcm_core.Policy.t;
  nnodes : int;
  words_per_block : int;
  nblocks : int;
  dist : Lcm_mem.Gmem.dist;
  topology : Lcm_net.Topology.t;
  barrier : Lcm_core.Barrier.style;
  capacity_blocks : int option;
  hw_cache_blocks : int option;
  reductions : (int * Lcm_core.Reduction.t) list;
      (** region block index -> operator *)
  init : (int * int) list;  (** word index -> initial value *)
  segments : segment list;
}
(** A generated program: machine shape (nodes, block size, distribution,
    topology, barrier style, capacity), reduction regions, initial
    values, and a list of sequential/parallel segments of per-node op
    lists.  The record is concrete so the model checker
    ({!Lcm_check.Check}) can build bounded configurations directly and
    tests can construct micro-programs by hand; hand-built programs must
    respect the well-formedness contract above (unique writer per
    non-reduction word per phase, marks on writes that may hit a writable
    copy). *)

val gen : seed:int -> case:int -> ?policy:Lcm_core.Policy.t -> unit -> prog
(** Deterministically generate case [case] of stream [seed].  [policy]
    forces the memory-system policy; otherwise each case draws one of
    {!Lcm_core.Policy.policies} (stache, lcm-scc, lcm-mcc, lcm-mcc-update,
    msi, mesi, moesi). *)

val spec : prog -> (int option list array * int array) list
(** The spec's verdict on a whole program, one entry per segment: the
    expected load values per node and op ([None] where the value is
    schedule-dependent and unchecked — see the module preamble) and the
    expected state after the segment (post-reconcile for parallel
    segments).  Pure: no machine, no network.
    @raise Failure on a program outside the well-formedness contract
    (an accum targeting a word outside every reduction region). *)

val machine : ?faults:Lcm_net.Faults.t -> prog -> Lcm_tempest.Machine.t
(** A fresh machine of the program's shape (nodes, block size, topology,
    capacity, hardware cache), over an unreliable interconnect when
    [faults] is given.  Callers may install hooks on it (trace, the
    engine's choice hook, the network's fault chooser) before {!run_on}. *)

val run_on :
  Lcm_tempest.Machine.t ->
  expect:(int option list array * int array) list ->
  prog ->
  (unit, string) result
(** Install the program's policy on a fresh {!machine}, register its
    reductions, poke the initial values, then run each segment to
    quiescence and check it against [expect] (which must be [spec prog];
    passing it in lets a caller running many schedules compute it once).
    [Error] carries every divergence found in the first diverging segment
    (load values, post-segment state, protocol invariants), or the
    exception that stopped the run: [Failure] or [Invalid_argument]
    (e.g. a deadlock), a typed {!Lcm_tempest.Machine.Stalled} (messages
    lost under a plan without retransmission), or
    {!Lcm_net.Network.Net_unreachable} (a message past the retry cap).
    Any other exception propagates, so a hook the caller installed can
    abort the run with its own. *)

val run_case : ?faults:Lcm_net.Faults.t -> prog -> (unit, string) result
(** [run_on (machine ?faults prog) ~expect:(spec prog) prog].  [faults]
    runs the case over an unreliable interconnect per the plan; because
    the spec is network-free, this is exactly the paper's
    fault-tolerance claim: with retransmission enabled the final semantic
    state must be identical to the fault-free run.
    @raise Failure as {!spec} does. *)

val shrink_with : ?max_tries:int -> (prog -> bool) -> prog -> prog
(** [shrink_with still_fails prog] greedily minimizes a failing program:
    repeatedly drop segments, then reduction regions (together with every
    accum targeting them — op retention is conditional on the region
    surviving, so shrinking never manufactures an accum outside any
    region), then whole per-node op lists, then single ops, keeping each
    candidate only if [still_fails] holds for it; stops at a fixpoint or
    after [max_tries] (default 300) predicate evaluations.  Individual
    marks are never dropped alone — that could turn a well-formed program
    into one with unmarked parallel writes, which the paper's contract
    does not cover.  {!run} shrinks against "{!run_case} still fails";
    the model checker against "re-exploration still finds a
    violation". *)

val pp_prog : Format.formatter -> prog -> unit

val run :
  ?policy:Lcm_core.Policy.t ->
  ?faults:Lcm_net.Faults.t ->
  ?jobs:int ->
  cases:int ->
  seed:int ->
  unit ->
  (unit, string) result
(** Run cases [0 .. cases-1] of stream [seed] on {!Lcm_fleet.Fleet.Pool}:
    each case generates its program ({!gen}) and runs it ({!run_case})
    inside its own cell, and every case always runs.  [Error] reports the
    {e lowest-index} failure only, the one case that is shrunk: its
    seed/case provenance, the original failure, the printed minimal
    reproducer with the command that regenerates it, and the reproducer's
    failure.  [jobs] (default 1; 0 = auto) is the pool's worker count; the
    result is the same at any count. *)
