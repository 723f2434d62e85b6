(** Stateless small-scope model checker over the real simulated stack.

    The simulation is deterministic except for the order in which events
    tied at the same timestamp commit — and, under a fault plan, each
    message copy's fate.  {!Lcm_sim.Engine.set_choice_hook} and
    {!Lcm_net.Network.set_fault_chooser} expose exactly those decision
    points, so enumerating them enumerates every behaviour a bounded
    configuration can exhibit: exploration is a stateless DFS over
    forced-choice prefixes (each run replays a recorded prefix and takes
    the FIFO default beyond it), pruned by partial-order reduction — a
    persistent-set heuristic keyed on the events' node-ownership
    footprint.  Every explored schedule drives the {e real} stack
    (machine, network, protocol, barriers) through the stress harness's
    runner, {!Lcm_harness.Stress.run_on}, and is checked against the same
    abstract-state-machine spec, {!Lcm_harness.Stress.spec}, plus
    {!Lcm_core.Proto.check_invariants}; a violating schedule is a list of
    choice indices that replays deterministically.

    See DESIGN.md § "Small-scope model checking" for the soundness
    argument and the bounds. *)

(** {1 Statistics} *)

type stats = {
  mutable schedules : int;  (** complete interleavings executed *)
  mutable transitions : int;
      (** events committed across all runs: each run's
          {!Lcm_sim.Engine.events_processed} *)
  mutable choice_points : int;  (** decision points with >= 2 candidates *)
  mutable branches : int;  (** alternatives pushed for later exploration *)
  mutable sleep_prunes : int;
      (** always 0.  The sleep sets it counted never pruned a branch and
          were deleted; the field stays because lcmbench's [check]
          workload sums it into [check.prunes]. *)
  mutable pset_prunes : int;  (** alternatives suppressed as independent *)
  mutable fault_points : int;  (** per-copy fault decision points *)
  mutable max_depth : int;  (** deepest choice position seen *)
}
(** Exploration counters, reported as the [check.*] series (see
    COUNTERS.md).  Mutated in place so one record can accumulate across
    configurations. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Exploration} *)

type violation = {
  v_label : string;  (** which configuration (scenario/micro name) *)
  v_prog : Lcm_harness.Stress.prog;
  v_schedule : int list;  (** choice indices; replays deterministically *)
  v_report : string;  (** the spec/invariant divergences found *)
  v_fault_budget : int;
  v_dup : bool;
}

type outcome =
  | Exhausted  (** every interleaving within the bounds explored, no bug *)
  | Capped  (** schedule cap hit before the space was exhausted *)
  | Found of violation

val explore :
  ?label:string ->
  ?max_schedules:int ->
  ?fault_budget:int ->
  ?dup:bool ->
  ?reduce:bool ->
  Lcm_harness.Stress.prog ->
  outcome * stats
(** Exhaustively explore the schedule space of one bounded configuration
    (up to [max_schedules], default 20_000), stopping at the first
    violation.  [fault_budget] (default 0) composes the space with up to
    that many per-copy fault choices — drop, and also duplicate with
    [dup] — through the network's fate oracle, with the reliable
    envelope's retransmission live so dropped copies must be recovered.
    [reduce] (default true) enables the partial-order reduction; with it
    off, every interleaving is enumerated — cross-checking the reduction
    on tiny configurations.  Reduction only prunes branching, never
    changes what a given schedule executes, so verdicts and recorded
    schedules are identical either way. *)

val replay :
  ?fault_budget:int ->
  ?dup:bool ->
  schedule:int list ->
  Lcm_harness.Stress.prog ->
  (unit, string) result * (int * Lcm_sim.Trace.event) list
(** Re-execute one schedule: choice point [i] takes candidate
    [schedule.(i)], FIFO default (index 0) beyond the list's end — so
    [[]] is the plain FIFO run.  The verdict is
    {!Lcm_harness.Stress.run_on}'s.  A replay must use every entry: a
    schedule that asks a choice point for a candidate it does not have,
    or has entries past the run's last choice point, is the [Error]
    ["replay diverged: stale schedule"].  The run is traced: the
    returned events render through {!Lcm_harness.Traceview}. *)

val shrink_violation : violation -> violation
(** Shrink to a minimal (configuration, schedule) counterexample:
    configuration first via {!Lcm_harness.Stress.shrink_with} (at most
    120 candidates; one survives only if a re-exploration of at most 400
    schedules still finds a violation, which also refreshes the
    schedule), then the schedule against the fixed configuration: strip
    trailing defaults, shorten, lower entries toward 0 — each candidate
    validated by a full replay that uses every entry — keeping the
    smallest still-failing schedule found. *)

val pp_violation : Format.formatter -> violation -> unit

(** {1 Schedule strings} *)

val schedule_to_string : int list -> string
(** Dot-separated choice indices; the empty schedule prints as ["-"]. *)

val schedule_of_string : string -> (int list, string) result

(** {1 Bounded configurations} *)

val scenarios :
  policy:Lcm_core.Policy.t -> (string * Lcm_harness.Stress.prog) list
(** The fixed bounded scenarios (2–3 nodes, 1–2 blocks, short op
    sequences), one per protocol corner: reader/writer sharing,
    cross-block write exchange, reduction merge, sequential-then-parallel
    handoff, mid-phase flush, capacity eviction, three-node sharing.
    Every scenario respects the stress harness's well-formedness
    contract, so {!Lcm_harness.Stress.spec} applies. *)

val configs :
  ?scenario:string ->
  ?random:int ->
  ?seed:int ->
  policy:Lcm_core.Policy.t ->
  unit ->
  ((string * Lcm_harness.Stress.prog) list, string) result
(** [configs ~policy ()] is every labelled configuration a check run
    explores under [policy], in order: each fixed scenario ({!scenarios})
    as [scenario:NAME], then [random] (default 0) deterministic seeded
    micro-configurations within the checker's bounds (2–3 nodes, 1–2
    blocks, <= 3 ops per node per segment) as [micro:seed=S:case=C],
    [seed] (default 0) choosing the stream.  With [scenario], the one
    configuration that label names (any label [configs] gives, or a bare
    fixed scenario name) takes the fixed scenarios' place; an [Error]
    says that nothing answers to it.  A label names the same
    configuration under every policy. *)
