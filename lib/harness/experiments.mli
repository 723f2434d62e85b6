(** The paper's evaluation, experiment by experiment.

    Each family is a list of {e cells}: independent (benchmark ×
    memory-system) simulations that share no mutable state, so
    {!Lcm_fleet.Fleet.Pool.run} can run them across domains.  Figure 2 is
    Stencil (static and dynamic) under the three systems; Figure 3 is
    Adaptive (static and dynamic), Threshold and Unstructured; Table 1's
    miss/clean-copy counters come from the same runs.  The ablations
    cover the paper's §7 extensions and the design choices DESIGN.md
    calls out.

    The differential check relies on one rule: cells that share an
    experiment compute the same result, so a family gives a cell whose
    result differs by design (a stale-data refresh mode) an experiment of
    its own. *)

type scale = Tiny | Quick | Paper
(** [Tiny] is for the test suite (seconds); [Quick] shrinks problem sizes
    so the whole suite runs in about a minute; [Paper] uses the paper's
    parameters (1024×1024 meshes etc. — tens of minutes of host time).
    For ablations, [Quick] keeps the historical fixed sizes and [Paper]
    is an alias for [Quick] (their conclusions are scale-insensitive). *)

val scale_to_string : scale -> string
val scale_of_string : string -> (scale, string) result

type row = {
  experiment : string;  (** e.g. ["stencil-stat"] *)
  system : string;  (** e.g. ["LCM-mcc"] *)
  result : Lcm_apps.Bench_result.t;
}

type cells = (string * (unit -> row)) list
(** Independent simulation cells: [(label, thunk)], label
    ["<experiment>/<system>"].  Each thunk builds its own machine, runs
    one simulation, {!audit}s it (raising [Failure] on a violation) and
    returns its row. *)

val audit :
  experiment:string -> system:string -> Lcm_cstar.Runtime.t ->
  (unit, string) result
(** The protocol audit every finished run gets, in a cell or from a
    single-benchmark command: {!Lcm_core.Proto.check_invariants} on the
    runtime's protocol.  [Error] names the run
    (["<experiment>/<system>"]) and lists every violation. *)

val run_cells : cells -> row list
(** Execute cells sequentially in list order — the reference semantics
    every parallel sweep must match. *)

val figure2_cells : scale:scale -> Config.machine -> cells
(** Stencil execution time: static and dynamic partitioning × LCM-scc,
    LCM-mcc, Stache+copy. *)

val figure3_cells : scale:scale -> Config.machine -> cells
(** Adaptive (static & dynamic), Threshold, Unstructured × the three
    systems. *)

val group_by_experiment : row list -> (string * row list) list
(** Rows grouped by experiment, preserving first-appearance order. *)

val verify_agreement : row list -> (string * bool) list
(** For each experiment, whether all systems produced the same checksum —
    the differential guarantee behind every comparison. *)

(** {1 Claim checks (paper §6.3 prose)} *)

type claim = {
  id : string;
  description : string;
  paper : string;  (** the paper's reported number, as prose *)
  measured : float;  (** our measured ratio *)
  holds : bool;  (** does the measured direction match the paper's? *)
}

val claims : row list -> claim list
(** Evaluate every quantitative §6.3 claim against the rows of
    {!figure2_cells} and {!figure3_cells}. *)

(** {1 Ablations} *)

val ablation_reduction_cells : scale:scale -> Config.machine -> cells
(** §7.1: RSM-reconciled vs hand-coded vs serialized global sum. *)

val ablation_false_sharing_cells : scale:scale -> Config.machine -> cells
(** §7.4: falsely-shared blocks under Stache vs LCM. *)

val ablation_stale_cells : scale:scale -> Config.machine -> cells
(** §7.5: N-body with fresh vs increasingly stale remote data, one
    experiment per refresh mode ([nbody-fresh], [nbody-stale-K]). *)

val ablation_block_reuse_cells : scale:scale -> Config.machine -> cells
(** scc vs mcc as words-per-block (spatial reuse per block) varies — the
    clean-copy-placement design choice. *)

val ablation_schedule_cells : scale:scale -> Config.machine -> cells
(** Stencil under static / rotating / random scheduling for LCM-mcc and
    Stache — scheduling sensitivity. *)

val ablation_topology_cells : scale:scale -> Config.machine -> cells
(** Dynamic stencil across crossbar / 2-D mesh / fat-tree interconnects. *)

val ablation_scaling_cells : scale:scale -> Config.machine -> cells
(** Weak scaling: fixed per-node stencil band while the machine grows from
    4 to 32 nodes. *)

val dir_vs_snoop_cells : scale:scale -> Config.machine -> cells
(** Directory-vs-snooping-bus crossover: the weak-scaling stencil on
    Stache (point-to-point fat tree, home blocks local) and MESI (shared
    arbitrated bus, every miss broadcast).  A bus miss is individually
    cheap — one transaction, no directory round trips — but the single
    medium serializes them all, so the cycle ratio widens with P as
    [bus.arb_stall_cycles] takes over the critical path.  Both engines
    are coherent, so the checksums agree cell-for-cell. *)

val ablation_cost_sensitivity_cells : scale:scale -> Config.machine -> cells
(** Stencil comparisons under communication costs scaled ×0.5/×1/×2 —
    checks that who-wins conclusions are robust to the cost constants. *)

val ablation_detection_cells : scale:scale -> Config.machine -> cells
(** Cost of run-time violation detection: off, reconcile-time only, and
    strict (§7.2–7.3's "flush all read-only blocks" mode). *)

val ablation_update_cells : scale:scale -> Config.machine -> cells
(** Invalidate- vs update-based reconciliation (the other end of the RSM
    reconcile-policy axis) on the stencil. *)

val ablation_barrier_cells : scale:scale -> Config.machine -> cells
(** Reconciliation barrier organised as a constant-cost network, a flat
    central coordinator, or a combining tree (paper §5.1), at two machine
    sizes. *)

val ablation_capacity_cells : scale:scale -> Config.machine -> cells
(** Stencil-stat under Stache with an unbounded vs small cache — the
    paper's "on a machine with a limited cache" remark (see EXPERIMENTS.md
    for why this model shows no slowdown). *)

val families : (string * (scale:scale -> Config.machine -> cells)) list
(** Every experiment family by name — the figures plus all ablations —
    for sweep drivers and the parallel-equivalence tests. *)
