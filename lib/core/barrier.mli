(** Reconciliation-barrier timing models.

    [reconcile_copies()] ends with a global barrier: every node joins once
    its flushes are acknowledged, and all nodes release together.  The
    paper notes that reconciliation "could be organized as a tree-
    structured reduction" if the barrier became a bottleneck on large
    systems (§5.1).  This module prices both organisations:

    - [Constant]: an abstract barrier costing
      [barrier_base + nnodes * barrier_per_node] cycles after the last
      join — the default, calibrated like a hardware barrier network (the
      CM-5 had one);
    - [Flat]: every node sends a join message to a coordinator whose
      protocol processor handles them serially, then broadcasts release —
      linear in [P];
    - [Tree arity]: joins combine up an [arity]-ary tree and the release
      broadcasts back down — logarithmic depth, the paper's suggestion.

    The models are analytic (they map join times to a release time) so
    they can be swapped without re-running the event simulation.

    {!release} ends a phase for both coherence engines; an engine only
    decides when each node joined. *)

type style = Constant | Flat | Tree of int

val release_time :
  costs:Lcm_sim.Costs.t -> style:style -> join_times:int array -> int
(** [release_time ~costs ~style ~join_times] is the cycle at which every
    node resumes, given each node's join time.
    @raise Invalid_argument on an empty array or [Tree arity] with
    [arity < 2]. *)

val release :
  Lcm_tempest.Machine.t ->
  style:style ->
  join_times:int array ->
  not_before:int ->
  unit
(** [release mach ~style ~join_times ~not_before] ends a phase at the
    later of {!release_time} and [not_before]: adds each node's wait
    (release minus its join time) to [lcm.barrier_wait_cycles], sets every
    node clock to the release, advances the epoch, emits
    [Barrier_release] then [Epoch_advance], and returns the machine to its
    sequential phase.  [join_times] has one entry per node. *)

val of_string : string -> (style, string) result
(** ["constant"], ["flat"], ["tree:<arity>"]. *)

val to_string : style -> string
