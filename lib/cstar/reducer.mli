(** Reduction variables — C\*\*'s reduction assignments ([total %+= x]).

    Under the [Lcm_directives] strategy, {!add} compiles exactly as the paper
    describes: the location is marked, the invocation accumulates into its
    private copy, and the registered {!Lcm_core.Reduction.t} combines the
    copies at reconciliation.

    Under the [Explicit_copy] strategy, {!add} follows
    the hand-coded baseline of Section 7.1: each node accumulates into a
    node-local partial (placed in its own cache block to avoid false
    sharing), and the runtime folds the partials into the global variable
    in a sequential step after the parallel call. *)

type t

val create :
  Lcm_core.Proto.t ->
  strategy:Agg.strategy ->
  op:Lcm_core.Reduction.t ->
  init:int ->
  t
(** Allocate the reduction variable (home: node 0) holding word [init];
    under the explicit-copy strategy also allocate one partial per node. *)

val add : Ctx.t -> t -> int -> unit
(** [add ctx t v] combines [v] into the reduction from an invocation
    (effectful; fiber code only). *)

val addf : Ctx.t -> t -> float -> unit
(** Float variant; the operator must be one of the [f32_*] reductions. *)

val read : t -> int
(** Non-effectful read of the current global value (sequential phases
    only). *)

val readf : t -> float

val setf : t -> float -> unit
(** Non-effectful reset of the global value; only sound when no copies are
    outstanding. *)

val finalize : t -> unit
(** Fold per-node partials into the global variable and reset them (no-op
    under [Lcm_directives]).  Must run from fiber code in a sequential phase; the
    runtime calls this after each parallel apply that names the reducer. *)
