(** The C\*\* language runtime: parallel function application.

    A C\*\* program alternates sequential phases with parallel calls.  The
    runtime drives both against a machine with an installed protocol:

    - {!parallel_apply} creates one invocation per aggregate element,
      schedules them onto nodes per the {!Schedule.t}, runs them as fibers
      (issuing [flush_copies] between invocations when the compiler cannot
      prove they touch distinct locations), and ends the phase with
      [reconcile_copies] — a plain barrier under the Stache policy;
    - {!sequential} runs ordinary code on one node.

    The {e strategy} is what the C\*\* compiler emitted, and the
    protocol's policy decides it ({!Lcm_core.Policy.is_lcm}):
    [Lcm_directives] relies on the memory system (marks + reconcile);
    [Explicit_copy] is the conservative baseline that double-buffers
    aggregates and hand-codes reductions. *)

type strategy = Agg.strategy = Lcm_directives | Explicit_copy

type t

val create : Lcm_core.Proto.t -> schedule:Schedule.t -> t
(** A runtime over an installed protocol: [Lcm_directives] under an LCM
    policy, [Explicit_copy] under every coherent one (Stache and the bus
    family).  Each parallel call runs one chunk of invocations per node. *)

val proto : t -> Lcm_core.Proto.t
val machine : t -> Lcm_tempest.Machine.t
val strategy : t -> strategy

val alloc2d : t -> rows:int -> cols:int -> dist:Lcm_mem.Gmem.dist -> Agg.t
(** Allocate an aggregate with the runtime's strategy. *)

val alloc1d : t -> n:int -> dist:Lcm_mem.Gmem.dist -> Agg.t

val reducer : t -> op:Lcm_core.Reduction.t -> init:int -> Reducer.t

val parallel_apply :
  t ->
  ?iter:int ->
  ?reducers:Reducer.t list ->
  ?flush_between:bool ->
  ?schedule:Schedule.t ->
  n:int ->
  (Ctx.t -> unit) ->
  unit
(** Apply a parallel function over indices [\[0, n)].  [reducers] names the
    reduction variables the function updates, so the explicit-copy strategy
    can fold their partials afterwards.  [flush_between] (default [true])
    issues [flush_copies] between consecutive invocations on a node under
    [Lcm_directives]; the compiler omits these flushes when analysis shows
    no invocation reads a location another may have marked (e.g. pure
    reductions).  [schedule] overrides the runtime's schedule for this
    call — e.g. a hand-written copy loop stays statically partitioned even
    when the parallel function is dynamically scheduled.
    On return the phase is complete, memory is reconciled and all node
    clocks equal the release time. *)

val parallel_apply_2d :
  t ->
  ?iter:int ->
  ?reducers:Reducer.t list ->
  ?flush_between:bool ->
  ?schedule:Schedule.t ->
  rows:int ->
  cols:int ->
  (Ctx.t -> int -> int -> unit) ->
  unit
(** Row-major 2-D apply; the body receives [(ctx, i, j)] with [i]/[j] as
    C\*\*'s [#0]/[#1]. *)

val sequential : t -> ?node:int -> (unit -> unit) -> unit
(** Run a sequential phase (fiber code) on [node] (default 0); on return
    all node clocks are synchronised to its completion time. *)

val elapsed : t -> int
(** Current simulated time: the maximum node clock. *)

val stats : t -> Lcm_util.Stats.t

(** {1 Per-phase metrics} *)

type phase = {
  label : string;  (** ["parallel#N"], N counting from 1 *)
  cycles : int;  (** phase duration, including reconciliation *)
  deltas : (string * int) list;
      (** counters that changed during the phase, with their increment,
          in {!Lcm_util.Stats.counters} order *)
}

val enable_phase_log : t -> unit
(** Start recording a {!phase} for every {!parallel_apply}; off by
    default (recording copies every counter twice per phase). *)

val phase_log : t -> phase list
(** Recorded phases, oldest first ([[]] when logging is off);
    {!Lcm_harness.Report.phases} renders them. *)
