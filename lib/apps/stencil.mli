(** The Stencil benchmark (paper §6.1, Figure 2).

    A four-point stencil over a fixed [n × n] single-precision mesh: every
    invocation reads its four neighbours and writes its own value, the
    canonical C\*\* parallel function.  The paper ran 50 iterations on a
    1024×1024 mesh on 32 processors, in two scheduling variants:

    - {e Stencil-stat}: the mesh is partitioned once ([Schedule.Static]) —
      the case a compiler can analyse, where Stache keeps chunk interiors
      resident and wins;
    - {e Stencil-dyn}: the mesh is re-partitioned every iteration
      ([Schedule.Dynamic_*]) — the case where LCM-mcc matches or beats
      Stache.

    Under the explicit-copy strategy the aggregate is double-buffered and
    swapped per iteration (the pointer-swap code of §6.1); under LCM every
    write is marked and reconciliation merges the new mesh. *)

type params = {
  n : int;  (** mesh edge length *)
  iters : int;
  work_per_cell : int;  (** extra compute cycles charged per invocation *)
}

val params : n:int -> iters:int -> params
(** An [n × n] mesh for [iters] iterations, at 4 work cycles per cell. *)

val paper : params
(** 1024×1024, 50 iterations — the paper's configuration. *)

val run : Lcm_cstar.Runtime.t -> params -> Bench_result.t
(** Build, initialise, iterate and fingerprint the mesh.  The result's
    [cycles] covers the iteration loop only (initialisation excluded). *)

val reference : params -> float
(** Checksum of a host-side sequential reference implementation (float32
    arithmetic), for validating simulated runs. *)
