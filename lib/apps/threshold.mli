(** The Threshold benchmark (paper §6.3, Figure 3, Table 1).

    A stencil over a structured [n × n] mesh that only {e updates} a point
    when its new value differs from the old by more than a threshold.  The
    mesh starts at zero except for a few fixed sources, so very few cells
    (the paper reports 2.1%) change per iteration.

    The strategies differ exactly as in the paper:
    - explicit copy: every invocation writes its cell into the new mesh —
      updated or not — because values must move from the old buffer to the
      new one ("the program itself copies values that are not updated");
    - LCM: an invocation writes only when the cell actually changes, so the
      memory system copies only modified blocks. *)

type params = {
  n : int;
  iters : int;
  threshold : float;  (** relative change that triggers an update *)
  work_per_cell : int;
}

val params : n:int -> iters:int -> params
(** An [n × n] mesh for [iters] iterations, threshold 0.5, 4 work cycles
    per cell. *)

val paper : params
(** 512×512, 50 iterations. *)

val run : Lcm_cstar.Runtime.t -> params -> Bench_result.t

val reference : params -> float
(** Host-side sequential reference checksum. *)

val modified_fraction : Lcm_cstar.Runtime.t -> params -> float
(** Fraction of cells updated across the run (diagnostic; re-runs the
    benchmark counting updates). *)
