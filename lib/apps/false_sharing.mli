(** False-sharing demo (paper §7.4).

    [writers] processors repeatedly update disjoint words that share cache
    blocks (processor [p] owns word [p mod wpb] of every block).  Under an
    invalidation protocol each write must acquire the block exclusively, so
    blocks ping-pong; under LCM each processor gets a private copy and
    reconciliation merges the disjoint words — "each process can have its
    own copy of the block and compute without contending for access". *)

type params = {
  blocks : int;  (** shared blocks being falsely shared *)
  rounds : int;  (** update rounds per processor *)
}

val run : Lcm_cstar.Runtime.t -> params -> Bench_result.t
(** The checksum sums the final words; identical across protocols. *)
