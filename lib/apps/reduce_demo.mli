(** Global-reduction demo (paper §7.1).

    Sums a distributed array into a single variable three ways:

    - [`Rsm_reconcile]: every invocation accumulates into the shared
      location through an LCM private copy; RSM reconciliation combines the
      per-processor accumulators ("a compiler that detects the reduction
      could choose a reconciliation function for total's cache block");
    - [`Manual_partials]: the hand-written shared-memory version — each
      processor reduces its portion into a private variable, a sequential
      step sums the partials;
    - [`Serialized]: the naive version that updates the single shared
      location with ordinary coherent writes, making the variable's block
      ping-pong between processors (what a lock around [total] would
      cost). *)

type variant = [ `Rsm_reconcile | `Manual_partials | `Serialized ]

type params = { n : int; per_add_work : int }

val params : n:int -> params
(** [n] elements, 2 work cycles per add. *)

val run : Lcm_cstar.Runtime.t -> variant -> params -> Bench_result.t
(** The checksum is the final sum; all variants must agree.  Run
    [`Rsm_reconcile] on an LCM-policy runtime and the two baselines on a
    Stache-policy runtime (the serialized variant relies on coherent
    exclusive ownership for its atomic adds). *)

val variant_name : variant -> string

val expected_sum : params -> int
