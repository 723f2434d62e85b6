(** Stale-data demo (paper §7.5).

    A toy 1-D N-body-style relaxation in which every body's update reads
    {e all} bodies ("contributions from distant elements are less
    significant than those of closer elements").  Two modes:

    - [`Fresh]: every iteration re-fetches remote bodies after
      reconciliation invalidates them — the conventional coherent
      behaviour;
    - [`Stale refresh_every]: each node pins its read-only copies of
      remote blocks so they survive reconciliation, and refreshes them only
      every [refresh_every] iterations — trading bounded staleness for far
      less communication.

    Stale runs compute slightly different (but converging) values; the
    harness reports the time saved alongside the result drift. *)

type mode = [ `Fresh | `Stale of int ]

type params = { bodies : int; iters : int; work_per_body : int }

val params : bodies:int -> iters:int -> params
(** [bodies] bodies for [iters] iterations, 2 work cycles per body. *)

val run : Lcm_cstar.Runtime.t -> mode -> params -> Bench_result.t
(** Requires an LCM-policy runtime (the [Lcm_directives] strategy). *)

val mode_name : mode -> string
