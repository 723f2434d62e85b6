(** Deterministic run digests for before/after equivalence checking.

    Host-performance work on the simulator (hot-path caches, pre-resolved
    counters, flat channel tables) must never change what a simulation
    {e computes}.  A {!t} condenses everything observable about a finished
    run — the final memory image, every counter/gauge/sample, the full
    retained trace event sequence, and the final clock — into FNV-1a
    digests that are independent of hash-table iteration order.  Tests
    record the digests of fixed-seed workloads once and assert later
    builds reproduce them bit-for-bit. *)

type t = {
  cycles : int;  (** final [Machine.max_clock] *)
  mem : int64;  (** digest of every allocated word, in address order *)
  counters : int64;
      (** digest of all counters, gauges and samples, in sorted-name order *)
  trace : int64;  (** digest of the retained trace event sequence *)
  trace_events : int;  (** number of retained trace events *)
}

val of_runtime : Lcm_cstar.Runtime.t -> t
(** Digest a quiescent runtime (reads memory via {!Lcm_core.Proto.peek},
    so outstanding exclusive copies are followed). *)

val to_string : t -> string
(** ["cycles=%d mem=%Lx counters=%Lx trace=%Lx/%d"] — the format the
    equivalence tests record. *)

val equal : t -> t -> bool
