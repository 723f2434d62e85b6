(** Uniform result record for benchmark runs.

    [checksum] fingerprints the final data so the harness can assert that
    every protocol/strategy combination computed the same answer —
    the differential test backing every performance comparison. *)

type t = {
  name : string;  (** benchmark plus variant, e.g. ["stencil-stat"] *)
  cycles : int;  (** simulated execution time of the measured loop *)
  checksum : float;  (** fingerprint of the final data *)
  faults : int;  (** access faults (the paper's "cache misses") *)
  remote_fetches : int;  (** block fetches that crossed the network *)
  clean_copies : int;  (** LCM clean copies created (0 for Stache) *)
  messages : int;  (** total network messages *)
  counters : (string * int) list;  (** every counter of the run, sorted *)
  gauges : (string * int) list;
      (** high-water-mark gauges (e.g. ["lcm.peak_clean_copies"]), sorted *)
  samples : (string * Lcm_util.Stats.summary) list;
      (** observation series (e.g. ["cstar.phase_cycles"]), summarized,
          sorted *)
}

val message_breakdown : t -> (string * int) list
(** Per-message-class counts (the ["msg.*"] counters, prefix stripped),
    sorted by descending count. *)

val make :
  name:string -> cycles:int -> checksum:float -> stats:Lcm_util.Stats.t -> t
(** Extract the standard counters from a run's statistics. *)

val measure : Lcm_cstar.Runtime.t -> name:string -> (unit -> float) -> t
(** [measure rt ~name f] runs [f], the measured part of a benchmark that
    returns its checksum, and {!make}s the result: [cycles] is how far
    {!Lcm_cstar.Runtime.elapsed} moved during [f], the counters are read
    after it. *)

val close : t -> t -> bool
(** [close a b] — checksums agree within relative tolerance 1e-4
    (float32 arithmetic orders differ between protocols only through
    reduction reassociation, which the benchmarks avoid). *)

val pp : Format.formatter -> t -> unit
