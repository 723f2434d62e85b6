(** Named integer counters, max-gauges and scalar observations for
    simulation metrics.

    A {!t} is a registry local to one simulation run; protocols, the
    network and the runtime all bump counters through it, and the harness
    reads them out to build the paper's tables.  Counters accumulate by
    addition; {e gauges} are high-water marks written with
    {!Handle.set_max} and listed apart from the counters.

    {b One write path.}  A writer resolves a {{!Handle}handle} once
    ({!counter}, {!gauge}, {!sample}) and updates through it in O(1) with
    no hashing or allocation.  A name is listed from its first write:
    resolving a handle leaves no trace in {!counters}/{!gauges}/{!samples},
    so a pre-resolved counter that never fires is indistinguishable from
    one never mentioned, while a write that leaves a counter at 0 still
    lists it.  A handle is just a pre-hashed alias for its name (see
    COUNTERS.md). *)

type t

val create : unit -> t

(** {1 Handles (the write path)} *)

module Handle : sig
  type counter
  type gauge
  type sample

  val incr : counter -> unit

  val add : counter -> int -> unit

  val value : counter -> int
  (** Current value of the counter behind the handle (0 if never written). *)

  val set_max : gauge -> int -> unit
  (** Raise the gauge to the value if it is larger. *)

  val observe : sample -> float -> unit
  (** Record one observation (count, sum, min and max are retained). *)
end

val counter : t -> string -> Handle.counter
(** [counter s name] resolves a handle for counter [name].  Handles
    resolved for the same name share one cell. *)

val gauge : t -> string -> Handle.gauge
(** Resolve a gauge handle (the value is read with {!gauges}). *)

val sample : t -> string -> Handle.sample
(** Resolve an observation-series handle (read with {!samples}). *)

(** {1 Reading} *)

val get : t -> string -> int
(** [get s name] is the current value of counter [name] (0 if never
    touched).  Gauges are read with {!gauges}. *)

val counters : t -> (string * int) list
(** All counters, sorted by name (gauges excluded — see {!gauges}). *)

val gauges : t -> (string * int) list
(** All gauges, sorted by name. *)

type summary = { count : int; mean : float; min : float; max : float }
(** Digest of one non-empty observation series ([count > 0] always —
    empty series have no meaningful min/max and are never summarized). *)

val samples : t -> (string * summary) list
(** All {e observed} series, summarized, sorted by name; series that were
    never observed (e.g. only resolved as handles) are omitted. *)

val pp : Format.formatter -> t -> unit
(** Render all counters, then all gauges, then all samples
    ([count]/[mean]/[min]/[max]), one per line, sorted by name. *)
