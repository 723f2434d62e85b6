(** Deterministic pseudo-random number generator (SplitMix64).

    Every simulation draws randomness exclusively through values of this
    type, so a fixed seed reproduces event-for-event identical runs on any
    platform. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a generator whose stream is fully determined by
    [seed]. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)
