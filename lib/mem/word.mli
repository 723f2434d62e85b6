(** Memory words and codecs.

    The simulated machine is word-addressed with 32-bit words, like the
    CM-5 nodes the paper measured ("a cache block holds eight
    single-precision floats").  A word is carried in a native OCaml [int];
    floating-point data uses the IEEE-754 single-precision bit pattern so
    that a word round-trips exactly through memory, messages and
    reconciliation. *)

type t = int
(** One memory word. *)

val zero : t

val of_float : float -> t
(** [of_float f] is the single-precision bit pattern of [f] (with the usual
    float32 rounding). *)

val to_float : t -> float
(** Inverse of {!of_float}. *)

val of_int : int -> t
(** [of_int n] truncates [n] to 32 bits (two's complement). *)

val to_int : t -> int
(** Sign-extends the low 32 bits back to an OCaml int. *)

val float_add : t -> t -> t
(** Single-precision [a + b] performed on encoded words. *)

val float_min : t -> t -> t

val float_max : t -> t -> t
