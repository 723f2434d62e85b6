(** Reconciliation functions for reduction assignments.

    C\*\*'s reduction assignments ([total %+= x]) combine values written
    into a location by many invocations with a binary associative operator
    (Section 4.2 of the paper).  Under LCM each invocation accumulates into
    its private copy, whose initial value is the phase-start ("clean")
    value; at reconciliation the home combines each returned copy into the
    pending global value.

    [combine ~clean ~current ~incoming] merges one returned word:
    - [clean] is the phase-start value of the word (the accumulation
      baseline every private copy started from);
    - [current] is the value accumulated at the home so far;
    - [incoming] is the word arriving in a flushed copy.

    For non-idempotent operators (sum, xor) the contribution is recovered
    by "subtracting" [clean] from [incoming]; for idempotent lattice
    operators (min, max, and, or) [incoming] can be combined directly. *)

type t = {
  name : string;
  identity : Lcm_mem.Word.t;
      (** the operator's identity element — the initial value of a private
          accumulator in the hand-coded (explicit-copy) baseline *)
  apply : Lcm_mem.Word.t -> Lcm_mem.Word.t -> Lcm_mem.Word.t;
      (** the plain binary operator, used by baseline code that folds
          per-processor partial results *)
  combine : clean:Lcm_mem.Word.t -> current:Lcm_mem.Word.t -> incoming:Lcm_mem.Word.t -> Lcm_mem.Word.t;
}

val int_sum : t
(** 32-bit integer sum. *)

val f32_sum : t
(** Single-precision float sum (values encoded with {!Lcm_mem.Word.of_float}). *)

val int_min : t
val int_max : t
val f32_min : t
val f32_max : t
val band : t
(** Bitwise and. *)

val bor : t
(** Bitwise or. *)

val bxor : t
(** Bitwise exclusive-or (non-idempotent: uses the clean baseline). *)

val all : t list
