(** Small bit masks over word indices within a cache block.

    LCM tracks, for every locally-modified (marked) block, exactly which
    words the running invocation has stored to.  Reconciliation then merges
    only masked words and detects conflicts as overlapping masks.  Blocks in
    this code base hold at most {!max_words} words, so a mask fits in a
    native [int]. *)

type t = private int
(** A set of word indices in [\[0, max_words)]. *)

val max_words : int
(** Largest supported block size, in words. *)

val empty : t
(** The empty mask. *)

val full : int -> t
(** [full n] has bits [0 .. n-1] set.  @raise Invalid_argument if [n] is
    not in [\[0, max_words\]]. *)

val set : t -> int -> t
(** [set m i] is [m] with bit [i] added. *)

val mem : t -> int -> bool
(** [mem m i] tests bit [i]. *)

val union : t -> t -> t
val inter : t -> t -> t

val is_empty : t -> bool

val overlaps : t -> t -> bool
(** [overlaps a b] is [not (is_empty (inter a b))]. *)

val cardinal : t -> int
(** Number of set bits. *)

val iter : t -> (int -> unit) -> unit
(** [iter m f] applies [f] to each set bit index in increasing order. *)

val to_list : t -> int list
(** Set bit indices in increasing order. *)

val of_list : int list -> t

val pp : Format.formatter -> t -> unit
(** Renders e.g. [{0,3,7}]. *)
