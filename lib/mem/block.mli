(** Cache-block payloads: fixed-size word arrays with the merge operation
    reconciliation needs.

    A block is the coherence and transfer unit of the machine (default
    8 words = 32 bytes).  LCM reconciliation works word-at-a-time under a
    dirty {!Lcm_util.Mask.t}. *)

type t = Word.t array
(** Mutable block contents.  All blocks in one machine share a length. *)

val make : words:int -> t
(** A zero-filled block. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] overwrites [dst] with [src].
    @raise Invalid_argument on length mismatch. *)

val equal : t -> t -> bool

val merge_masked : src:t -> dst:t -> mask:Lcm_util.Mask.t -> unit
(** [merge_masked ~src ~dst ~mask] copies exactly the masked words of [src]
    into [dst] (last-writer-wins reconciliation). *)
