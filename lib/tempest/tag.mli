(** Fine-grain access-control tags.

    Every node attaches one tag to each cache block it holds, exactly as
    Blizzard-E attaches ECC-based tags to memory blocks.  Loads require a
    readable tag, stores a writable one; a violation raises an access fault
    that is vectored to the user-level protocol handler registered on the
    node (the Tempest mechanism the whole paper builds on). *)

type t =
  | Invalid  (** no valid copy: any access faults *)
  | Read_only  (** loads hit; stores fault *)
  | Writable  (** loads and stores hit (exclusive, under Stache) *)
  | Lcm_modified
      (** an inconsistent, private writable copy created by
          [mark_modification]; stores additionally record per-word dirty
          bits for reconciliation *)

val readable : t -> bool

val writable : t -> bool

val to_string : t -> string
