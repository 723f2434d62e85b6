(** Hash tables keyed by [int], for the block tables on the simulator's
    access and message paths.

    The stdlib's polymorphic [Hashtbl] hashes an int key with [caml_hash]
    and compares it with [compare_val], two C calls per lookup.  This
    table hashes a key to itself and compares with [(=)] on ints.  A
    bucket is picked by the key's low bits (the table's power-of-two
    mask), and the keys it serves vary there: block numbers are dense
    from [Gmem], and the reliable transport's [channel lsl 40 + seq]
    keeps a sequence number in its low bits.  Tables are never
    randomized, so bucket order is a function of the keys and the
    insertion history alone. *)

include Hashtbl.S with type key = int
