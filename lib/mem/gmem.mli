(** The global address space: allocation and home-node mapping.

    Addresses are word indices into a single flat global space shared by all
    nodes, mirroring the paper's model ("physically distributed memory is
    addressed through a global address space").  Every cache block has a
    {e home node} that owns its master copy and directory entry.  The home
    of a block is determined by the distribution chosen when its region was
    allocated:

    - [On n] — the whole region lives on node [n];
    - [Interleaved] — consecutive blocks round-robin across nodes;
    - [Chunked] — the region splits into [nnodes] contiguous block runs
      (the distribution C\*\* aggregates use, matching the paper's
      statically-partitioned meshes). *)

type addr = int
(** A global word address. *)

type block = int
(** A global block number ([addr / words_per_block]). *)

type dist = On of int | Interleaved | Chunked

type t

val create : nnodes:int -> words_per_block:int -> t
(** [create ~nnodes ~words_per_block] is an empty address space.
    @raise Invalid_argument unless [nnodes >= 1] and [words_per_block] is
    a power of two no larger than {!Lcm_util.Mask.max_words}. *)

val words_per_block : t -> int

val alloc : t -> dist:dist -> nwords:int -> addr
(** [alloc t ~dist ~nwords] reserves a fresh block-aligned region of at
    least [nwords] words (rounded up to whole blocks) and returns its base
    address.  @raise Invalid_argument if [nwords <= 0] or [dist = On n]
    with [n] out of range. *)

val home_of_block : t -> block -> int
(** Home node of a block, read from the per-block table {!alloc} fills
    from the region's distribution: the address space's one home map.
    @raise Invalid_argument naming the block for never-allocated
    blocks. *)

val home_of_addr : t -> addr -> int

val block_of_addr : t -> addr -> block

val offset_in_block : t -> addr -> int

val allocated_words : t -> int
(** Total words allocated so far. *)

val is_allocated : t -> block -> bool
(** [is_allocated t b] — does [b] name a block inside allocated memory?
    The predicate behind the typed lookup failures in
    {!Lcm_tempest.Machine.master} and the directory engine, which turn a
    corrupt block number into a diagnostic naming the block instead of an
    anonymous [Not_found]. *)

val region_blocks : t -> addr -> nwords:int -> block list
(** [region_blocks t base ~nwords] enumerates the blocks overlapping
    [\[base, base+nwords)], in increasing order. *)
