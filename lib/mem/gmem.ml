type addr = int
type block = int

type dist = On of int | Interleaved | Chunked

type t = {
  nnodes : int;
  words_per_block : int;
  wpb_shift : int;
      (* log2 words_per_block: block and offset arithmetic runs on every
         simulated access, and a shift/mask beats two integer divisions *)
  wpb_mask : int;
  mutable next_block : int;
  mutable home : int array;
      (* per-block home node, filled at alloc time: the one home map,
         read on every simulated access.  Length >= next_block; slots
         beyond are dead. *)
}

let create ~nnodes ~words_per_block =
  if nnodes < 1 then invalid_arg "Gmem.create: nnodes must be >= 1";
  if
    words_per_block < 1
    || words_per_block > Lcm_util.Mask.max_words
    || words_per_block land (words_per_block - 1) <> 0
  then invalid_arg "Gmem.create: invalid words_per_block";
  let rec log2 acc n = if n = 1 then acc else log2 (acc + 1) (n lsr 1) in
  {
    nnodes;
    words_per_block;
    wpb_shift = log2 0 words_per_block;
    wpb_mask = words_per_block - 1;
    next_block = 0;
    home = [||];
  }

let words_per_block t = t.words_per_block

let unallocated fn b =
  invalid_arg (Printf.sprintf "Gmem.%s: block %d is not allocated" fn b)

(* Home of the [index]-th block of a region of [nblocks] blocks
   allocated with [dist]. *)
let home_in_region t ~nblocks ~dist ~index =
  match dist with
  | On n -> n
  | Interleaved -> index mod t.nnodes
  | Chunked ->
    (* Even contiguous split: node n owns blocks [n*q + min n rem, ...) where
       the first [rem] nodes get one extra block. *)
    let q = nblocks / t.nnodes and rem = nblocks mod t.nnodes in
    if q = 0 then index mod t.nnodes
    else
      let boundary = (q + 1) * rem in
      if index < boundary then index / (q + 1) else rem + ((index - boundary) / q)

let grow_home t needed =
  let cap = Array.length t.home in
  if needed > cap then begin
    let home = Array.make (max needed (max 64 (2 * cap))) (-1) in
    Array.blit t.home 0 home 0 t.next_block;
    t.home <- home
  end

let alloc t ~dist ~nwords =
  if nwords <= 0 then invalid_arg "Gmem.alloc: nwords must be positive";
  (match dist with
  | On n when n < 0 || n >= t.nnodes -> invalid_arg "Gmem.alloc: node out of range"
  | On _ | Interleaved | Chunked -> ());
  let nblocks = (nwords + t.words_per_block - 1) / t.words_per_block in
  let first = t.next_block in
  grow_home t (first + nblocks);
  for index = 0 to nblocks - 1 do
    t.home.(first + index) <- home_in_region t ~nblocks ~dist ~index
  done;
  t.next_block <- first + nblocks;
  first * t.words_per_block

let home_of_block t b =
  if b < 0 || b >= t.next_block then unallocated "home_of_block" b;
  Array.unsafe_get t.home b

let block_of_addr t a = a lsr t.wpb_shift

let home_of_addr t a = home_of_block t (block_of_addr t a)

let offset_in_block t a = a land t.wpb_mask

let allocated_words t = t.next_block * t.words_per_block
let is_allocated t b = b >= 0 && b < t.next_block

let region_blocks t base ~nwords =
  if nwords <= 0 then []
  else
    let first = block_of_addr t base in
    let last = block_of_addr t (base + nwords - 1) in
    List.init (last - first + 1) (fun i -> first + i)
