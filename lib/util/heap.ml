(* Entries live in three parallel arrays rather than an array of records:
   sift operations then read int keys straight out of flat unboxed arrays
   (no pointer chase per comparison), and [add] allocates nothing.  This
   heap is the simulator's event queue, so every event passes through
   here twice. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  hint : int;  (* first-allocation capacity; arrays stay [||] until needed *)
}

let create ?(hint = 16) () =
  if hint < 1 then invalid_arg "Heap.create: hint must be positive";
  { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0; hint }

let length h = h.size

let is_empty h = h.size = 0

(* [before h i j] decides whether entry [i] must pop before entry [j]:
   smaller key first, insertion order breaking ties. *)
let before h i j =
  let ki = Array.unsafe_get h.keys i and kj = Array.unsafe_get h.keys j in
  ki < kj
  || (ki = kj && Array.unsafe_get h.seqs i < Array.unsafe_get h.seqs j)

let grow h value =
  let cap = Array.length h.keys in
  if cap = 0 then begin
    h.keys <- Array.make h.hint 0;
    h.seqs <- Array.make h.hint 0;
    h.vals <- Array.make h.hint value
  end
  else begin
    let new_cap = cap * 2 in
    let keys = Array.make new_cap 0 in
    Array.blit h.keys 0 keys 0 h.size;
    h.keys <- keys;
    let seqs = Array.make new_cap 0 in
    Array.blit h.seqs 0 seqs 0 h.size;
    h.seqs <- seqs;
    (* The fill element is never read: slots >= size are dead. *)
    let vals = Array.make new_cap h.vals.(0) in
    Array.blit h.vals 0 vals 0 h.size;
    h.vals <- vals
  end

(* The sifts move a hole, not an entry: the entry being placed rides in
   the arguments [key seq v], each entry it passes moves one level into
   the hole, and it is written once, where it lands.  Callers keep
   [i < size <= capacity], so the unchecked accesses stay in bounds. *)

let[@inline] place h i key seq v =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.vals i v

let[@inline] move h ~src ~dst =
  Array.unsafe_set h.keys dst (Array.unsafe_get h.keys src);
  Array.unsafe_set h.seqs dst (Array.unsafe_get h.seqs src);
  Array.unsafe_set h.vals dst (Array.unsafe_get h.vals src)

let rec sift_up h i key seq v =
  let parent = (i - 1) / 2 in
  if
    i > 0
    &&
    let pk = Array.unsafe_get h.keys parent in
    key < pk || (key = pk && seq < Array.unsafe_get h.seqs parent)
  then begin
    move h ~src:parent ~dst:i;
    sift_up h parent key seq v
  end
  else place h i key seq v

let rec sift_down h i key seq v =
  let l = (2 * i) + 1 in
  if l >= h.size then place h i key seq v
  else
    let c = if l + 1 < h.size && before h (l + 1) l then l + 1 else l in
    let ck = Array.unsafe_get h.keys c in
    if ck < key || (ck = key && Array.unsafe_get h.seqs c < seq) then begin
      move h ~src:c ~dst:i;
      sift_down h c key seq v
    end
    else place h i key seq v

let add h ~key value =
  if h.size = Array.length h.keys then grow h value;
  let i = h.size and seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.size <- i + 1;
  sift_up h i key seq value

(* Caller-stamped insertion for the engine's choice hook: it pops every
   event tied at the minimum key, commits one, and re-inserts the rest
   with the stamps they were popped with, so they keep their FIFO order
   for later steps.  next_seq is kept strictly above every explicit stamp
   so a later plain [add] can never collide with (and tie ambiguously
   against) a caller-provided stamp. *)
let add_stamped h ~key ~seq value =
  if h.size = Array.length h.keys then grow h value;
  let i = h.size in
  if seq >= h.next_seq then h.next_seq <- seq + 1;
  h.size <- i + 1;
  sift_up h i key seq value

let top_seq h =
  if h.size = 0 then invalid_arg "Heap.top_seq: empty heap";
  Array.unsafe_get h.seqs 0

let top_key h =
  if h.size = 0 then invalid_arg "Heap.top_key: empty heap";
  Array.unsafe_get h.keys 0

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let v = h.vals.(0) in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then
    sift_down h 0 h.keys.(last) h.seqs.(last) h.vals.(last);
  (* Drop the dead slot's reference so popped values can be collected. *)
  h.vals.(last) <- h.vals.(0);
  v

let pop h =
  if h.size = 0 then None
  else
    let key = h.keys.(0) in
    Some (key, pop_exn h)

let clear h =
  (* Keep the arrays: a heap that is cleared is about to be refilled (the
     eviction-order lookaside rebuilds its heap this way), and reallocating
     from 16 up on every rebuild is pure churn.  Dead value slots keep
     their last occupant alive until overwritten — acceptable for the int
     and closure payloads this heap carries. *)
  h.size <- 0
