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

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

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

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.size && before h l i then l else i in
  let smallest = if r < h.size && before h r smallest then r else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let add h ~key value =
  if h.size = Array.length h.keys then grow h value;
  let i = h.size in
  h.keys.(i) <- key;
  h.seqs.(i) <- h.next_seq;
  h.vals.(i) <- value;
  h.next_seq <- h.next_seq + 1;
  h.size <- i + 1;
  sift_up h i

(* Caller-stamped insertion for the engine's choice hook: it pops every
   event tied at the minimum key, commits one, and re-inserts the rest
   with the stamps they were popped with, so they keep their FIFO order
   for later steps.  next_seq is kept strictly above every explicit stamp
   so a later plain [add] can never collide with (and tie ambiguously
   against) a caller-provided stamp. *)
let add_stamped h ~key ~seq value =
  if h.size = Array.length h.keys then grow h value;
  let i = h.size in
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.vals.(i) <- value;
  if seq >= h.next_seq then h.next_seq <- seq + 1;
  h.size <- i + 1;
  sift_up h i

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
  if last > 0 then begin
    h.keys.(0) <- h.keys.(last);
    h.seqs.(0) <- h.seqs.(last);
    h.vals.(0) <- h.vals.(last);
    sift_down h 0
  end;
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
