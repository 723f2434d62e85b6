(* Free-list object pool for high-churn records on the simulator's two
   hottest paths: engine event records and machine message cells, the
   paths the allocation fence (test/test_alloc.ml) measures.  [acquire]
   pops a recycled record or makes a fresh one; [release] pushes it
   back.  Neither allocates on the steady state: the free list is a
   plain growable array of already-live records, so a workload that
   churns N records in flight allocates N records total, not N per
   delivery.

   The pool trusts its callers: a released record must not be used again
   until re-acquired.  [debug] mode makes that trust checkable — every
   release runs the client's poison action (clients overwrite fields
   with values that fail loudly on use) and scans the free list for a
   double release.  The scan is O(free), which is why it is a debug mode
   and not the default. *)

type 'a t = {
  make : unit -> 'a;
  poison : ('a -> unit) option;
  mutable free : 'a array;
  mutable nfree : int;
  mutable live : int;  (* acquired and not yet released *)
  mutable created : int;  (* ever constructed via [make] *)
}

let debug = ref false

let create ?poison ~make () =
  { make; poison; free = [||]; nfree = 0; live = 0; created = 0 }

let live p = p.live
let created p = p.created

let acquire p =
  p.live <- p.live + 1;
  if p.nfree = 0 then begin
    p.created <- p.created + 1;
    p.make ()
  end
  else begin
    let n = p.nfree - 1 in
    p.nfree <- n;
    Array.unsafe_get p.free n
  end

let release p x =
  if !debug then begin
    for i = 0 to p.nfree - 1 do
      if p.free.(i) == x then
        invalid_arg "Pool.release: value is already on the free list"
    done;
    match p.poison with None -> () | Some f -> f x
  end;
  if p.live <= 0 then invalid_arg "Pool.release: more releases than acquires";
  p.live <- p.live - 1;
  let cap = Array.length p.free in
  if p.nfree = cap then begin
    let next = Array.make (max 16 (2 * cap)) x in
    Array.blit p.free 0 next 0 cap;
    p.free <- next
  end;
  p.free.(p.nfree) <- x;
  p.nfree <- p.nfree + 1
