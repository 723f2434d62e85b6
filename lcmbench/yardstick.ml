(* A fixed amount of host work whose time says how fast this host runs
   right now.  The host is shared: its speed drifts by a quarter and more
   over minutes, and at times halves, so two timings taken apart in time
   compare only after dividing out the host speed at each.  The yardstick
   is a miniature of the simulator's inner loop — an array-backed event
   queue driving read-modify-writes over a table — kept small (288 KB in
   all) so that a slice taken between two units barely disturbs the
   caches of the next one.  It allocates nothing, and its table lives
   outside the OCaml heap, so it neither triggers nor pays for
   collections.  It lives in the benchmark, not in lib/, so no change to
   the simulator moves it. *)

let pending = 2048
let keys = Array.make (pending + 1) 0
let vals = Array.make (pending + 1) 0
let size = ref 0

let table =
  lazy
    (let t = Bigarray.(Array1.create int c_layout) (1 lsl 15) in
     Bigarray.Array1.fill t 0;
     t)

let push k v =
  let i = ref !size in
  incr size;
  while !i > 0 && keys.((!i - 1) / 2) > k do
    let p = (!i - 1) / 2 in
    keys.(!i) <- keys.(p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  keys.(!i) <- k;
  vals.(!i) <- v

(* Removes the minimum, leaving its key and value in slot [pending]. *)
let pop () =
  keys.(pending) <- keys.(0);
  vals.(pending) <- vals.(0);
  decr size;
  let k = keys.(!size) and v = vals.(!size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < !size && keys.(l + 1) < keys.(l) then l + 1 else l in
    if c < !size && keys.(c) < k then begin
      keys.(!i) <- keys.(c);
      vals.(!i) <- vals.(c);
      i := c
    end
    else sifting := false
  done;
  keys.(!i) <- k;
  vals.(!i) <- v

(* Seconds one slice takes (about 5 ms on an unloaded 2.0 GHz Xeon).  The
   queue and table are refilled first, untimed, so every slice does the
   same work from the same cache state. *)
let slice () =
  let table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t = Lazy.force table in
  let mask = Bigarray.Array1.dim table - 1 in
  size := 0;
  for i = 0 to pending - 1 do
    push i i
  done;
  for i = 0 to mask do
    table.{i} <- i
  done;
  let rnd = ref 7 in
  let t0 = Monotonic_clock.now () in
  for _ = 1 to 60_000 do
    pop ();
    let t = keys.(pending) and v = vals.(pending) in
    rnd := ((!rnd * 1103515245) + 12345) land 0x3fffffff;
    let b = ((v * 31) + !rnd) land mask in
    table.{b} <- table.{b} + t;
    push (t + 1 + ((!rnd lsr 10) land 63)) (b land 8191)
  done;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
