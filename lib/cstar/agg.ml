module Proto = Lcm_core.Proto
module Memeff = Lcm_tempest.Memeff
module Word = Lcm_mem.Word

type strategy = Lcm_directives | Explicit_copy

type t = {
  proto : Proto.t;
  strategy : strategy;
  rows : int;
  cols : int;
  mutable front : int;  (* base address of the read buffer *)
  mutable back : int;  (* base address of the write buffer (= front for Lcm_directives) *)
}

let create proto ~strategy ~rows ~cols ~dist =
  if rows <= 0 || cols <= 0 then invalid_arg "Agg.create: empty aggregate";
  let gmem = Lcm_tempest.Machine.gmem (Proto.machine proto) in
  let nwords = rows * cols in
  let front = Lcm_mem.Gmem.alloc gmem ~dist ~nwords in
  let back =
    match strategy with
    | Lcm_directives -> front
    | Explicit_copy -> Lcm_mem.Gmem.alloc gmem ~dist ~nwords
  in
  { proto; strategy; rows; cols; front; back }

let create1d proto ~strategy ~n ~dist = create proto ~strategy ~rows:1 ~cols:n ~dist

let rows t = t.rows
let cols t = t.cols
let strategy t = t.strategy

let offset t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg
      (Printf.sprintf "Agg: index (%d,%d) out of bounds %dx%d" i j t.rows t.cols);
  (i * t.cols) + j

let read_addr t i j = t.front + offset t i j

let write_addr t i j = t.back + offset t i j

let get t i j = Memeff.load (read_addr t i j)

let set t i j v =
  let addr = write_addr t i j in
  (match t.strategy with
  | Lcm_directives -> Memeff.directive (Memeff.Mark_modification addr)
  | Explicit_copy -> ());
  Memeff.store addr v

let getf t i j = Word.to_float (get t i j)
let setf t i j v = set t i j (Word.of_float v)

let get1 t j = get t 0 j
let set1 t j v = set t 0 j v
let getf1 t j = getf t 0 j
let setf1 t j v = setf t 0 j v

let swap t =
  match t.strategy with
  | Lcm_directives -> ()
  | Explicit_copy ->
    let f = t.front in
    t.front <- t.back;
    t.back <- f

let peek t i j = Proto.peek t.proto (t.front + offset t i j)

let poke t i j v =
  Proto.poke t.proto (t.front + offset t i j) v;
  if t.back <> t.front then Proto.poke t.proto (t.back + offset t i j) v

let peekf t i j = Word.to_float (peek t i j)
let pokef t i j v = poke t i j (Word.of_float v)

let to_matrix t = Array.init t.rows (fun i -> Array.init t.cols (fun j -> peekf t i j))

let fill t f =
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      poke t i j (f i j)
    done
  done

let fillf t f = fill t (fun i j -> Word.of_float (f i j))

let sumf t =
  let acc = ref 0.0 in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      acc := !acc +. peekf t i j
    done
  done;
  !acc
