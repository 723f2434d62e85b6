open Lcm_cstar
module Word = Lcm_mem.Word
module Memeff = Lcm_tempest.Memeff

type params = { n : int; iters : int; omega : float; work_per_cell : int }

let params ~n ~iters = { n; iters; omega = 1.5; work_per_cell = 4 }

let init_value ~n i j =
  if i = 0 then 100.0 else if i = n - 1 || j = 0 || j = n - 1 then 0.0 else 0.0

let f32 x = Word.to_float (Word.of_float x)

let relaxed ~omega v neighbours =
  f32 (((1.0 -. omega) *. v) +. (omega /. 4.0 *. neighbours))

let reference { n; iters; omega; _ } =
  let grid = Array.init n (fun i -> Array.init n (fun j -> init_value ~n i j)) in
  let half colour =
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        if (i + j) land 1 = colour then
          grid.(i).(j) <-
            relaxed ~omega grid.(i).(j)
              (grid.(i - 1).(j) +. grid.(i + 1).(j) +. grid.(i).(j - 1)
             +. grid.(i).(j + 1))
      done
    done
  in
  for _ = 1 to iters do
    half 0;
    half 1
  done;
  Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 grid

let run rt { n; iters; omega; work_per_cell } =
  (* a single-buffered mesh under every strategy: red-black updates are
     correct in place, so the "compiled" code has no copies at all *)
  let proto = Runtime.proto rt in
  let gmem = Lcm_tempest.Machine.gmem (Runtime.machine rt) in
  let base = Lcm_mem.Gmem.alloc gmem ~dist:Lcm_mem.Gmem.Chunked ~nwords:(n * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Lcm_core.Proto.poke proto (base + (i * n) + j) (Word.of_float (init_value ~n i j))
    done
  done;
  let load i j = Word.to_float (Memeff.load (base + (i * n) + j)) in
  Bench_result.measure rt ~name:"sor" (fun () ->
      for iter = 0 to iters - 1 do
        List.iter
          (fun colour ->
            (* no marks, no flushes: analysis proved the phase conflict-free *)
            Runtime.parallel_apply_2d rt
              ~iter:((2 * iter) + colour)
              ~flush_between:false ~rows:n ~cols:n
              (fun _ctx i j ->
                if
                  i > 0 && j > 0 && i < n - 1 && j < n - 1
                  && (i + j) land 1 = colour
                then begin
                  Memeff.work work_per_cell;
                  let v =
                    relaxed ~omega (load i j)
                      (load (i - 1) j +. load (i + 1) j +. load i (j - 1)
                     +. load i (j + 1))
                  in
                  Memeff.store (base + (i * n) + j) (Word.of_float v)
                end))
          [ 0; 1 ]
      done;
      let checksum = ref 0.0 in
      for w = 0 to (n * n) - 1 do
        checksum :=
          !checksum +. Word.to_float (Lcm_core.Proto.peek proto (base + w))
      done;
      !checksum)
