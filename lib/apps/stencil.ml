open Lcm_cstar
module Word = Lcm_mem.Word

type params = { n : int; iters : int; work_per_cell : int }

let params ~n ~iters = { n; iters; work_per_cell = 4 }
let paper = params ~n:1024 ~iters:50

(* Deterministic initial condition: a hot top edge and a cold interior with
   a few point sources, so the relaxation has visible structure. *)
let init_value ~n i j =
  if i = 0 then 100.0
  else if i = n - 1 || j = 0 || j = n - 1 then 0.0
  else if (i * 31) + (j * 17) mod 257 = 0 then 50.0
  else 0.0

(* One stencil step into a fresh matrix (host reference).  Mirrors the
   simulated arithmetic exactly: loads return float32 values, the average is
   computed in double precision, and the store rounds to float32. *)
let step_ref grid =
  let n = Array.length grid in
  let f32 x = Word.to_float (Word.of_float x) in
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = 0 || j = 0 || i = n - 1 || j = n - 1 then grid.(i).(j)
          else
            f32
              (0.25
              *. (grid.(i - 1).(j) +. grid.(i + 1).(j) +. grid.(i).(j - 1)
                 +. grid.(i).(j + 1)))))

let checksum_of_matrix m =
  Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 m

let reference { n; iters; _ } =
  let grid = ref (Array.init n (fun i -> Array.init n (fun j -> init_value ~n i j))) in
  for _ = 1 to iters do
    grid := step_ref !grid
  done;
  checksum_of_matrix !grid

let run rt { n; iters; work_per_cell } =
  let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Lcm_mem.Gmem.Chunked in
  Agg.fillf a (init_value ~n);
  Bench_result.measure rt ~name:"stencil" (fun () ->
      for iter = 0 to iters - 1 do
        Runtime.parallel_apply_2d rt ~iter ~rows:n ~cols:n (fun _ctx i j ->
            Lcm_tempest.Memeff.work work_per_cell;
            if i = 0 || j = 0 || i = n - 1 || j = n - 1 then
              Agg.setf a i j (Agg.getf a i j)
            else
              Agg.setf a i j
                (0.25
                *. (Agg.getf a (i - 1) j +. Agg.getf a (i + 1) j
                   +. Agg.getf a i (j - 1) +. Agg.getf a i (j + 1))));
        Agg.swap a
      done;
      Agg.sumf a)
