open Lcm_cstar
module Word = Lcm_mem.Word

type params = { n : int; iters : int; threshold : float; work_per_cell : int }

let params ~n ~iters = { n; iters; threshold = 0.5; work_per_cell = 4 }
let paper = params ~n:512 ~iters:50

(* Zero mesh with a few fixed hot sources sprinkled deterministically. *)
let source ~n i j =
  let k = (i * n) + j in
  i > 0 && j > 0 && i < n - 1 && j < n - 1 && k mod (n * n / 8) = (n / 2) + 1

let init_value ~n i j = if source ~n i j then 100.0 else 0.0

let f32 x = Word.to_float (Word.of_float x)

let new_value grid ~n i j =
  if i = 0 || j = 0 || i = n - 1 || j = n - 1 || source ~n i j then grid.(i).(j)
  else
    f32
      (0.25
      *. (grid.(i - 1).(j) +. grid.(i + 1).(j) +. grid.(i).(j - 1) +. grid.(i).(j + 1)))

let step_ref ~threshold ~n grid =
  Array.init n (fun i ->
      Array.init n (fun j ->
          let v = new_value grid ~n i j in
          if abs_float (v -. grid.(i).(j)) > threshold then v else grid.(i).(j)))

let checksum_of_matrix m =
  Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 m

let reference { n; iters; threshold; _ } =
  let grid = ref (Array.init n (fun i -> Array.init n (fun j -> init_value ~n i j))) in
  for _ = 1 to iters do
    grid := step_ref ~threshold ~n !grid
  done;
  checksum_of_matrix !grid

let run_counting rt { n; iters; threshold; work_per_cell } ~count =
  let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Lcm_mem.Gmem.Chunked in
  Agg.fillf a (init_value ~n);
  let explicit_copy = Runtime.strategy rt = Runtime.Explicit_copy in
  Bench_result.measure rt ~name:"threshold" (fun () ->
      for iter = 0 to iters - 1 do
        Runtime.parallel_apply_2d rt ~iter ~rows:n ~cols:n (fun _ctx i j ->
            Lcm_tempest.Memeff.work work_per_cell;
            let old = Agg.getf a i j in
            let v =
              if i = 0 || j = 0 || i = n - 1 || j = n - 1 || source ~n i j then
                old
              else
                0.25
                *. (Agg.getf a (i - 1) j +. Agg.getf a (i + 1) j
                   +. Agg.getf a i (j - 1) +. Agg.getf a i (j + 1))
            in
            let changed = abs_float (f32 v -. old) > threshold in
            if changed then begin
              (match count with Some c -> incr c | None -> ());
              Agg.setf a i j v
            end
            else if explicit_copy then
              (* values must still move from the old buffer to the new one *)
              Agg.setf a i j old);
        Agg.swap a
      done;
      Agg.sumf a)

let run rt p = run_counting rt p ~count:None

let modified_fraction rt p =
  let c = ref 0 in
  ignore (run_counting rt p ~count:(Some c));
  float_of_int !c /. float_of_int (p.n * p.n * p.iters)
