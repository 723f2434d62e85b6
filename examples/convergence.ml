(* Convergence-driven relaxation: a realistic composite of the paper's
   pieces.  Each iteration is one parallel stencil application that ALSO
   accumulates the maximum per-cell change into a reduction variable
   (total %max= |new - old|); the sequential code between parallel calls
   reads the reconciled maximum and decides whether to stop — the
   alternating parallel/sequential structure of real C** programs.

     dune exec examples/convergence.exe *)

open Lcm_cstar
module Reduction = Lcm_core.Reduction

let n = 48
let tolerance = 0.05

let () =
  let machine =
    Lcm_tempest.Machine.create ~nnodes:16 ~words_per_block:8
      ~topology:(Lcm_net.Topology.Fat_tree { arity = 4 })
      ()
  in
  let proto = Lcm_core.Proto.install ~policy:Lcm_core.Policy.lcm_mcc machine in
  let rt = Runtime.create proto ~schedule:Schedule.Static in
  let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Lcm_mem.Gmem.Chunked in
  Agg.fillf a (fun i _ -> if i = 0 then 100.0 else 0.0);
  let delta = Runtime.reducer rt ~op:Reduction.f32_max ~init:0 in
  let iter = ref 0 in
  let converged = ref false in
  while (not !converged) && !iter < 500 do
    Reducer.setf delta 0.0;
    Runtime.parallel_apply_2d rt ~iter:!iter ~reducers:[ delta ] ~rows:n ~cols:n
      (fun ctx i j ->
        if i > 0 && j > 0 && i < n - 1 && j < n - 1 then begin
          let old = Agg.getf a i j in
          let v =
            0.25
            *. (Agg.getf a (i - 1) j +. Agg.getf a (i + 1) j +. Agg.getf a i (j - 1)
               +. Agg.getf a i (j + 1))
          in
          Agg.setf a i j v;
          Reducer.addf ctx delta (abs_float (v -. old))
        end);
    let d = Reducer.readf delta in
    if !iter mod 20 = 0 then
      Printf.printf "iteration %3d: max change %.4f\n%!" !iter d;
    if d < tolerance then converged := true;
    incr iter
  done;
  Printf.printf "\nconverged after %d iterations (tolerance %.2f)\n" !iter tolerance;
  Printf.printf "simulated time: %d cycles\n" (Runtime.elapsed rt);
  let centre = Agg.peekf a (n / 2) (n / 2) in
  Printf.printf "centre potential: %.3f\n" centre
