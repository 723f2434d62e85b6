open Lcm_cstar
module Gmem = Lcm_mem.Gmem
module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff

type mode = [ `Fresh | `Stale of int ]

type params = { bodies : int; iters : int; work_per_body : int }

let params ~bodies ~iters = { bodies; iters; work_per_body = 2 }

let mode_name = function
  | `Fresh -> "fresh"
  | `Stale r -> Printf.sprintf "stale-%d" r

let init_pos i = float_of_int ((i * 13 mod 97) - 48)

(* Block numbers of the aggregate's storage that are NOT homed on [nid]. *)
let remote_blocks rt (a : Agg.t) nid =
  let gmem = Machine.gmem (Runtime.machine rt) in
  let blocks = ref [] in
  let n = Agg.cols a in
  let seen = Hashtbl.create 64 in
  for j = 0 to n - 1 do
    let b = Gmem.block_of_addr gmem (Agg.read_addr a 0 j) in
    if not (Hashtbl.mem seen b) then begin
      Hashtbl.add seen b ();
      if Gmem.home_of_block gmem b <> nid then blocks := b :: !blocks
    end
  done;
  List.rev !blocks

let run rt mode { bodies; iters; work_per_body } =
  let a = Runtime.alloc1d rt ~n:bodies ~dist:Gmem.Chunked in
  Agg.fillf a (fun _ i -> init_pos i);
  let mach = Runtime.machine rt in
  let gmem = Machine.gmem mach in
  let wpb = Gmem.words_per_block gmem in
  let nnodes = Machine.nnodes mach in
  Bench_result.measure rt ~name:("nbody-" ^ mode_name mode) (fun () ->
      (* Pin phase: each node touches and pins every remote block of the
         aggregate so reconciliation leaves its copies in place. *)
      (match mode with
      | `Stale _ ->
        Runtime.parallel_apply rt ~n:nnodes (fun ctx ->
            List.iter
              (fun b ->
                let addr = b * wpb in
                ignore (Memeff.load addr);
                Lcm_core.Stale.pin addr)
              (remote_blocks rt a ctx.Ctx.node))
      | `Fresh -> ());
      for iter = 0 to iters - 1 do
        (* Refresh phase: drop pinned copies every refresh_every iterations
           so the next reads see the latest reconciled positions. *)
        (match mode with
        | `Stale refresh_every when iter > 0 && iter mod refresh_every = 0 ->
          Runtime.parallel_apply rt ~iter ~n:nnodes (fun ctx ->
              List.iter
                (fun b ->
                  let addr = b * wpb in
                  Lcm_core.Stale.refresh addr;
                  ignore (Memeff.load addr);
                  Lcm_core.Stale.pin addr)
                (remote_blocks rt a ctx.Ctx.node))
        | `Stale _ | `Fresh -> ());
        Runtime.parallel_apply rt ~iter ~n:bodies (fun ctx ->
            let i = ctx.Ctx.index in
            Memeff.work work_per_body;
            let sum = ref 0.0 in
            for j = 0 to bodies - 1 do
              sum := !sum +. Agg.getf1 a j
            done;
            let mean = !sum /. float_of_int bodies in
            Agg.setf1 a i ((0.9 *. Agg.getf1 a i) +. (0.1 *. mean)))
      done;
      Agg.sumf a)
