open Lcm_cstar
module Word = Lcm_mem.Word
module Gmem = Lcm_mem.Gmem

type params = {
  nodes : int;
  edges : int;
  iters : int;
  seed : int;
  work_per_node : int;
}

let params ~nodes ~iters =
  { nodes; edges = 4 * nodes; iters; seed = 11; work_per_node = 6 }

let paper = params ~nodes:256 ~iters:512

(* Random multigraph-free undirected graph: a Hamiltonian ring for
   connectivity plus random extra edges, deterministic in the seed. *)
let build_graph ~nodes ~edges ~seed =
  (* past this many the loop below would never find a new edge *)
  let simple = nodes * (nodes - 1) / 2 in
  if edges > simple then
    invalid_arg
      (Printf.sprintf
         "Unstructured.build_graph: %d edges, but a simple graph on %d nodes \
          has at most %d"
         edges nodes simple);
  let rng = Lcm_util.Rng.create ~seed in
  let seen = Hashtbl.create (edges * 2) in
  let adj = Array.make nodes [] in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v);
      true
    end
    else false
  in
  for u = 0 to nodes - 1 do
    ignore (add u ((u + 1) mod nodes))
  done;
  let remaining = ref (edges - nodes) in
  while !remaining > 0 do
    let u = Lcm_util.Rng.int rng nodes and v = Lcm_util.Rng.int rng nodes in
    if add u v then decr remaining
  done;
  Array.map (fun ns -> Array.of_list (List.rev ns)) adj

let init_value i = float_of_int ((i * 37 mod 101) - 50)

(* Deterministic permutation of value slots: graph nodes are stored in
   construction order, so the partition's write sets straddle cache blocks
   — multiple processors write words of the same block every iteration.
   Multiplication by a unit modulo [nodes] is the permutation: any odd
   multiplier when [nodes] is a power of two, else the prime 7919, a unit
   for every size it does not divide.  The graph's [seed] plays no part. *)
let scatter { nodes; _ } u =
  if nodes land (nodes - 1) = 0 then (u * 0x9E5) land (nodes - 1)
  else (u * 7919 mod nodes + nodes) mod nodes

let f32 x = Word.to_float (Word.of_float x)

let step_ref adj values =
  Array.mapi
    (fun u v ->
      let sum = Array.fold_left (fun acc n -> acc +. values.(n)) 0.0 adj.(u) in
      let avg = sum /. float_of_int (Array.length adj.(u)) in
      f32 ((0.5 *. v) +. (0.5 *. avg)))
    values

let reference { nodes; edges; iters; seed; _ } =
  let adj = build_graph ~nodes ~edges ~seed in
  let values = ref (Array.init nodes (fun i -> f32 (init_value i))) in
  for _ = 1 to iters do
    values := step_ref adj !values
  done;
  Array.fold_left ( +. ) 0.0 !values

let run rt ({ nodes; edges; iters; seed; work_per_node } as p) =
  let adj = build_graph ~nodes ~edges ~seed in
  let slot = scatter p in
  let proto = Runtime.proto rt in
  let gmem = Lcm_tempest.Machine.gmem (Runtime.machine rt) in
  (* CSR adjacency in read-only shared memory: row offsets + neighbour ids *)
  let degrees = Array.map Array.length adj in
  let total = Array.fold_left ( + ) 0 degrees in
  let offsets_base = Gmem.alloc gmem ~dist:Gmem.Chunked ~nwords:(nodes + 1) in
  let neigh_base = Gmem.alloc gmem ~dist:Gmem.Chunked ~nwords:(max 1 total) in
  let off = ref 0 in
  for u = 0 to nodes - 1 do
    Lcm_core.Proto.poke proto (offsets_base + u) !off;
    Array.iter
      (fun v ->
        Lcm_core.Proto.poke proto (neigh_base + !off) v;
        incr off)
      adj.(u)
  done;
  Lcm_core.Proto.poke proto (offsets_base + nodes) !off;
  let values = Runtime.alloc1d rt ~n:nodes ~dist:Gmem.Chunked in
  for u = 0 to nodes - 1 do
    Agg.pokef values 0 (slot u) (f32 (init_value u))
  done;
  Bench_result.measure rt ~name:"unstructured" (fun () ->
      for iter = 0 to iters - 1 do
        Runtime.parallel_apply rt ~iter ~n:nodes (fun ctx ->
            let u = ctx.Ctx.index in
            Lcm_tempest.Memeff.work work_per_node;
            let lo = Lcm_tempest.Memeff.load (offsets_base + u) in
            let hi = Lcm_tempest.Memeff.load (offsets_base + u + 1) in
            let sum = ref 0.0 in
            for e = lo to hi - 1 do
              let v = Lcm_tempest.Memeff.load (neigh_base + e) in
              sum := !sum +. Agg.getf1 values (slot v)
            done;
            let avg = !sum /. float_of_int (hi - lo) in
            Agg.setf1 values (slot u)
              ((0.5 *. Agg.getf1 values (slot u)) +. (0.5 *. avg)));
        Agg.swap values
      done;
      Agg.sumf values)
