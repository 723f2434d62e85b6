open Lcm_cstar
module Word = Lcm_mem.Word

type params = {
  n : int;
  iters : int;
  max_depth : int;
  subdiv_threshold : float;
  arena_per_node : int;
  work_per_cell : int;
}

let params ~n ~iters ~max_depth ~arena_per_node =
  { n; iters; max_depth; subdiv_threshold = 2.0; arena_per_node; work_per_cell = 6 }

let paper = params ~n:64 ~iters:100 ~max_depth:4 ~arena_per_node:16384

(* Cell layout: one cache block per cell. *)
let f_value = 0
let f_child = 1 (* .. 4: child index + 1, 0 = none *)
let f_depth = 5

let f32 x = Word.to_float (Word.of_float x)

(* Hot left edge plus a point charge off-centre: steep gradients appear
   near the charge, driving subdivision there ("computes electric
   potentials in a box"). *)
let init_value ~n i j =
  if j = 0 then 100.0
  else if i = (2 * n / 3) && j = n / 3 then 200.0
  else 0.0

let is_source ~n i j = i = (2 * n / 3) && j = n / 3

let base_new_value ~n get i j =
  if i = 0 || j = 0 || i = n - 1 || j = n - 1 || is_source ~n i j then get i j
  else 0.25 *. (get (i - 1) j +. get (i + 1) j +. get i (j - 1) +. get i (j + 1))

(* ------------------------------------------------------------------ *)
(* Host reference                                                      *)
(* ------------------------------------------------------------------ *)

type ref_cell = {
  mutable value : float;
  mutable children : ref_cell array;  (* empty or length 4 *)
  depth : int;
}

let reference { n; iters; max_depth; subdiv_threshold; _ } =
  let grid =
    Array.init n (fun i ->
        Array.init n (fun j -> { value = init_value ~n i j; children = [||]; depth = 0 }))
  in
  let rec relax_children cell parent_new =
    Array.iter
      (fun child ->
        let old = child.value in
        let nv = f32 (0.5 *. (parent_new +. old)) in
        child.value <- nv;
        relax_children child nv;
        if
          Array.length child.children = 0
          && child.depth < max_depth
          && abs_float (nv -. old) > subdiv_threshold
        then
          child.children <-
            Array.init 4 (fun _ ->
                { value = nv; children = [||]; depth = child.depth + 1 }))
      cell.children
  in
  for _ = 1 to iters do
    let old = Array.map (Array.map (fun c -> c.value)) grid in
    let get i j = old.(i).(j) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let cell = grid.(i).(j) in
        let prev = cell.value in
        let nv = f32 (base_new_value ~n get i j) in
        cell.value <- nv;
        relax_children cell nv;
        if
          Array.length cell.children = 0
          && cell.depth < max_depth
          && abs_float (nv -. prev) > subdiv_threshold
        then
          cell.children <-
            Array.init 4 (fun _ -> { value = nv; children = [||]; depth = 1 })
      done
    done
  done;
  let rec sum cell =
    cell.value +. Array.fold_left (fun acc c -> acc +. sum c) 0.0 cell.children
  in
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc c -> acc +. sum c) acc row)
    0.0 grid

(* ------------------------------------------------------------------ *)
(* Simulated implementation                                            *)
(* ------------------------------------------------------------------ *)

type state = {
  base_cells : Agg.t;  (* n*n × 8 words, chunked row bands *)
  arena : Agg.t;  (* nnodes*arena_per_node × 8 words; slice per node *)
  arena_per_node : int;
  used : int array;  (* per-node arena cells in use (host bookkeeping) *)
  mutable allocated : int;
  base : int;  (* n*n *)
}

(* Cell ids: [0, base) are base-grid cells; [base, ...) index the arena. *)
let agg_of st c = if c < st.base then (st.base_cells, c) else (st.arena, c - st.base)

let cget st c f =
  let agg, row = agg_of st c in
  Agg.get agg row f

let cset st c f v =
  let agg, row = agg_of st c in
  Agg.set agg row f v

let cgetf st c f =
  let agg, row = agg_of st c in
  Agg.getf agg row f

let csetf st c f v =
  let agg, row = agg_of st c in
  Agg.setf agg row f v

let build rt { n; arena_per_node; _ } =
  let mach = Runtime.machine rt in
  let nnodes = Lcm_tempest.Machine.nnodes mach in
  let base = n * n in
  (* Two chunked regions: the base grid splits into row bands across all
     nodes; the arena gives each node a contiguous slice of spare cells so
     an invocation allocates from memory homed where it runs. *)
  let base_cells = Runtime.alloc2d rt ~rows:base ~cols:8 ~dist:Lcm_mem.Gmem.Chunked in
  let arena =
    Runtime.alloc2d rt ~rows:(nnodes * arena_per_node) ~cols:8
      ~dist:Lcm_mem.Gmem.Chunked
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let c = (i * n) + j in
      Agg.pokef base_cells c f_value (init_value ~n i j);
      Agg.poke base_cells c f_depth 0
    done
  done;
  {
    base_cells;
    arena;
    arena_per_node;
    used = Array.make nnodes 0;
    allocated = base;
    base;
  }

(* Allocate 4 sibling cells from the invoking node's arena slice; returns
   the first cell id, or None when the slice is exhausted. *)
let alloc4 st nid =
  if st.used.(nid) + 4 <= st.arena_per_node then begin
    let row = (nid * st.arena_per_node) + st.used.(nid) in
    st.used.(nid) <- st.used.(nid) + 4;
    st.allocated <- st.allocated + 4;
    Some (st.base + row)
  end
  else None

let subdivide st ~node ~parent ~depth ~value =
  match alloc4 st node with
  | None -> ()
  | Some c0 ->
    for k = 0 to 3 do
      let c = c0 + k in
      csetf st c f_value value;
      cset st c f_depth (depth + 1);
      for f = f_child to f_child + 3 do
        cset st c f 0
      done;
      cset st parent (f_child + k) (c + 1)
    done

(* The conservative baseline's copy phase: every allocated cell's block is
   copied from the old mesh to the new one before the iteration relaxes.
   Partition p copies its own base band and its own arena slice, and the
   copy loop is an ordinary statically-partitioned loop regardless of how
   the parallel function itself is scheduled.  The extra [work] models the
   traversal bookkeeping of walking a dynamic structure to copy it. *)
let copy_phase rt st ~iter =
  let nnodes = Lcm_tempest.Machine.nnodes (Runtime.machine rt) in
  let bands = Lcm_cstar.Schedule.chunks ~n:st.base ~nchunks:nnodes in
  Runtime.parallel_apply rt ~iter ~schedule:Lcm_cstar.Schedule.Static ~n:nnodes
    (fun ctx ->
      let p = ctx.Ctx.index in
      (* The program has no global list of allocated cells: it must walk
         the quad-trees, chasing child pointers through shared memory. *)
      let rec copy_tree c =
        Lcm_tempest.Memeff.work 4;
        for f = 0 to 7 do
          cset st c f (cget st c f)
        done;
        for k = 0 to 3 do
          let child = cget st c (f_child + k) in
          if child <> 0 then copy_tree (child - 1)
        done
      in
      let lo, hi = bands.(p) in
      for c = lo to hi - 1 do
        copy_tree c
      done)

let run_internal rt ({ n; iters; max_depth; subdiv_threshold; work_per_cell; _ } as p) =
  let st = build rt p in
  let explicit_copy = Runtime.strategy rt = Runtime.Explicit_copy in
  let get_child c k = cget st c (f_child + k) in
  let rec relax_children ~node c parent_new =
    for k = 0 to 3 do
      let child = get_child c k in
      if child <> 0 then begin
        let child = child - 1 in
        Lcm_tempest.Memeff.work work_per_cell;
        let old = cgetf st child f_value in
        let nv = f32 (0.5 *. (parent_new +. old)) in
        csetf st child f_value nv;
        relax_children ~node child nv;
        if
          get_child child 0 = 0
          && cget st child f_depth < max_depth
          && abs_float (nv -. old) > subdiv_threshold
        then
          subdivide st ~node ~parent:child ~depth:(cget st child f_depth)
            ~value:nv
      end
    done
  in
  let iterate () =
    for iter = 0 to iters - 1 do
      (* Baseline: copy the whole mesh (values and tree structure) into the
         new buffer first; the relax phase then overwrites the parts that
         change.  LCM needs no copy — marks do it on demand. *)
      if explicit_copy then copy_phase rt st ~iter;
      let value_get i j = cgetf st ((i * n) + j) f_value in
      Runtime.parallel_apply_2d rt ~iter ~rows:n ~cols:n (fun ctx i j ->
          Lcm_tempest.Memeff.work work_per_cell;
          let c = (i * n) + j in
          let old = cgetf st c f_value in
          let nv = f32 (base_new_value ~n value_get i j) in
          csetf st c f_value nv;
          relax_children ~node:ctx.Ctx.node c nv;
          if
            get_child c 0 = 0
            && cget st c f_depth < max_depth
            && abs_float (nv -. old) > subdiv_threshold
          then subdivide st ~node:ctx.Ctx.node ~parent:c ~depth:0 ~value:nv);
      Agg.swap st.base_cells;
      Agg.swap st.arena
    done;
    let checksum = ref 0.0 in
    for c = 0 to st.base - 1 do
      checksum := !checksum +. Agg.peekf st.base_cells c f_value
    done;
    Array.iteri
      (fun nid used ->
        for k = 0 to used - 1 do
          checksum :=
            !checksum +. Agg.peekf st.arena ((nid * st.arena_per_node) + k) f_value
        done)
      st.used;
    !checksum
  in
  (Bench_result.measure rt ~name:"adaptive" iterate, st)

let run rt p = fst (run_internal rt p)

let cells_allocated rt p = (snd (run_internal rt p)).allocated

let refinement_map rt ({ n; _ } as p) =
  let _, st = run_internal rt p in
  let peek c f =
    let agg, row = agg_of st c in
    Agg.peek agg row f
  in
  let rec depth_of c =
    let deepest = ref 0 in
    for k = 0 to 3 do
      let child = peek c (f_child + k) in
      if child <> 0 then deepest := max !deepest (1 + depth_of (child - 1))
    done;
    !deepest
  in
  let buf = Buffer.create (n * (n + 1)) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let d = depth_of ((i * n) + j) in
      Buffer.add_char buf
        (if d = 0 then '.' else Char.chr (Char.code '0' + min 9 d))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
