(* Tests for the C** runtime: scheduling, aggregates, reducers, and the
   semantics of parallel application under every strategy/protocol combo. *)

open Lcm_cstar
module Proto = Lcm_core.Proto
module Policy = Lcm_core.Policy
module Reduction = Lcm_core.Reduction
module Machine = Lcm_tempest.Machine
module Gmem = Lcm_mem.Gmem
module Word = Lcm_mem.Word

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

let test_chunks_balanced () =
  let ranges = Schedule.chunks ~n:10 ~nchunks:4 in
  Alcotest.(check (list (pair int int)))
    "ranges"
    [ (0, 3); (3, 6); (6, 8); (8, 10) ]
    (Array.to_list ranges)

let test_chunks_more_chunks_than_work () =
  let ranges = Schedule.chunks ~n:2 ~nchunks:4 in
  Alcotest.(check (list (pair int int)))
    "empty tails"
    [ (0, 1); (1, 2); (2, 2); (2, 2) ]
    (Array.to_list ranges)

let test_static_assignment_stable () =
  let a1 = Schedule.assign Schedule.Static ~iter:0 ~nnodes:4 ~nchunks:4 in
  let a2 = Schedule.assign Schedule.Static ~iter:9 ~nnodes:4 ~nchunks:4 in
  Alcotest.(check (list int)) "same every iter" (Array.to_list a1) (Array.to_list a2);
  Alcotest.(check (list int)) "identity" [ 0; 1; 2; 3 ] (Array.to_list a1)

let test_rotate_assignment_moves () =
  let a0 = Schedule.assign Schedule.Dynamic_rotate ~iter:0 ~nnodes:4 ~nchunks:4 in
  let a1 = Schedule.assign Schedule.Dynamic_rotate ~iter:1 ~nnodes:4 ~nchunks:4 in
  Alcotest.(check (list int)) "iter0" [ 0; 1; 2; 3 ] (Array.to_list a0);
  Alcotest.(check (list int)) "iter1 shifted" [ 1; 2; 3; 0 ] (Array.to_list a1)

let test_random_assignment_is_permutation () =
  for iter = 0 to 5 do
    let a = Schedule.assign (Schedule.Dynamic_random 7) ~iter ~nnodes:8 ~nchunks:8 in
    let sorted = List.sort compare (Array.to_list a) in
    Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4; 5; 6; 7 ] sorted
  done

let test_random_assignment_deterministic () =
  let a = Schedule.assign (Schedule.Dynamic_random 7) ~iter:3 ~nnodes:8 ~nchunks:8 in
  let b = Schedule.assign (Schedule.Dynamic_random 7) ~iter:3 ~nnodes:8 ~nchunks:8 in
  Alcotest.(check (list int)) "same" (Array.to_list a) (Array.to_list b)

let prop_chunks_partition =
  QCheck.Test.make ~name:"chunks cover the index space disjointly" ~count:200
    QCheck.(pair (int_bound 200) (int_range 1 17))
    (fun (n, nchunks) ->
      let ranges = Schedule.chunks ~n ~nchunks in
      let covered = Array.make (max 1 n) 0 in
      Array.iter
        (fun (lo, hi) ->
          for i = lo to hi - 1 do
            covered.(i) <- covered.(i) + 1
          done)
        ranges;
      Array.length ranges = nchunks
      && Array.for_all (fun c -> c = 1) (Array.sub covered 0 n)
      && Array.for_all (fun (lo, hi) -> lo <= hi) ranges)

let prop_assign_in_range =
  QCheck.Test.make ~name:"assignments land on valid nodes" ~count:200
    QCheck.(triple (int_range 1 16) (int_range 1 40) (int_bound 50))
    (fun (nnodes, nchunks, iter) ->
      List.for_all
        (fun sched ->
          Array.for_all
            (fun node -> node >= 0 && node < nnodes)
            (Schedule.assign sched ~iter ~nnodes ~nchunks))
        [ Schedule.Static; Schedule.Dynamic_rotate; Schedule.Dynamic_random 3 ])

let test_schedule_parse () =
  Alcotest.(check bool) "static" true (Schedule.of_string "static" = Ok Schedule.Static);
  Alcotest.(check bool) "rotate" true
    (Schedule.of_string "rotate" = Ok Schedule.Dynamic_rotate);
  Alcotest.(check bool) "random" true
    (Schedule.of_string "random:5" = Ok (Schedule.Dynamic_random 5));
  Alcotest.(check bool) "bad" true
    (match Schedule.of_string "work-steal" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let mk_runtime ?(nnodes = 4) ?(schedule = Schedule.Static) policy =
  let m =
    Machine.create ~nnodes ~words_per_block:8 ~topology:Lcm_net.Topology.Crossbar ()
  in
  let p = Proto.install ~policy m in
  Runtime.create p ~schedule

(* every policy the experiments measure; each picks its own strategy *)
let combos =
  [
    ("stache+copy", Policy.stache);
    ("scc+lcm", Policy.lcm_scc);
    ("mcc+lcm", Policy.lcm_mcc);
  ]

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let test_agg_poke_peek () =
  let rt = mk_runtime Policy.stache in
  let a = Runtime.alloc2d rt ~rows:4 ~cols:6 ~dist:Gmem.Chunked in
  Agg.poke a 2 3 42;
  Alcotest.(check int) "peek" 42 (Agg.peek a 2 3);
  Agg.pokef a 1 1 2.5;
  Alcotest.(check (float 0.0)) "float" 2.5 (Agg.peekf a 1 1)

let test_agg_bounds () =
  let rt = mk_runtime Policy.stache in
  let a = Runtime.alloc2d rt ~rows:4 ~cols:4 ~dist:Gmem.Chunked in
  Alcotest.(check bool) "oob" true
    (try
       ignore (Agg.peek a 4 0);
       false
     with Invalid_argument _ -> true)

let test_agg_double_buffer_swap () =
  let rt = mk_runtime Policy.stache in
  let a = Runtime.alloc2d rt ~rows:1 ~cols:8 ~dist:Gmem.Chunked in
  Agg.poke a 0 0 1;
  Alcotest.(check bool) "distinct buffers" true
    (Agg.read_addr a 0 0 <> Agg.write_addr a 0 0);
  Runtime.sequential rt (fun () -> Agg.set a 0 0 99);
  (* the write went to the back buffer: front still has 1 *)
  Alcotest.(check int) "front unchanged" 1 (Agg.peek a 0 0);
  Agg.swap a;
  Alcotest.(check int) "back visible after swap" 99 (Agg.peek a 0 0)

let test_agg_lcm_single_buffer () =
  let rt = mk_runtime Policy.lcm_mcc in
  let a = Runtime.alloc2d rt ~rows:1 ~cols:8 ~dist:Gmem.Chunked in
  Alcotest.(check bool) "same buffer" true
    (Agg.read_addr a 0 0 = Agg.write_addr a 0 0);
  Agg.poke a 0 0 5;
  Agg.swap a;
  Alcotest.(check int) "swap no-op" 5 (Agg.peek a 0 0)

let test_agg_to_matrix () =
  let rt = mk_runtime Policy.stache in
  let a = Runtime.alloc2d rt ~rows:2 ~cols:2 ~dist:Gmem.Chunked in
  Agg.pokef a 0 0 1.0;
  Agg.pokef a 1 1 4.0;
  let m = Agg.to_matrix a in
  Alcotest.(check (float 0.0)) "corner" 4.0 m.(1).(1);
  Alcotest.(check (float 0.0)) "other" 1.0 m.(0).(0)

(* fill writes every element row by row; sumf adds them row by row from
   0.0, as the row-major fold over to_matrix does, so a checksum taken
   either way agrees bit for bit. *)
let test_agg_fill_sumf () =
  List.iter
    (fun (policy : Policy.t) ->
      let rt = mk_runtime policy in
      let a = Runtime.alloc2d rt ~rows:5 ~cols:7 ~dist:Gmem.Chunked in
      Agg.fill a (fun i j -> (i * 100) + j);
      Alcotest.(check int) (policy.Policy.name ^ ": fill") 406 (Agg.peek a 4 6);
      Agg.fillf a (fun i j -> (float_of_int ((i * 7) + j) *. 0.37) -. 1.1);
      let fold =
        Array.fold_left (Array.fold_left ( +. )) 0.0 (Agg.to_matrix a)
      in
      Alcotest.(check int64)
        (policy.Policy.name ^ ": sumf bits")
        (Int64.bits_of_float fold)
        (Int64.bits_of_float (Agg.sumf a)))
    [ Policy.stache; Policy.lcm_mcc ]

(* ------------------------------------------------------------------ *)
(* parallel_apply semantics                                            *)
(* ------------------------------------------------------------------ *)

(* Square every element; compare against the sequential spec. *)
let test_parallel_square (name, policy) =
  ( Printf.sprintf "square elements (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let n = 40 in
      let a = Runtime.alloc1d rt ~n ~dist:Gmem.Chunked in
      for j = 0 to n - 1 do
        Agg.poke a 0 j (j + 1)
      done;
      Runtime.parallel_apply rt ~n (fun ctx ->
          let j = ctx.Ctx.index in
          Agg.set1 a j (Agg.get1 a j * Agg.get1 a j));
      Agg.swap a;
      for j = 0 to n - 1 do
        Alcotest.(check int) (Printf.sprintf "elem %d" j) ((j + 1) * (j + 1))
          (Agg.peek a 0 j)
      done )

(* The C** stencil semantics: every invocation reads neighbours and writes
   its own cell; all reads must observe the PHASE-START state.  A blocked
   sequential in-place update would differ; the runtime must match the
   two-array spec. *)
let stencil_spec grid =
  let n = Array.length grid in
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = 0 || j = 0 || i = n - 1 || j = n - 1 then grid.(i).(j)
          else
            0.25 *. (grid.(i - 1).(j) +. grid.(i + 1).(j) +. grid.(i).(j - 1) +. grid.(i).(j + 1))))

let test_parallel_stencil_semantics (name, policy) =
  ( Printf.sprintf "stencil semantics (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let n = 12 in
      let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Gmem.Chunked in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Agg.pokef a i j (float_of_int (((i * 7) + (j * 3)) mod 11))
        done
      done;
      let before = Agg.to_matrix a in
      Runtime.parallel_apply_2d rt ~rows:n ~cols:n (fun _ctx i j ->
          if i > 0 && j > 0 && i < n - 1 && j < n - 1 then
            Agg.setf a i j
              (0.25
              *. (Agg.getf a (i - 1) j +. Agg.getf a (i + 1) j +. Agg.getf a i (j - 1)
                 +. Agg.getf a i (j + 1)))
          else Agg.setf a i j (Agg.getf a i j));
      Agg.swap a;
      let expected = stencil_spec before in
      let got = Agg.to_matrix a in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          (* float32 arithmetic in the simulated memory vs float64 spec *)
          Alcotest.(check (float 1e-4))
            (Printf.sprintf "(%d,%d)" i j)
            expected.(i).(j) got.(i).(j)
        done
      done )

(* Dynamic scheduling must not change results. *)
let test_dynamic_schedule_same_result (name, policy) =
  ( Printf.sprintf "dynamic = static result (%s)" name,
    `Quick,
    fun () ->
      let run schedule =
        let rt = mk_runtime ~schedule policy in
        let n = 16 in
        let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Gmem.Chunked in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            Agg.pokef a i j (float_of_int ((i + j) mod 5))
          done
        done;
        for iter = 0 to 2 do
          Runtime.parallel_apply_2d rt ~iter ~rows:n ~cols:n (fun _ctx i j ->
              if i > 0 && j > 0 && i < n - 1 && j < n - 1 then
                Agg.setf a i j
                  (0.25
                  *. (Agg.getf a (i - 1) j +. Agg.getf a (i + 1) j
                     +. Agg.getf a i (j - 1) +. Agg.getf a i (j + 1)))
              else Agg.setf a i j (Agg.getf a i j));
          Agg.swap a
        done;
        Agg.to_matrix a
      in
      let st = run Schedule.Static in
      let dyn = run (Schedule.Dynamic_random 3) in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j v ->
              Alcotest.(check (float 0.0)) (Printf.sprintf "(%d,%d)" i j) v dyn.(i).(j))
            row)
        st )

let test_reducer_sum (name, policy) =
  ( Printf.sprintf "reducer sum (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let n = 32 in
      let a = Runtime.alloc1d rt ~n ~dist:Gmem.Chunked in
      for j = 0 to n - 1 do
        Agg.poke a 0 j (j + 1)
      done;
      let total = Runtime.reducer rt ~op:Reduction.int_sum ~init:0 in
      Runtime.parallel_apply rt ~reducers:[ total ] ~n (fun ctx ->
          Reducer.add ctx total (Agg.get1 a ctx.Ctx.index));
      Alcotest.(check int) "sum 1..32" (n * (n + 1) / 2) (Reducer.read total) )

let test_reducer_max (name, policy) =
  ( Printf.sprintf "reducer max (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let n = 20 in
      let a = Runtime.alloc1d rt ~n ~dist:Gmem.Chunked in
      for j = 0 to n - 1 do
        Agg.poke a 0 j ((j * 13) mod 17)
      done;
      let best = Runtime.reducer rt ~op:Reduction.int_max ~init:(-1) in
      Runtime.parallel_apply rt ~reducers:[ best ] ~n (fun ctx ->
          Reducer.add ctx best (Agg.get1 a ctx.Ctx.index));
      Alcotest.(check int) "max" 16 (Reducer.read best) )

let test_reducer_float_sum (name, policy) =
  ( Printf.sprintf "reducer f32 sum (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let n = 16 in
      let total = Runtime.reducer rt ~op:Reduction.f32_sum ~init:0 in
      Runtime.parallel_apply rt ~reducers:[ total ] ~n (fun ctx ->
          Reducer.addf ctx total (0.5 *. float_of_int (ctx.Ctx.index + 1)));
      Alcotest.(check (float 1e-4)) "sum" (0.5 *. 136.0) (Reducer.readf total) )

let test_reducer_across_calls (name, policy) =
  ( Printf.sprintf "reducer across calls (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let total = Runtime.reducer rt ~op:Reduction.int_sum ~init:100 in
      for _ = 1 to 3 do
        Runtime.parallel_apply rt ~reducers:[ total ] ~n:8 (fun ctx ->
            Reducer.add ctx total ctx.Ctx.index)
      done;
      (* 100 + 3 * (0+..+7) *)
      Alcotest.(check int) "accumulated" (100 + (3 * 28)) (Reducer.read total) )

let test_sequential_phase (name, policy) =
  ( Printf.sprintf "sequential phase (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let a = Runtime.alloc1d rt ~n:8 ~dist:Gmem.Chunked in
      Runtime.sequential rt (fun () ->
          for j = 0 to 7 do
            Agg.set1 a j (j * j)
          done);
      Agg.swap a;
      Alcotest.(check int) "written" 49 (Agg.peek a 0 7);
      (* clocks synchronised *)
      let m = Runtime.machine rt in
      let c0 = Machine.clock (Machine.node m 0) in
      for i = 1 to Machine.nnodes m - 1 do
        Alcotest.(check int) "clock sync" c0 (Machine.clock (Machine.node m i))
      done )

let test_phase_advances_time (name, policy) =
  ( Printf.sprintf "phase advances time (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let a = Runtime.alloc1d rt ~n:16 ~dist:Gmem.Chunked in
      let t0 = Runtime.elapsed rt in
      Runtime.parallel_apply rt ~n:16 (fun ctx -> Agg.set1 a ctx.Ctx.index 1);
      Alcotest.(check bool) "time advanced" true (Runtime.elapsed rt > t0);
      Alcotest.(check int) "stat calls" 1
        (Lcm_util.Stats.get (Runtime.stats rt) "cstar.parallel_calls");
      Alcotest.(check int) "stat invocations" 16
        (Lcm_util.Stats.get (Runtime.stats rt) "cstar.invocations") )

let test_multiple_reducers (name, policy) =
  ( Printf.sprintf "multiple reducers (%s)" name,
    `Quick,
    fun () ->
      let rt = mk_runtime policy in
      let n = 24 in
      let a = Runtime.alloc1d rt ~n ~dist:Gmem.Chunked in
      for j = 0 to n - 1 do
        Agg.poke a 0 j (j - 10)
      done;
      let total = Runtime.reducer rt ~op:Reduction.int_sum ~init:0 in
      let low = Runtime.reducer rt ~op:Reduction.int_min ~init:max_int in
      let high = Runtime.reducer rt ~op:Reduction.int_max ~init:min_int in
      Runtime.parallel_apply rt ~reducers:[ total; low; high ] ~n (fun ctx ->
          let v = Agg.get1 a ctx.Ctx.index in
          Reducer.add ctx total v;
          Reducer.add ctx low v;
          Reducer.add ctx high v);
      Alcotest.(check int) "sum" (n * (n - 1) / 2 - (10 * n)) (Reducer.read total);
      Alcotest.(check int) "min" (-10) (Reducer.read low);
      Alcotest.(check int) "max" (n - 1 - 10) (Reducer.read high) )

let test_sequential_on_other_node () =
  let rt = mk_runtime Policy.lcm_mcc in
  let a = Runtime.alloc1d rt ~n:8 ~dist:(Gmem.On 0) in
  (* run the sequential phase on node 3: remote writes still coherent *)
  Runtime.sequential rt ~node:3 (fun () -> Agg.set1 a 0 77);
  Alcotest.(check int) "remote sequential write" 77 (Agg.peek a 0 0)

let test_dynamic_schedule_charges_dequeue () =
  (* block-aligned chunks: static runs entirely local; rotating the chunks
     makes every write remote and adds the work-queue cost *)
  let run schedule =
    let rt = mk_runtime ~schedule Policy.stache in
    let a = Runtime.alloc1d rt ~n:64 ~dist:Gmem.Chunked in
    Runtime.parallel_apply rt ~iter:1 ~n:64 (fun ctx ->
        Agg.set1 a ctx.Ctx.index 1);
    Runtime.elapsed rt
  in
  let static = run Schedule.Static and rotate = run Schedule.Dynamic_rotate in
  Alcotest.(check bool)
    (Printf.sprintf "rotate %d > static %d" rotate static)
    true (rotate > static)

let test_nested_parallel_rejected () =
  (* the paper considers only non-nested parallel functions; a nested
     apply must fail loudly rather than corrupt the phase structure *)
  let rt = mk_runtime Policy.lcm_mcc in
  let a = Runtime.alloc1d rt ~n:4 ~dist:Gmem.Chunked in
  let failed = ref false in
  (try
     Runtime.parallel_apply rt ~n:2 (fun _ctx ->
         Runtime.parallel_apply rt ~n:2 (fun ctx -> Agg.set1 a ctx.Ctx.index 1))
   with Failure _ -> failed := true);
  Alcotest.(check bool) "nested apply rejected" true !failed

let test_apply_more_nodes_than_work () =
  (* n < nnodes: some nodes idle, everything still correct *)
  let rt = mk_runtime ~nnodes:8 Policy.lcm_mcc in
  let a = Runtime.alloc1d rt ~n:3 ~dist:Gmem.Chunked in
  Runtime.parallel_apply rt ~n:3 (fun ctx -> Agg.set1 a ctx.Ctx.index (ctx.Ctx.index * 5));
  for j = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "elem %d" j) (j * 5) (Agg.peek a 0 j)
  done

(* ------------------------------------------------------------------ *)
(* Shared-memory allocator                                             *)
(* ------------------------------------------------------------------ *)

let test_shalloc_alloc_free_cycle () =
  let rt = mk_runtime Policy.stache in
  let alloc = Shalloc.create (Runtime.proto rt) ~blocks_per_node:4 in
  Alcotest.(check int) "object words" 7 (Shalloc.object_words alloc);
  Alcotest.(check int) "all free initially" 4 (Shalloc.available alloc ~node:1);
  let got = ref [] in
  Runtime.sequential rt ~node:1 (fun () ->
      (* exhaust the arena *)
      for _ = 1 to 4 do
        match Shalloc.alloc alloc ~node:1 with
        | Some a -> got := a :: !got
        | None -> Alcotest.fail "premature exhaustion"
      done;
      Alcotest.(check bool) "exhausted" true (Shalloc.alloc alloc ~node:1 = None);
      (* free everything; allocate again *)
      List.iter (fun a -> Shalloc.free alloc ~node:1 a) !got);
  Alcotest.(check int) "all free again" 4 (Shalloc.available alloc ~node:1);
  (* addresses are distinct and block-spaced *)
  let sorted = List.sort_uniq compare !got in
  Alcotest.(check int) "distinct objects" 4 (List.length sorted)

let test_shalloc_objects_usable () =
  let rt = mk_runtime Policy.lcm_mcc in
  let alloc = Shalloc.create (Runtime.proto rt) ~blocks_per_node:2 in
  let seen = ref (-1) in
  Runtime.sequential rt ~node:2 (fun () ->
      match Shalloc.alloc alloc ~node:2 with
      | None -> Alcotest.fail "alloc failed"
      | Some a ->
        (* all usable words writable and independent of the free list *)
        for w = 0 to Shalloc.object_words alloc - 1 do
          Lcm_tempest.Memeff.store (a + w) (100 + w)
        done;
        seen := Lcm_tempest.Memeff.load (a + 3));
  Alcotest.(check int) "data intact" 103 !seen

let test_shalloc_free_validation () =
  let rt = mk_runtime Policy.stache in
  let alloc = Shalloc.create (Runtime.proto rt) ~blocks_per_node:2 in
  Runtime.sequential rt ~node:0 (fun () ->
      Alcotest.(check bool) "bogus free rejected" true
        (try
           Shalloc.free alloc ~node:0 12345;
           false
         with Invalid_argument _ -> true))

let test_shalloc_per_node_isolation () =
  let rt = mk_runtime Policy.stache in
  let alloc = Shalloc.create (Runtime.proto rt) ~blocks_per_node:2 in
  Runtime.sequential rt ~node:0 (fun () ->
      ignore (Shalloc.alloc alloc ~node:0);
      ignore (Shalloc.alloc alloc ~node:0));
  Alcotest.(check int) "node 0 exhausted" 0 (Shalloc.available alloc ~node:0);
  Alcotest.(check int) "node 1 untouched" 2 (Shalloc.available alloc ~node:1)

let test_shalloc_parallel_allocation () =
  (* every node allocates from its own arena during a parallel phase *)
  let rt = mk_runtime Policy.lcm_mcc in
  let alloc = Shalloc.create (Runtime.proto rt) ~blocks_per_node:8 in
  let m = Runtime.machine rt in
  Runtime.parallel_apply rt ~n:(Machine.nnodes m) (fun ctx ->
      for _ = 1 to 3 do
        match Shalloc.alloc alloc ~node:ctx.Ctx.node with
        | Some a -> Lcm_tempest.Memeff.store a ctx.Ctx.node
        | None -> ()
      done);
  for nid = 0 to Machine.nnodes m - 1 do
    Alcotest.(check int)
      (Printf.sprintf "node %d allocated 3" nid)
      5
      (Shalloc.available alloc ~node:nid)
  done

let prop_shalloc_conserves_objects =
  (* random alloc/free interleavings: objects are never duplicated and
     free-count + live-count = capacity throughout *)
  QCheck.Test.make ~name:"shalloc conserves objects" ~count:40
    QCheck.(list (int_bound 2))
    (fun script ->
      let rt = mk_runtime Policy.stache in
      let cap = 6 in
      let alloc = Shalloc.create (Runtime.proto rt) ~blocks_per_node:cap in
      let ok = ref true in
      Runtime.sequential rt ~node:2 (fun () ->
          let live = ref [] in
          List.iter
            (fun op ->
              (match op with
              | 0 | 1 -> (
                (* alloc *)
                match Shalloc.alloc alloc ~node:2 with
                | Some a ->
                  if List.mem a !live then ok := false;
                  live := a :: !live
                | None -> if List.length !live <> cap then ok := false)
              | _ -> (
                (* free most recent *)
                match !live with
                | a :: rest ->
                  Shalloc.free alloc ~node:2 a;
                  live := rest
                | [] -> ()));
              ())
            script;
          if Shalloc.available alloc ~node:2 + List.length !live <> cap then
            ok := false);
      !ok)

(* scc vs mcc vs stache: one multi-iteration workload, identical results *)
let test_all_systems_agree () =
  let run (_, policy) =
    let rt = mk_runtime policy in
    let n = 10 in
    let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Gmem.Chunked in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Agg.pokef a i j (if i = 0 then 10.0 else 0.0)
      done
    done;
    for iter = 0 to 4 do
      Runtime.parallel_apply_2d rt ~iter ~rows:n ~cols:n (fun _ctx i j ->
          if i > 0 && j > 0 && i < n - 1 && j < n - 1 then
            Agg.setf a i j
              (0.25
              *. (Agg.getf a (i - 1) j +. Agg.getf a (i + 1) j +. Agg.getf a i (j - 1)
                 +. Agg.getf a i (j + 1)))
          else Agg.setf a i j (Agg.getf a i j));
      Agg.swap a
    done;
    Agg.to_matrix a
  in
  match List.map run combos with
  | [ stache; scc; mcc ] ->
    Alcotest.(check bool) "stache = scc" true (stache = scc);
    Alcotest.(check bool) "scc = mcc" true (scc = mcc)
  | _ -> assert false

let per_combo f = List.map f combos

let () =
  Alcotest.run "lcm_cstar"
    [
      ( "schedule",
        [
          ("chunks balanced", `Quick, test_chunks_balanced);
          ("chunks sparse", `Quick, test_chunks_more_chunks_than_work);
          ("static stable", `Quick, test_static_assignment_stable);
          ("rotate moves", `Quick, test_rotate_assignment_moves);
          ("random is permutation", `Quick, test_random_assignment_is_permutation);
          ("random deterministic", `Quick, test_random_assignment_deterministic);
          ("parse", `Quick, test_schedule_parse);
          QCheck_alcotest.to_alcotest prop_chunks_partition;
          QCheck_alcotest.to_alcotest prop_assign_in_range;
        ] );
      ( "agg",
        [
          ("poke/peek", `Quick, test_agg_poke_peek);
          ("bounds", `Quick, test_agg_bounds);
          ("double buffer swap", `Quick, test_agg_double_buffer_swap);
          ("lcm single buffer", `Quick, test_agg_lcm_single_buffer);
          ("to_matrix", `Quick, test_agg_to_matrix);
          ("fill and sumf", `Quick, test_agg_fill_sumf);
        ] );
      ("apply", per_combo test_parallel_square @ per_combo test_parallel_stencil_semantics
               @ per_combo test_dynamic_schedule_same_result);
      ( "reducer",
        per_combo test_reducer_sum @ per_combo test_reducer_max
        @ per_combo test_reducer_float_sum @ per_combo test_reducer_across_calls );
      ( "runtime",
        per_combo test_sequential_phase @ per_combo test_phase_advances_time
        @ per_combo test_multiple_reducers
        @ [
            ("all systems agree", `Quick, test_all_systems_agree);
            ("sequential on other node", `Quick, test_sequential_on_other_node);
            ("dynamic charges dequeue", `Quick, test_dynamic_schedule_charges_dequeue);
            ("more nodes than work", `Quick, test_apply_more_nodes_than_work);
            ("nested parallel rejected", `Quick, test_nested_parallel_rejected);
          ] );
      ( "shalloc",
        [
          ("alloc/free cycle", `Quick, test_shalloc_alloc_free_cycle);
          ("objects usable", `Quick, test_shalloc_objects_usable);
          ("free validation", `Quick, test_shalloc_free_validation);
          ("per-node isolation", `Quick, test_shalloc_per_node_isolation);
          ("parallel allocation", `Quick, test_shalloc_parallel_allocation);
          QCheck_alcotest.to_alcotest prop_shalloc_conserves_objects;
        ] );
    ]
