(* Tests for the four paper benchmarks: every (protocol, strategy, schedule)
   combination must reproduce the host-side sequential reference. *)

open Lcm_apps
open Lcm_cstar
module Policy = Lcm_core.Policy
module Machine = Lcm_tempest.Machine

let mk_runtime ?(nnodes = 8) ?(schedule = Schedule.Static) policy =
  let m =
    Machine.create ~nnodes ~words_per_block:8
      ~topology:(Lcm_net.Topology.Fat_tree { arity = 4 })
      ()
  in
  let p = Lcm_core.Proto.install ~policy m in
  Runtime.create p ~schedule

let combos =
  [
    ("stache", Policy.stache);
    ("scc", Policy.lcm_scc);
    ("mcc", Policy.lcm_mcc);
  ]

let schedules = [ ("static", Schedule.Static); ("dyn", Schedule.Dynamic_random 5) ]

let check_close name expected actual =
  let denom = max 1.0 (abs_float expected) in
  if abs_float (expected -. actual) /. denom > 1e-4 then
    Alcotest.failf "%s: expected %.8g, got %.8g" name expected actual

(* Build one test per app x protocol x schedule. *)
let app_tests ~app_name ~reference ~run ~params =
  List.concat_map
    (fun (sname, schedule) ->
      List.map
        (fun (pname, policy) ->
          ( Printf.sprintf "%s %s/%s matches reference" app_name pname sname,
            `Slow,
            fun () ->
              let rt = mk_runtime ~schedule policy in
              let r = run rt params in
              check_close app_name (reference params) r.Bench_result.checksum;
              Alcotest.(check bool) "time advanced" true (r.Bench_result.cycles > 0)
          ))
        combos)
    schedules

let stencil_params = { Stencil.n = 24; iters = 4; work_per_cell = 4 }

let threshold_params = { Threshold.n = 24; iters = 4; threshold = 0.5; work_per_cell = 4 }

let unstructured_params =
  { Unstructured.nodes = 48; edges = 160; iters = 6; seed = 11; work_per_node = 6 }

let sor_params = { Sor.n = 26; iters = 4; omega = 1.5; work_per_cell = 4 }

let adaptive_params =
  {
    Adaptive.n = 12;
    iters = 6;
    max_depth = 2;
    subdiv_threshold = 2.0;
    arena_per_node = 512;
    work_per_cell = 6;
  }

(* ------------------------------------------------------------------ *)
(* Behaviour diagnostics                                               *)
(* ------------------------------------------------------------------ *)

let test_threshold_sparse_updates () =
  let rt = mk_runtime Policy.lcm_mcc in
  let frac =
    Threshold.modified_fraction rt
      { Threshold.n = 32; iters = 6; threshold = 0.5; work_per_cell = 4 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "sparse (%.3f)" frac)
    true
    (frac > 0.0 && frac < 0.25)

let test_threshold_lcm_writes_fewer_blocks () =
  let run policy =
    let rt = mk_runtime policy in
    Threshold.run rt threshold_params
  in
  let stache = run Policy.stache in
  let mcc = run Policy.lcm_mcc in
  (* LCM's whole point on Threshold: far fewer blocks change hands, and the
     run is faster. *)
  Alcotest.(check bool)
    (Printf.sprintf "fewer faults (%d < %d)" mcc.Bench_result.faults
       stache.Bench_result.faults)
    true
    (mcc.Bench_result.faults < stache.Bench_result.faults);
  Alcotest.(check bool)
    (Printf.sprintf "faster (%d < %d)" mcc.Bench_result.cycles
       stache.Bench_result.cycles)
    true
    (mcc.Bench_result.cycles < stache.Bench_result.cycles)

let test_adaptive_subdivides () =
  let rt = mk_runtime Policy.lcm_mcc in
  let n = Adaptive.cells_allocated rt adaptive_params in
  Alcotest.(check bool)
    (Printf.sprintf "tree grew (%d cells)" n)
    true
    (n > adaptive_params.Adaptive.n * adaptive_params.Adaptive.n)

let test_adaptive_refinement_map () =
  let rt = mk_runtime Policy.lcm_mcc in
  let map = Adaptive.refinement_map rt adaptive_params in
  let lines = String.split_on_char '\n' (String.trim map) in
  Alcotest.(check int) "one row per base row" adaptive_params.Adaptive.n
    (List.length lines);
  (* the hot left edge refines; the far right edge does not *)
  let mid = List.nth lines (adaptive_params.Adaptive.n / 2) in
  Alcotest.(check bool) "refined near the hot edge" true (mid.[1] <> '.');
  Alcotest.(check bool) "calm far corner" true
    (let last = List.nth lines (adaptive_params.Adaptive.n - 1) in
     last.[String.length last - 1] = '.')

let test_adaptive_static_dynamic_agree () =
  (* same protocol, different schedules: allocation layout differs but the
     computed values must not *)
  let run schedule =
    let rt = mk_runtime ~schedule Policy.lcm_scc in
    (Adaptive.run rt adaptive_params).Bench_result.checksum
  in
  check_close "adaptive" (run Schedule.Static) (run (Schedule.Dynamic_random 5))

let test_stencil_lcm_clean_copies_grow_with_writes () =
  let rt = mk_runtime Policy.lcm_mcc in
  let r = Stencil.run rt stencil_params in
  Alcotest.(check bool) "clean copies created" true (r.Bench_result.clean_copies > 0)

let test_stencil_stache_has_no_clean_copies () =
  let rt = mk_runtime Policy.stache in
  let r = Stencil.run rt stencil_params in
  Alcotest.(check int) "no clean copies" 0 r.Bench_result.clean_copies

let prop_stencil_linearity =
  (* averaging is linear: scaling the initial condition scales the result.
     Exercised end-to-end through the simulated memory system. *)
  QCheck.Test.make ~name:"stencil is linear in its initial condition" ~count:8
    QCheck.(int_range 2 5)
    (fun k ->
      let run scale =
        let rt = mk_runtime ~nnodes:4 Policy.lcm_mcc in
        let n = 16 in
        let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Lcm_mem.Gmem.Chunked in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            Agg.pokef a i j (float_of_int (scale * (if i = 0 then 4 else 0)))
          done
        done;
        for iter = 0 to 3 do
          Runtime.parallel_apply_2d rt ~iter ~rows:n ~cols:n (fun _ctx i j ->
              if i > 0 && j > 0 && i < n - 1 && j < n - 1 then
                Agg.setf a i j
                  (0.25
                  *. (Agg.getf a (i - 1) j +. Agg.getf a (i + 1) j
                     +. Agg.getf a i (j - 1) +. Agg.getf a i (j + 1)))
              else Agg.setf a i j (Agg.getf a i j));
          Agg.swap a
        done;
        let sum = ref 0.0 in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            sum := !sum +. Agg.peekf a i j
          done
        done;
        !sum
      in
      let base = run 1 and scaled = run k in
      (* powers-of-two-friendly values keep float32 exact enough *)
      abs_float (scaled -. (float_of_int k *. base)) < 1e-3 *. abs_float scaled +. 1e-6)

let test_unstructured_graph_construction () =
  (* the generated graph is deterministic, connected, and has the requested
     number of edges *)
  let p = unstructured_params in
  let a = Unstructured.reference p and b = Unstructured.reference p in
  Alcotest.(check (float 0.0)) "deterministic" a b

let test_unstructured_edge_bound () =
  (* 9 nodes hold at most 36 distinct edges: one more must raise, not
     spin looking for an edge that does not exist *)
  let p n edges = { unstructured_params with Unstructured.nodes = n; edges; iters = 1 } in
  ignore (Unstructured.reference (p 9 36));
  Alcotest.check_raises "one edge too many"
    (Invalid_argument
       "Unstructured.build_graph: 37 edges, but a simple graph on 9 nodes has \
        at most 36")
    (fun () -> ignore (Unstructured.reference (p 9 37)))

let test_sor_no_explicit_marks () =
  (* the compiler emitted no directives: every mark is an implicit one *)
  let rt = mk_runtime Policy.lcm_mcc in
  ignore (Sor.run rt sor_params);
  let s = Runtime.stats rt in
  Alcotest.(check int) "marks = implicit marks"
    (Lcm_util.Stats.get s "lcm.implicit_marks")
    (Lcm_util.Stats.get s "lcm.marks");
  Alcotest.(check bool) "implicit marks happened" true
    (Lcm_util.Stats.get s "lcm.implicit_marks" > 0)

let test_sor_lcm_avoids_write_ping_pong () =
  (* blocks straddling partition boundaries are falsely shared; Stache
     re-acquires them exclusively, LCM merges private copies *)
  let faults policy =
    let rt = mk_runtime policy in
    (Sor.run rt sor_params).Bench_result.faults
  in
  let stache = faults Policy.stache in
  let mcc = faults Policy.lcm_mcc in
  Alcotest.(check bool)
    (Printf.sprintf "fault counts differ sensibly (stache %d, mcc %d)" stache mcc)
    true
    (stache > 0 && mcc > 0)

let test_stencil_mcc_fewer_faults_than_scc () =
  (* The paper: "LCM-mcc ... reduced cache misses by a factor of almost 8
     over LCM-scc" — scc re-faults on every re-marked block after a flush,
     mcc restores it from the local clean copy. *)
  let run policy =
    let rt = mk_runtime policy in
    Stencil.run rt stencil_params
  in
  let scc = run Policy.lcm_scc and mcc = run Policy.lcm_mcc in
  Alcotest.(check bool)
    (Printf.sprintf "mcc faults %d << scc faults %d" mcc.Bench_result.faults
       scc.Bench_result.faults)
    true
    (4 * mcc.Bench_result.faults < scc.Bench_result.faults);
  Alcotest.(check bool)
    (Printf.sprintf "mcc faster (%d < %d)" mcc.Bench_result.cycles
       scc.Bench_result.cycles)
    true
    (mcc.Bench_result.cycles < scc.Bench_result.cycles)

let () =
  Alcotest.run "lcm_apps" ~and_exit:true
    [
      ( "stencil",
        app_tests ~app_name:"stencil" ~reference:Stencil.reference ~run:Stencil.run
          ~params:stencil_params
        @ [
            ("mcc clean copies", `Quick, test_stencil_lcm_clean_copies_grow_with_writes);
            ("stache no clean copies", `Quick, test_stencil_stache_has_no_clean_copies);
            ("mcc beats scc on refetches", `Slow, test_stencil_mcc_fewer_faults_than_scc);
            QCheck_alcotest.to_alcotest prop_stencil_linearity;
          ] );
      ( "threshold",
        app_tests ~app_name:"threshold" ~reference:Threshold.reference
          ~run:Threshold.run ~params:threshold_params
        @ [
            ("sparse updates", `Quick, test_threshold_sparse_updates);
            ("lcm copies less", `Slow, test_threshold_lcm_writes_fewer_blocks);
          ] );
      ( "unstructured",
        app_tests ~app_name:"unstructured" ~reference:Unstructured.reference
          ~run:Unstructured.run ~params:unstructured_params
        @ [
            ("graph deterministic", `Quick, test_unstructured_graph_construction);
            ("edge bound", `Quick, test_unstructured_edge_bound);
          ] );
      ( "adaptive",
        app_tests ~app_name:"adaptive" ~reference:Adaptive.reference ~run:Adaptive.run
          ~params:adaptive_params
        @ [
            ("subdivides", `Slow, test_adaptive_subdivides);
            ("schedules agree", `Slow, test_adaptive_static_dynamic_agree);
            ("refinement map", `Slow, test_adaptive_refinement_map);
          ] );
      ( "sor",
        app_tests ~app_name:"sor" ~reference:Sor.reference ~run:Sor.run
          ~params:sor_params
        @ [
            ("no explicit marks", `Quick, test_sor_no_explicit_marks);
            ("false sharing handled", `Quick, test_sor_lcm_avoids_write_ping_pong);
          ] );
    ]
