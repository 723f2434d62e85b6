(* Differential tests: the DSL-compiled benchmark kernels must produce the
   same results as the hand-written applications' references, under every
   memory system. *)

open Lcm_apps
open Lcm_cstar
module Policy = Lcm_core.Policy
module Machine = Lcm_tempest.Machine
module K = Kernel

let mk policy =
  let m =
    Machine.create ~nnodes:8 ~words_per_block:8
      ~topology:(Lcm_net.Topology.Fat_tree { arity = 4 })
      ()
  in
  let p = Lcm_core.Proto.install ~policy m in
  Runtime.create p ~schedule:Schedule.Static

let combos =
  [
    ("stache", Policy.stache);
    ("scc", Policy.lcm_scc);
    ("mcc", Policy.lcm_mcc);
  ]

let check_close name expected actual =
  let denom = max 1.0 (abs_float expected) in
  if abs_float (expected -. actual) /. denom > 1e-4 then
    Alcotest.failf "%s: expected %.8g, got %.8g" name expected actual

(* the stencil app's init, reproduced for the DSL run *)
let stencil_init ~n i j =
  if i = 0 then 100.0
  else if i = n - 1 || j = 0 || j = n - 1 then 0.0
  else if (i * 31) + (j * 17) mod 257 = 0 then 50.0
  else 0.0

let test_dsl_stencil_matches_app (name, policy) =
  ( Printf.sprintf "DSL stencil == app reference (%s)" name,
    `Quick,
    fun () ->
      let n = 24 and iters = 4 in
      let rt = mk policy in
      let got =
        Kernels.run_stencil rt ~n ~iters ~init:(stencil_init ~n)
      in
      let expected =
        Stencil.reference { Stencil.n; iters; work_per_cell = 4 }
      in
      check_close "stencil" expected got )

let test_dsl_sor_matches_app (name, policy) =
  ( Printf.sprintf "DSL sor == app reference (%s)" name,
    `Quick,
    fun () ->
      let n = 26 and iters = 4 and omega = 1.5 in
      let rt = mk policy in
      let init i _j = if i = 0 then 100.0 else 0.0 in
      let got = Kernels.run_sor rt ~n ~iters ~omega ~init in
      let expected =
        Sor.reference { Sor.n; iters; omega; work_per_cell = 4 }
      in
      check_close "sor" expected got )

let test_sor_half_analysis () =
  (* a half-sweep writes one colour and reads the other colour's words of
     the SAME aggregate at non-self offsets: word-exact analysis is beyond
     the per-aggregate summary, so the compiler conservatively marks *)
  let d = K.analyze (Kernels.sor_half ~colour:0 ~omega:1.5) in
  Alcotest.(check (list string)) "A marked (conservative)" [ "A" ] d.K.marked_aggs;
  (* the guarded write is not definitely-assigned: pre-copy required *)
  Alcotest.(check (list string)) "pre-copied" [ "A" ] d.K.precopied

let test_threshold_kernel_analysis () =
  let d = K.analyze (Kernels.threshold ~omega:0.5) in
  Alcotest.(check (list string)) "A marked" [ "A" ] d.K.marked_aggs;
  Alcotest.(check bool) "flush between" true d.K.flush_between;
  Alcotest.(check (list string)) "guarded write pre-copies" [ "A" ] d.K.precopied

let test_threshold_kernel_runs () =
  (* the DSL threshold behaves like a threshold: values stabilise and all
     systems agree *)
  let run (_, policy) =
    let n = 16 in
    let rt = mk policy in
    let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Lcm_mem.Gmem.Chunked in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Agg.pokef a i j (if i = 0 then 100.0 else 0.0)
      done
    done;
    let apply =
      K.compile rt (Kernels.threshold ~omega:0.5)
        { K.aggs = [ ("A", a) ]; reducers = [] }
        ~over:"A"
    in
    for iter = 0 to 3 do
      apply ~iter ()
    done;
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        sum := !sum +. Agg.peekf a i j
      done
    done;
    !sum
  in
  match List.map run combos with
  | [ a; b; c ] ->
    Alcotest.(check (float 1e-3)) "stache = scc" a b;
    Alcotest.(check (float 1e-3)) "scc = mcc" b c;
    Alcotest.(check bool) "heat spread" true (a > 100.0 *. 16.0)
  | _ -> assert false

let test_imod_atom () =
  (* IMod/IAdd evaluate correctly inside a kernel condition *)
  let rt = mk Policy.lcm_mcc in
  let n = 8 in
  let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Lcm_mem.Gmem.Chunked in
  let k =
    {
      K.name = "checkerboard";
      body =
        [
          K.If
            ( K.ICmp (K.Eq, K.IMod (K.IAdd (K.I, K.J), 2), K.IConst 0),
              [ K.Assign ("A", K.Self, K.Self, K.Const 1.0) ],
              [ K.Assign ("A", K.Self, K.Self, K.Const 2.0) ] );
        ];
    }
  in
  let apply = K.compile rt k { K.aggs = [ ("A", a) ]; reducers = [] } ~over:"A" in
  apply ();
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let expected = if (i + j) mod 2 = 0 then 1.0 else 2.0 in
      Alcotest.(check (float 0.0)) (Printf.sprintf "(%d,%d)" i j) expected
        (Agg.peekf a i j)
    done
  done

let per_combo f = List.map f combos

let () =
  Alcotest.run "lcm_kernels_apps"
    [
      ( "dsl benchmarks",
        per_combo test_dsl_stencil_matches_app
        @ per_combo test_dsl_sor_matches_app
        @ [
            ("sor analysis", `Quick, test_sor_half_analysis);
            ("threshold analysis", `Quick, test_threshold_kernel_analysis);
            ("threshold runs", `Quick, test_threshold_kernel_runs);
            ("imod atom", `Quick, test_imod_atom);
          ] );
    ]
