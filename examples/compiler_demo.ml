(* The C** compiler's side of the bargain (paper section 6).

   A kernel written in the miniature C** AST is analysed for conflicting
   accesses; the compiler then emits either LCM directives or conservative
   explicit-copying code.  This demo prints both compilations of the
   paper's stencil function, plus the analysis of a pure map, where the
   compiler proves no directives are needed at all.

     dune exec examples/compiler_demo.exe *)

open Lcm_cstar
module K = Kernel

let stencil =
  {
    K.name = "stencil";
    body =
      [
        K.If
          ( K.Interior,
            [
              K.Assign
                ( "A",
                  K.Self,
                  K.Self,
                  K.Mul
                    ( K.Const 0.25,
                      K.Add
                        ( K.Add
                            ( K.Add
                                ( K.Read ("A", K.Off (-1), K.Self),
                                  K.Read ("A", K.Off 1, K.Self) ),
                              K.Read ("A", K.Self, K.Off (-1)) ),
                          K.Read ("A", K.Self, K.Off 1) ) ) );
            ],
            [ K.Assign ("A", K.Self, K.Self, K.Read ("A", K.Self, K.Self)) ] );
      ];
  }

let blur =
  {
    K.name = "blur_into";
    body =
      [
        K.Assign
          ( "B",
            K.Self,
            K.Self,
            K.Mul
              ( K.Const 0.5,
                K.Add (K.Read ("A", K.Self, K.Self), K.Read ("A", K.Off 1, K.Self)) ) );
      ];
  }

(* the policy picks the compilation: LCM-mcc gets LCM directives, Stache
   explicit copying *)
let mk policy =
  let m =
    Lcm_tempest.Machine.create ~nnodes:8 ~words_per_block:8
      ~topology:Lcm_net.Topology.Crossbar ()
  in
  let p = Lcm_core.Proto.install ~policy m in
  Runtime.create p ~schedule:Schedule.Static

let () =
  print_endline "=== source kernel ===";
  Format.printf "%a@." K.pp stencil;

  print_endline "=== conflict analysis ===";
  Format.printf "stencil: %a@." K.pp_decision (K.analyze stencil);
  Format.printf "blur:    %a@.@." K.pp_decision (K.analyze blur);

  print_endline "=== compiled for LCM (the paper's section 6.1 listing) ===";
  Format.printf "%a@." (K.pp_compiled (mk Lcm_core.Policy.lcm_mcc)) stencil;

  print_endline "=== compiled with explicit copying (the baseline) ===";
  Format.printf "%a@." (K.pp_compiled (mk Lcm_core.Policy.stache)) stencil;

  (* And actually run both; they must agree. *)
  let run policy =
    let rt = mk policy in
    let a = Runtime.alloc2d rt ~rows:16 ~cols:16 ~dist:Lcm_mem.Gmem.Chunked in
    for i = 0 to 15 do
      for j = 0 to 15 do
        Agg.pokef a i j (if i = 0 then 8.0 else 0.0)
      done
    done;
    let apply = K.compile rt stencil { K.aggs = [ ("A", a) ]; reducers = [] } ~over:"A" in
    for iter = 0 to 4 do
      apply ~iter ()
    done;
    let sum = ref 0.0 in
    for i = 0 to 15 do
      for j = 0 to 15 do
        sum := !sum +. Agg.peekf a i j
      done
    done;
    !sum
  in
  let lcm_sum = run Lcm_core.Policy.lcm_mcc in
  let copy_sum = run Lcm_core.Policy.stache in
  Printf.printf "=== execution check ===\nLCM result %.4f  explicit-copy result %.4f  agree: %b\n"
    lcm_sum copy_sum
    (abs_float (lcm_sum -. copy_sum) < 1e-6)
