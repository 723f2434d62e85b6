(* The C** compiler's side of the bargain (paper section 6).

   A kernel written in the miniature C** AST is analysed for conflicting
   accesses; the compiler then emits either LCM directives or conservative
   explicit-copying code.  This demo prints both compilations of the
   paper's stencil function, plus the analysis of a pure map, where the
   compiler proves no directives are needed at all.  It then runs both
   compilations and exits 1 if their results disagree.

     dune exec examples/compiler_demo.exe *)

open Lcm_cstar
module K = Kernel
module Kernels = Lcm_apps.Kernels

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
  Format.printf "%a@." K.pp Kernels.stencil;

  print_endline "=== conflict analysis ===";
  Format.printf "stencil: %a@." K.pp_decision (K.analyze Kernels.stencil);
  Format.printf "blur:    %a@.@." K.pp_decision (K.analyze blur);

  print_endline "=== compiled for LCM (the paper's section 6.1 listing) ===";
  Format.printf "%a@." (K.pp_compiled (mk Lcm_core.Policy.lcm_mcc)) Kernels.stencil;

  print_endline "=== compiled with explicit copying (the baseline) ===";
  Format.printf "%a@." (K.pp_compiled (mk Lcm_core.Policy.stache)) Kernels.stencil;

  (* And actually run both; they must agree. *)
  let run policy =
    Kernels.run_stencil (mk policy) ~n:16 ~iters:5 ~init:(fun i _ ->
        if i = 0 then 8.0 else 0.0)
  in
  let lcm_sum = run Lcm_core.Policy.lcm_mcc in
  let copy_sum = run Lcm_core.Policy.stache in
  let agree = abs_float (lcm_sum -. copy_sum) < 1e-6 in
  Printf.printf "=== execution check ===\nLCM result %.4f  explicit-copy result %.4f  agree: %b\n"
    lcm_sum copy_sum agree;
  if not agree then exit 1
