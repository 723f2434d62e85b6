(* The paper's motivating scenario (sections 6.2-6.3): a dynamic,
   pointer-based adaptive mesh that a compiler cannot analyse.  Under a
   conventional memory system the program must conservatively copy the
   whole mesh every iteration; under LCM the memory system copies only what
   is actually modified.

     dune exec examples/adaptive_mesh.exe *)

open Lcm_harness
open Lcm_apps

let params = Adaptive.params ~n:24 ~iters:12 ~max_depth:3 ~arena_per_node:2048

let run system schedule =
  let machine = { Config.default_machine with Config.nnodes = 16 } in
  let rt = Config.make_runtime machine system ~schedule in
  Adaptive.run rt params

let () =
  print_endline "Adaptive mesh: conventional explicit copying vs LCM";
  print_endline "(dynamically scheduled, 16 nodes)\n";
  let stache = run Config.stache (Lcm_cstar.Schedule.Dynamic_random 5) in
  let mcc = run Config.lcm_mcc (Lcm_cstar.Schedule.Dynamic_random 5) in
  Lcm_util.Tablefmt.print
    ~header:[ "system"; "cycles"; "faults"; "clean copies"; "messages" ]
    [
      [
        "Stache + conservative copy";
        string_of_int stache.Bench_result.cycles;
        string_of_int stache.Bench_result.faults;
        string_of_int stache.Bench_result.clean_copies;
        string_of_int stache.Bench_result.messages;
      ];
      [
        "LCM-mcc (copy-on-write marks)";
        string_of_int mcc.Bench_result.cycles;
        string_of_int mcc.Bench_result.faults;
        string_of_int mcc.Bench_result.clean_copies;
        string_of_int mcc.Bench_result.messages;
      ];
    ];
  Printf.printf "\nresults agree: %b\n" (Bench_result.close stache mcc);
  Printf.printf "speedup from LCM: %.2fx\n"
    (float_of_int stache.Bench_result.cycles /. float_of_int mcc.Bench_result.cycles);
  (* the paper's Figure 1: refinement clusters where the gradient is steep *)
  print_endline "\nfinal mesh refinement (digit = quad-tree depth):";
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 16 }
      Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
  in
  print_string (Adaptive.refinement_map rt params)
