(* Stale data (paper section 7.5): an N-body-style computation tolerates
   old values of remote bodies, so consumers pin their read-only copies
   across reconciliations and refresh them only occasionally.

     dune exec examples/stale_data.exe *)

open Lcm_harness
open Lcm_apps

let params = Nbody_stale.params ~bodies:512 ~iters:12

let run mode =
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 16 }
      Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
  in
  Nbody_stale.run rt mode params

let () =
  let fresh = run `Fresh in
  Printf.printf "%d bodies, %d iterations, 16 nodes\n\n" params.Nbody_stale.bodies
    params.Nbody_stale.iters;
  Lcm_util.Tablefmt.print
    ~header:[ "mode"; "cycles"; "remote fetches"; "speedup"; "result drift" ]
    (List.map
       (fun mode ->
         let r = run mode in
         [
           Nbody_stale.mode_name mode;
           string_of_int r.Bench_result.cycles;
           string_of_int r.Bench_result.remote_fetches;
           Printf.sprintf "%.2fx"
             (float_of_int fresh.Bench_result.cycles
             /. float_of_int r.Bench_result.cycles);
           Printf.sprintf "%.4f"
             (abs_float (r.Bench_result.checksum -. fresh.Bench_result.checksum));
         ])
       [ `Fresh; `Stale 2; `Stale 4; `Stale 8 ]);
  print_newline ();
  print_endline "pinned read-only copies survive reconciliation; a refresh drops";
  print_endline "them so the next reference fetches the latest value"
