(* Global reductions three ways (paper section 7.1).

     dune exec examples/reductions.exe

   The RSM reconciliation mechanism combines per-processor accumulators
   with the registered operator — no lock, no hand-written partial-sum
   code, and no extra compiler analysis to distinguish accumulators. *)

open Lcm_harness
open Lcm_apps

let params = Reduce_demo.params ~n:8192

let () =
  let machine = { Config.default_machine with Config.nnodes = 16 } in
  let rows =
    List.map
      (fun variant ->
        let system =
          match variant with
          | `Rsm_reconcile -> Config.lcm_mcc
          | `Manual_partials | `Serialized -> Config.stache
        in
        let rt = Config.make_runtime machine system ~schedule:Lcm_cstar.Schedule.Static in
        (variant, Reduce_demo.run rt variant params))
      [ `Rsm_reconcile; `Manual_partials; `Serialized ]
  in
  Printf.printf "summing a %d-element distributed array on %d nodes\n\n"
    params.Reduce_demo.n machine.Config.nnodes;
  Lcm_util.Tablefmt.print
    ~header:[ "implementation"; "cycles"; "messages"; "sum" ]
    (List.map
       (fun (v, (r : Bench_result.t)) ->
         [
           Reduce_demo.variant_name v;
           string_of_int r.cycles;
           string_of_int r.messages;
           Printf.sprintf "%.0f" r.checksum;
         ])
       rows);
  print_newline ();
  print_endline "rsm-reconcile:   reduction assignment through LCM private copies;";
  print_endline "                 reconciliation applies int_sum at the home";
  print_endline "manual-partials: the hand-written per-processor partial sums";
  print_endline "serialized:      atomic adds to one shared location (block ping-pong)"
