(* Semantic-violation and data-race detection (paper sections 7.2-7.3).

   LCM already tracks which words each processor modified, so
   reconciliation can report (a) two invocations writing the same word and
   (b) a block both read and written during one parallel phase — without
   per-location access histories.

     dune exec examples/race_detection.exe *)

open Lcm_cstar
module Memeff = Lcm_tempest.Memeff

let mk () =
  let machine =
    Lcm_tempest.Machine.create ~nnodes:4 ~words_per_block:8
      ~topology:Lcm_net.Topology.Crossbar ()
  in
  let proto =
    Lcm_core.Proto.install ~detection:Lcm_core.Detect.At_reconcile
      ~policy:Lcm_core.Policy.lcm_mcc machine
  in
  let rt = Runtime.create proto ~schedule:Schedule.Static in
  (proto, rt)

let () =
  print_endline "-- write/write conflict --";
  let proto, rt = mk () in
  let a = Runtime.alloc1d rt ~n:8 ~dist:Lcm_mem.Gmem.Chunked in
  (* Both invocations write element 3: under C** semantics exactly one
     value survives, and detection flags the violation. *)
  Runtime.parallel_apply rt ~n:2 (fun ctx ->
      Agg.set1 a 3 (100 + ctx.Ctx.index));
  List.iter
    (fun c -> Format.printf "  %a@." Lcm_core.Detect.pp_conflict c)
    (Lcm_core.Proto.conflicts proto);
  Printf.printf "  surviving value: %d (exactly one write won)\n\n"
    (Agg.peek a 0 3);

  print_endline "-- read/write race --";
  let proto, rt = mk () in
  let a = Runtime.alloc1d rt ~n:32 ~dist:Lcm_mem.Gmem.Chunked in
  (* One invocation reads element 5 while another writes it: a race under
     traditional semantics (C** itself permits it — the read sees the
     phase-start value).  The reader must not be the block's home node:
     home accesses hit local memory without a protocol request, so they
     are invisible to reconcile-time detection (see Detect). *)
  Runtime.parallel_apply rt ~n:4 (fun ctx ->
      match ctx.Ctx.index with
      | 2 -> ignore (Agg.get1 a 5)
      | 1 -> Agg.set1 a 5 9
      | _ -> ());
  List.iter
    (fun r -> Format.printf "  %a@." Lcm_core.Detect.pp_race r)
    (Lcm_core.Proto.races proto);

  print_endline "\n-- clean run: nothing reported --";
  let proto, rt = mk () in
  let a = Runtime.alloc1d rt ~n:8 ~dist:Lcm_mem.Gmem.Chunked in
  Runtime.parallel_apply rt ~n:8 (fun ctx -> Agg.set1 a ctx.Ctx.index ctx.Ctx.index);
  Printf.printf "  conflicts: %d, races: %d\n"
    (List.length (Lcm_core.Proto.conflicts proto))
    (List.length (Lcm_core.Proto.races proto))
