(* Quickstart: build a simulated multiprocessor, install Loosely Coherent
   Memory, and run a C**-style parallel function over an aggregate.

     dune exec examples/quickstart.exe

   The example demonstrates the core LCM semantics from the paper: during a
   parallel call every invocation sees the phase-start state of memory, all
   modifications stay private until reconcile_copies(), and the new global
   state appears atomically at the end of the call. *)

open Lcm_cstar

let () =
  (* A 8-node machine with CM-5-flavoured costs and an arity-4 fat tree. *)
  let machine =
    Lcm_tempest.Machine.create ~nnodes:8 ~words_per_block:8
      ~topology:(Lcm_net.Topology.Fat_tree { arity = 4 })
      ()
  in
  (* Install the LCM-mcc protocol (clean copies on every caching node). *)
  let proto = Lcm_core.Proto.install ~policy:Lcm_core.Policy.lcm_mcc machine in
  (* Under an LCM policy the runtime compiles parallel functions with LCM
     directives. *)
  let rt = Runtime.create proto ~schedule:Schedule.Static in

  (* An aggregate: a 1-D array of 64 values distributed across the nodes. *)
  let a = Runtime.alloc1d rt ~n:64 ~dist:Lcm_mem.Gmem.Chunked in
  Agg.fill a (fun _ i -> i);

  (* The parallel function: every element becomes the sum of itself and its
     ring neighbours.  Each invocation READS its neighbours and WRITES its
     own element — under a plain shared memory this would race; under C**
     semantics every invocation sees the phase-start values. *)
  Runtime.parallel_apply rt ~n:64 (fun ctx ->
      let i = ctx.Ctx.index in
      let left = Agg.get1 a ((i + 63) mod 64)
      and self = Agg.get1 a i
      and right = Agg.get1 a ((i + 1) mod 64) in
      Agg.set1 a i (left + self + right));

  (* After the parallel call the merged state is globally visible. *)
  let expect i = ((i + 63) mod 64) + i + ((i + 1) mod 64) in
  let ok = ref true in
  for i = 0 to 63 do
    if Agg.peek a 0 i <> expect i then ok := false
  done;
  Printf.printf "result correct: %b\n" !ok;
  Printf.printf "simulated time: %d cycles\n" (Runtime.elapsed rt);
  let stats = Runtime.stats rt in
  Printf.printf "clean copies created by the memory system: %d\n"
    (Lcm_util.Stats.get stats "lcm.clean_copies");
  Printf.printf "blocks reconciled at the end of the call: %d\n"
    (Lcm_util.Stats.get stats "lcm.reconciled_blocks");

  (* A reduction assignment: total %+= a[#0]  (paper section 4.2). *)
  let total = Runtime.reducer rt ~op:Lcm_core.Reduction.int_sum ~init:0 in
  Runtime.parallel_apply rt ~reducers:[ total ] ~flush_between:false ~n:64
    (fun ctx -> Reducer.add ctx total (Agg.get1 a ctx.Ctx.index));
  Printf.printf "parallel reduction total = %d\n" (Reducer.read total)
