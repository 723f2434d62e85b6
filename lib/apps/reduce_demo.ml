open Lcm_cstar
module Gmem = Lcm_mem.Gmem
module Memeff = Lcm_tempest.Memeff
module Reduction = Lcm_core.Reduction

type variant = [ `Rsm_reconcile | `Manual_partials | `Serialized ]

type params = { n : int; per_add_work : int }

let params ~n = { n; per_add_work = 2 }

let variant_name = function
  | `Rsm_reconcile -> "rsm-reconcile"
  | `Manual_partials -> "manual-partials"
  | `Serialized -> "serialized"

let element i = ((i * 7) mod 31) + 1

let expected_sum { n; _ } =
  let rec go acc i = if i = n then acc else go (acc + element i) (i + 1) in
  go 0 0

let run rt variant { n; per_add_work } =
  let a = Runtime.alloc1d rt ~n ~dist:Gmem.Chunked in
  Agg.fill a (fun _ i -> element i);
  let proto = Runtime.proto rt in
  let gmem = Lcm_tempest.Machine.gmem (Runtime.machine rt) in
  let wpb = Gmem.words_per_block gmem in
  let total () =
    match variant with
    | `Rsm_reconcile ->
      let r = Runtime.reducer rt ~op:Reduction.int_sum ~init:0 in
      (* no inter-invocation flush: nothing reads the marked accumulator,
         so per-node contributions batch until reconciliation *)
      Runtime.parallel_apply rt ~reducers:[ r ] ~flush_between:false ~n
        (fun ctx ->
          Memeff.work per_add_work;
          Reducer.add ctx r (Agg.get1 a ctx.Ctx.index));
      Reducer.read r
    | `Manual_partials ->
      (* force the hand-coded path regardless of the runtime's strategy *)
      let r =
        Reducer.create proto ~strategy:Agg.Explicit_copy ~op:Reduction.int_sum
          ~init:0
      in
      Runtime.parallel_apply rt ~n (fun ctx ->
          Memeff.work per_add_work;
          Reducer.add ctx r (Agg.get1 a ctx.Ctx.index));
      Runtime.sequential rt (fun () -> Reducer.finalize r);
      Reducer.read r
    | `Serialized ->
      let var = Gmem.alloc gmem ~dist:(Gmem.On 0) ~nwords:wpb in
      Lcm_core.Proto.poke proto var 0;
      Runtime.parallel_apply rt ~n (fun ctx ->
          Memeff.work per_add_work;
          (* atomic coherent read-modify-write of the shared total: the
             block ping-pongs between all processors *)
          let v = Agg.get1 a ctx.Ctx.index in
          ignore (Memeff.rmw var (fun old -> old + v)));
      Lcm_core.Proto.peek proto var
  in
  Bench_result.measure rt ~name:("reduce-" ^ variant_name variant) (fun () ->
      float_of_int (total ()))
