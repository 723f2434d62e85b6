module Proto = Lcm_core.Proto
module Reduction = Lcm_core.Reduction
module Memeff = Lcm_tempest.Memeff
module Machine = Lcm_tempest.Machine
module Gmem = Lcm_mem.Gmem
module Word = Lcm_mem.Word

type t = {
  proto : Proto.t;
  strategy : Agg.strategy;
  op : Reduction.t;
  var : int;  (* global address of the reduction variable *)
  partials : int array;  (* per-node partial addresses (explicit copy) *)
}

let create proto ~strategy ~op ~init =
  let mach = Proto.machine proto in
  let gmem = Machine.gmem mach in
  let wpb = Gmem.words_per_block gmem in
  let var = Gmem.alloc gmem ~dist:(Gmem.On 0) ~nwords:wpb in
  Proto.poke proto var (Word.of_int init);
  let partials =
    match strategy with
    | Agg.Lcm_directives ->
      Proto.register_reduction proto ~base:var ~nwords:wpb op;
      [||]
    | Agg.Explicit_copy ->
      Array.init (Machine.nnodes mach) (fun nid ->
          let addr = Gmem.alloc gmem ~dist:(Gmem.On nid) ~nwords:wpb in
          Proto.poke proto addr op.Reduction.identity;
          addr)
  in
  { proto; strategy; op; var; partials }

let add ctx t v =
  match t.strategy with
  | Agg.Lcm_directives ->
    Memeff.directive (Memeff.Mark_modification t.var);
    Memeff.store t.var (t.op.Reduction.apply (Memeff.load t.var) v)
  | Agg.Explicit_copy ->
    let partial = t.partials.(ctx.Ctx.node) in
    Memeff.store partial (t.op.Reduction.apply (Memeff.load partial) v)

let addf ctx t v = add ctx t (Word.of_float v)

let read t = Word.to_int (Proto.peek t.proto t.var)

let readf t = Word.to_float (Proto.peek t.proto t.var)

let setf t v = Proto.poke t.proto t.var (Word.of_float v)

let finalize t =
  match t.strategy with
  | Agg.Lcm_directives -> ()
  | Agg.Explicit_copy ->
    (* Sequential fold of the per-node partials, as the hand-written
       baseline would do after the parallel loop. *)
    let acc = ref (Memeff.load t.var) in
    Array.iter
      (fun partial ->
        acc := t.op.Reduction.apply !acc (Memeff.load partial);
        Memeff.store partial t.op.Reduction.identity)
      t.partials;
    Memeff.store t.var !acc
