module Proto = Lcm_core.Proto
module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff

type strategy = Agg.strategy = Lcm_directives | Explicit_copy

type phase = { label : string; cycles : int; deltas : (string * int) list }

type t = {
  proto : Proto.t;
  strategy : strategy;
  (* per-phase counters, resolved once at create (names unchanged) *)
  h_parallel_calls : Lcm_util.Stats.Handle.counter;
  h_invocations : Lcm_util.Stats.Handle.counter;
  h_phase_cycles : Lcm_util.Stats.Handle.sample;
  schedule : Schedule.t;
  mutable phase_log : phase list; (* newest first *)
  mutable log_phases : bool;
}

let create proto ~schedule =
  let s = Machine.stats (Proto.machine proto) in
  {
    proto;
    (* the policy decides what the C** compiler emits: LCM policies rely
       on marks and reconciliation, coherent ones on explicit copies *)
    strategy =
      (if Lcm_core.Policy.is_lcm (Proto.policy proto) then Lcm_directives
       else Explicit_copy);
    h_parallel_calls = Lcm_util.Stats.counter s "cstar.parallel_calls";
    h_invocations = Lcm_util.Stats.counter s "cstar.invocations";
    h_phase_cycles = Lcm_util.Stats.sample s "cstar.phase_cycles";
    schedule;
    phase_log = [];
    log_phases = false;
  }

let enable_phase_log t = t.log_phases <- true
let phase_log t = List.rev t.phase_log

let proto t = t.proto
let machine t = Proto.machine t.proto
let strategy t = t.strategy

let alloc2d t ~rows ~cols ~dist =
  Agg.create t.proto ~strategy:t.strategy ~rows ~cols ~dist

let alloc1d t ~n ~dist = Agg.create1d t.proto ~strategy:t.strategy ~n ~dist

let reducer t ~op ~init = Reducer.create t.proto ~strategy:t.strategy ~op ~init

let stats t = Machine.stats (machine t)

let elapsed t = Machine.max_clock (machine t)

let sequential t ?(node = 0) f =
  let mach = machine t in
  Machine.spawn mach (Machine.node mach node) f;
  Machine.run_to_quiescence mach;
  Machine.set_all_clocks mach (Machine.max_clock mach)

let parallel_apply t ?(iter = 0) ?(reducers = []) ?flush_between ?schedule ~n
    body =
  let mach = machine t in
  let nnodes = Machine.nnodes mach in
  let costs = Machine.costs mach in
  let started = Machine.max_clock mach in
  let before = if t.log_phases then Lcm_util.Stats.counters (stats t) else [] in
  Proto.begin_parallel t.proto;
  let schedule = Option.value schedule ~default:t.schedule in
  let nchunks = max 1 (min n nnodes) in
  let ranges = Schedule.chunks ~n ~nchunks in
  let assignment = Schedule.assign schedule ~iter ~nnodes ~nchunks in
  let dynamic = Schedule.is_dynamic schedule in
  let emit_flush =
    Option.value flush_between ~default:true && t.strategy = Lcm_directives
  in
  for nid = 0 to nnodes - 1 do
    let my_chunks =
      List.filter (fun c -> assignment.(c) = nid) (List.init nchunks Fun.id)
    in
    if my_chunks <> [] then
      Machine.spawn mach (Machine.node mach nid) (fun () ->
          List.iter
            (fun c ->
              if dynamic then Memeff.work costs.Lcm_sim.Costs.sched_dequeue;
              let lo, hi = ranges.(c) in
              for index = lo to hi - 1 do
                Memeff.yield ();
                Memeff.work costs.Lcm_sim.Costs.invocation_overhead;
                body (Ctx.make ~index ~node:nid ~iter);
                if emit_flush then Memeff.directive Memeff.Flush_copies
              done)
            my_chunks)
  done;
  Machine.run_to_quiescence mach;
  Proto.reconcile t.proto;
  (* The explicit-copy strategy folds reduction partials sequentially, as
     hand-written code would after the parallel loop. *)
  (match t.strategy with
  | Explicit_copy when reducers <> [] ->
    sequential t (fun () -> List.iter Reducer.finalize reducers)
  | Explicit_copy | Lcm_directives -> ());
  let finished = Machine.max_clock mach in
  Lcm_util.Stats.Handle.incr t.h_parallel_calls;
  Lcm_util.Stats.Handle.add t.h_invocations n;
  Lcm_util.Stats.Handle.observe t.h_phase_cycles
    (float_of_int (finished - started));
  if t.log_phases then begin
    let label =
      Printf.sprintf "parallel#%d"
        (Lcm_util.Stats.Handle.value t.h_parallel_calls)
    in
    let deltas =
      List.filter_map
        (fun (name, v) ->
          let d =
            v - Option.value (List.assoc_opt name before) ~default:0
          in
          if d <> 0 then Some (name, d) else None)
        (Lcm_util.Stats.counters (stats t))
    in
    t.phase_log <-
      { label; cycles = finished - started; deltas } :: t.phase_log
  end

let parallel_apply_2d t ?iter ?reducers ?flush_between ?schedule ~rows ~cols
    body =
  parallel_apply t ?iter ?reducers ?flush_between ?schedule ~n:(rows * cols)
    (fun ctx ->
      let i = ctx.Ctx.index / cols and j = ctx.Ctx.index mod cols in
      body ctx i j)
