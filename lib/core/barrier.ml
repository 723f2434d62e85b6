module Machine = Lcm_tempest.Machine
module Stats = Lcm_util.Stats

type style = Constant | Flat | Tree of int

(* One barrier message: fixed network cost plus the receiver's handler
   occupancy.  Hop counts are ignored — barrier traffic is latency-bound
   on the fixed overheads. *)
let msg_cost (c : Lcm_sim.Costs.t) = c.msg_fixed + c.handler_occupancy

let release_time ~costs ~style ~join_times =
  let n = Array.length join_times in
  if n = 0 then invalid_arg "Barrier.release_time: no nodes";
  let latest = Array.fold_left Int.max 0 join_times in
  match style with
  | Constant ->
    latest + costs.Lcm_sim.Costs.barrier_base
    + (n * costs.Lcm_sim.Costs.barrier_per_node)
  | Flat ->
    (* Joins arrive at the coordinator and are handled serially: the k-th
       arrival (in time order) completes no earlier than both its own
       arrival and the previous handler's completion. *)
    let arrivals =
      Array.map (fun t -> t + costs.Lcm_sim.Costs.msg_fixed) join_times
    in
    Array.sort compare arrivals;
    let finish =
      Array.fold_left
        (fun busy arrival ->
          Int.max busy arrival + costs.Lcm_sim.Costs.handler_occupancy)
        0 arrivals
    in
    (* release broadcast: one message out (the coordinator sends P-1
       messages back-to-back; the last leaves after P-1 injections) *)
    finish + ((n - 1) * costs.Lcm_sim.Costs.msg_per_word) + msg_cost costs
  | Tree arity ->
    if arity < 2 then invalid_arg "Barrier.release_time: arity must be >= 2";
    (* Combine up the tree: each level-k combiner fires when all its
       children have, plus one message + handler per level. *)
    let rec combine times =
      if Array.length times = 1 then times.(0)
      else
        let groups = (Array.length times + arity - 1) / arity in
        let next =
          Array.init groups (fun g ->
              let lo = g * arity in
              let hi = Int.min (Array.length times) (lo + arity) in
              let worst = ref 0 in
              for i = lo to hi - 1 do
                if times.(i) > !worst then worst := times.(i)
              done;
              !worst + msg_cost costs)
        in
        combine next
    in
    let joined = combine (Array.copy join_times) in
    (* release broadcasts back down the same depth *)
    let rec depth n = if n <= 1 then 0 else 1 + depth ((n + arity - 1) / arity) in
    joined + (depth n * msg_cost costs)

let release mach ~style ~join_times ~not_before =
  let release =
    Int.max not_before
      (release_time ~costs:(Machine.costs mach) ~style ~join_times)
  in
  let wait = Stats.counter (Machine.stats mach) "lcm.barrier_wait_cycles" in
  Array.iter (fun j -> Stats.Handle.add wait (release - j)) join_times;
  Machine.set_all_clocks mach release;
  Machine.incr_epoch mach;
  Machine.trace_emit mach ~time:release
    (Machine.Trace.Barrier_release { nnodes = Machine.nnodes mach });
  Machine.trace_emit mach ~time:release
    (Machine.Trace.Epoch_advance { epoch = Machine.epoch mach });
  Machine.set_phase mach `Sequential

let spellings = "constant, flat or tree:<arity>"

let of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "constant" ] -> Ok Constant
  | [ "flat" ] -> Ok Flat
  | [ "tree"; a ] -> (
    match int_of_string_opt a with
    | Some arity when arity >= 2 -> Ok (Tree arity)
    | Some _ | None -> Error "tree: expected arity >= 2")
  | _ ->
    Error
      (Printf.sprintf "unknown barrier style %S (expected %s)" s spellings)

let to_string = function
  | Constant -> "constant"
  | Flat -> "flat"
  | Tree a -> Printf.sprintf "tree:%d" a
