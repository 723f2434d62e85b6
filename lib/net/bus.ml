(* A single shared split-free bus: one transaction at a time, granted in
   request order.  Arbitration is a timestamp race: a transaction asked
   for at [at] is granted at [max at free_at] and occupies the bus for
   msg_fixed + words * msg_per_word cycles (the same wire costs the
   point-to-point network charges, minus per-hop switching — a bus has no
   switches).  The grant callback runs when the occupancy ends, so every
   transaction's state changes are atomic with respect to the next grant.

   The bus is a reliable medium: fault plans (Lcm_net.Faults) model lossy
   point-to-point links and do not apply here — a snooping transaction is
   observed by every agent by construction. *)

module Stats = Lcm_util.Stats

type kind = Rd | Rdx | Upgr | Flush

type t = {
  engine : Lcm_sim.Engine.t;
  costs : Lcm_sim.Costs.t;
  mutable free_at : int;  (* when the current occupancy ends *)
  h_transactions : Stats.Handle.counter;
  h_rd : Stats.Handle.counter;
  h_rdx : Stats.Handle.counter;
  h_upgr : Stats.Handle.counter;
  h_flush : Stats.Handle.counter;
  h_stall : Stats.Handle.counter;
  h_busy : Stats.Handle.counter;
}

let create ~engine ~costs ~stats () =
  {
    engine;
    costs;
    free_at = 0;
    h_transactions = Stats.counter stats "bus.transactions";
    h_rd = Stats.counter stats "bus.rd";
    h_rdx = Stats.counter stats "bus.rdx";
    h_upgr = Stats.counter stats "bus.upgr";
    h_flush = Stats.counter stats "bus.flush";
    h_stall = Stats.counter stats "bus.arb_stall_cycles";
    h_busy = Stats.counter stats "bus.busy_cycles";
  }

let occupancy t ~words =
  t.costs.Lcm_sim.Costs.msg_fixed + (words * t.costs.Lcm_sim.Costs.msg_per_word)

(* Arbitrate: account the transaction and return its completion cycle. *)
let arbitrate t ~kind ~at ~words =
  let grant = Int.max at t.free_at in
  let finish = grant + occupancy t ~words in
  t.free_at <- finish;
  Stats.Handle.incr t.h_transactions;
  Stats.Handle.incr
    (match kind with
    | Rd -> t.h_rd
    | Rdx -> t.h_rdx
    | Upgr -> t.h_upgr
    | Flush -> t.h_flush);
  Stats.Handle.add t.h_stall (grant - at);
  Stats.Handle.add t.h_busy (finish - grant);
  finish

let transact t ~kind ~at ~words g p x =
  let finish = arbitrate t ~kind ~at ~words in
  Lcm_sim.Engine.schedule_call t.engine ~at:finish g p finish x
