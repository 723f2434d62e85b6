module Policy = Lcm_core.Policy

type system = Policy.t = {
  name : string;
  label : string;
  aliases : string list;
  summary : string;
  family : Policy.family;
}

let stache = Policy.stache
let lcm_scc = Policy.lcm_scc
let lcm_mcc = Policy.lcm_mcc
let lcm_mcc_update = Policy.lcm_mcc_update
let msi = Policy.msi
let mesi = Policy.mesi
let moesi = Policy.moesi

let systems = [ lcm_scc; lcm_mcc; stache ]

type machine = {
  nnodes : int;
  words_per_block : int;
  topology : Lcm_net.Topology.t;
  costs : Lcm_sim.Costs.t;
  capacity_blocks : int option;
  hw_cache_blocks : int option;
  faults : Lcm_net.Faults.t option;
}

let default_machine =
  {
    nnodes = 32;
    words_per_block = 8;
    topology = Lcm_net.Topology.Fat_tree { arity = 4 };
    costs = Lcm_sim.Costs.default;
    capacity_blocks = None;
    hw_cache_blocks = None;
    faults = None;
  }

let build_machine m =
  Lcm_tempest.Machine.create ~costs:m.costs ~topology:m.topology
    ?capacity_blocks:m.capacity_blocks ?hw_cache_blocks:m.hw_cache_blocks
    ?faults:m.faults ~nnodes:m.nnodes ~words_per_block:m.words_per_block ()

let make_runtime ?barrier m system ~schedule =
  let proto =
    Lcm_core.Proto.install ?barrier ~policy:system (build_machine m)
  in
  Lcm_cstar.Runtime.create proto ~schedule
