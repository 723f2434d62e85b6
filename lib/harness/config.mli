(** Experiment configuration: machines and memory systems.

    The paper's testbed is a 32-processor CM-5 running Blizzard-E; the
    measured systems are Stache with compiler-emitted explicit copying,
    LCM-scc and LCM-mcc.  A {!system} is the policy's one record
    ({!Lcm_core.Policy.t}), re-exported so its label reads as
    [system.Config.label]: the runtime derives the matching C\*\*
    compilation strategy from it; {!systems} lists the three in the
    paper's order. *)

type system = Lcm_core.Policy.t = {
  name : string;
  label : string;
  aliases : string list;
  summary : string;
  family : Lcm_core.Policy.family;
}

val stache : system
val lcm_scc : system
val lcm_mcc : system

val lcm_mcc_update : system
(** The update-based RSM member (not in the paper's measurements; used by
    the update ablation). *)

val msi : system
val mesi : system

val moesi : system
(** The snooping-bus family rides {!Lcm_core.Proto_snoop}; C\*\* code runs
    with the explicit-copy strategy, like Stache. *)

val systems : system list
(** [\[lcm_scc; lcm_mcc; stache\]] — the order of the paper's figures. *)

type machine = {
  nnodes : int;
  words_per_block : int;
  topology : Lcm_net.Topology.t;
  costs : Lcm_sim.Costs.t;
  capacity_blocks : int option;
  hw_cache_blocks : int option;
  faults : Lcm_net.Faults.t option;
      (** interconnect fault plan; [None] = reliable transport *)
}

val default_machine : machine
(** 32 nodes, 8-word (32-byte) blocks, arity-4 fat tree — the CM-5 shape,
    with a reliable interconnect ([faults = None]). *)

val build_machine : machine -> Lcm_tempest.Machine.t
(** A fresh simulated machine of this shape, fault plan, capacity and
    hardware cache included, with no protocol installed yet. *)

val make_runtime :
  ?barrier:Lcm_core.Barrier.style ->
  machine ->
  system ->
  schedule:Lcm_cstar.Schedule.t ->
  Lcm_cstar.Runtime.t
(** {!build_machine}, install the system's protocol and return its
    runtime. *)
