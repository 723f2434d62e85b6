(* The five workloads.  Each pass of a workload is a list of units — one
   simulation, one stress case or one explored checker configuration —
   built by [setup] from the seed.  A unit's [exec] is the timed call; the
   closure it returns checks the outcome and is run untimed. *)

open Lcm_harness
module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff
module Proto = Lcm_core.Proto
module Runtime = Lcm_cstar.Runtime
module Stats = Lcm_util.Stats
module Bench_result = Lcm_apps.Bench_result

type outcome = {
  check : (unit, string) result;
  checksum : float option;  (** must agree across the units of a pass *)
  cycles : int;  (** simulated cycles, where the run reports them *)
  counters : (string * int) list;
}

type unit_ = { label : string; exec : unit -> unit -> outcome }

type t = {
  name : string;
  faulty : bool;  (** protocol traffic rides the reliable transport *)
  setup : seed:int -> smoke:bool -> unit_ list;
}

let ok ?checksum ?(cycles = 0) ?(counters = []) check = { check; checksum; cycles; counters }

(* ------------------------------------------------------------------ *)
(* Application workloads                                               *)
(* ------------------------------------------------------------------ *)

let close ~expected actual =
  Float.abs (expected -. actual) /. Float.max 1. (Float.abs expected) <= 1e-4

(* The run's Stats counters, plus the channel-stall sample as two
   counters so it merges across units like everything else. *)
let counters_of (r : Bench_result.t) =
  let stall =
    match List.assoc_opt "net.channel_stall_cycles" r.Bench_result.samples with
    | Some s ->
      [
        ("net.channel_stall_cycles.count", s.Stats.count);
        ("net.channel_stall_cycles.sum", truncate (s.Stats.mean *. float_of_int s.Stats.count));
      ]
    | None -> []
  in
  r.Bench_result.counters @ stall

let app ~app ~nnodes ?reference run system =
  {
    label = app ^ "/" ^ system.Config.label;
    exec =
      (fun () ->
        let rt =
          Probe.span "Config.make_runtime" (fun () ->
              Config.make_runtime { Config.default_machine with Config.nnodes } system
                ~schedule:Lcm_cstar.Schedule.Static)
        in
        Probe.watch (Machine.engine (Runtime.machine rt));
        let r : Bench_result.t = Probe.span (app ^ ".run") (fun () -> run rt) in
        fun () ->
          let check =
            match (Proto.check_invariants (Runtime.proto rt), reference) with
            | Error msgs, _ -> Error ("invariant: " ^ String.concat "; " msgs)
            | Ok (), Some expected when not (close ~expected:(Lazy.force expected) r.checksum) ->
              Error
                (Printf.sprintf "checksum %.8g, host reference %.8g" r.checksum
                   (Lazy.force expected))
            | Ok (), _ -> Ok ()
          in
          ok check ~checksum:r.checksum ~cycles:r.cycles ~counters:(counters_of r));
  }

(* Figure 2's static stencil: nearly every access hits locally and the
   event queue is about P deep, so it stresses the Tempest hit path, fiber
   yields, shallow engine dispatch and LCM-mcc reconciliation. *)
let stencil =
  {
    name = "stencil";
    faulty = false;
    setup =
      (fun ~seed:_ ~smoke ->
        let n, iters, nnodes = if smoke then (16, 2, 8) else (256, 8, 32) in
        let p = { Lcm_apps.Stencil.n; iters; work_per_cell = 4 } in
        let reference = lazy (Lcm_apps.Stencil.reference p) in
        List.map
          (app ~app:"Stencil" ~nnodes ~reference (fun rt -> Lcm_apps.Stencil.run rt p))
          [ Config.lcm_mcc; Config.stache ]);
  }

(* Figure 3's irregular graph scaled up, at P=128: miss-dominated, about
   one message per event and a deep queue, so it stresses Proto_dir, the
   fault-free send path and the heap at depth. *)
let unstructured =
  {
    name = "unstructured";
    faulty = false;
    setup =
      (fun ~seed ~smoke ->
        let nodes, edges, iters, nnodes =
          if smoke then (64, 192, 2, 8) else (4096, 16384, 4, 128)
        in
        let p = { Lcm_apps.Unstructured.nodes; edges; iters; seed; work_per_node = 6 } in
        let reference = lazy (Lcm_apps.Unstructured.reference p) in
        List.map
          (app ~app:"Unstructured" ~nnodes ~reference (fun rt ->
               Lcm_apps.Unstructured.run rt p))
          [ Config.lcm_scc; Config.stache ]);
  }

(* Write contention on four hot blocks: under Stache the directory's
   parked path (invalidations), under MESI every miss through Proto_snoop
   and bus arbitration. *)
let hotspot =
  {
    name = "hotspot";
    faulty = false;
    setup =
      (fun ~seed ~smoke ->
        let p =
          if smoke then
            { Lcm_apps.Synthetic.blocks_per_node = 2; phases = 2; invocations_per_node = 4;
              ops_per_invocation = 8; read_fraction = 0.5; sharing = `Hot 4; seed }
          else
            { Lcm_apps.Synthetic.blocks_per_node = 16; phases = 48; invocations_per_node = 32;
              ops_per_invocation = 32; read_fraction = 0.5; sharing = `Hot 4; seed }
        in
        List.map
          (app ~app:"Synthetic" ~nnodes:(if smoke then 4 else 32) (fun rt ->
               Lcm_apps.Synthetic.run rt p))
          [ Config.stache; Config.mesi ]);
  }

(* ------------------------------------------------------------------ *)
(* Stress under faults                                                 *)
(* ------------------------------------------------------------------ *)

(* Counters of one stress program.  [Stress.run_case] keeps its machine
   private, so the traced pass re-runs the program here: the same machine,
   protocol and op streams, without the golden oracle. *)
let stress_counters ~faults (p : Stress.prog) =
  let wpb = p.Stress.words_per_block in
  let m =
    Machine.create ?capacity_blocks:p.capacity_blocks ?hw_cache_blocks:p.hw_cache_blocks
      ~faults ~nnodes:p.nnodes ~words_per_block:wpb ~topology:p.topology ~seed:17 ()
  in
  let proto = Proto.install ~barrier:p.barrier ~policy:p.policy m in
  let base = Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:p.dist ~nwords:(p.nblocks * wpb) in
  List.iter
    (fun (bi, rop) -> Proto.register_reduction proto ~base:(base + (bi * wpb)) ~nwords:wpb rop)
    p.reductions;
  List.iter (fun (w, v) -> Proto.poke proto (base + w) v) p.init;
  let exec : Stress.op -> unit = function
    | Load w -> ignore (Memeff.load (base + w))
    | Store (w, v) -> Memeff.store (base + w) v
    | Rmw (w, k) -> ignore (Memeff.rmw (base + w) (fun x -> x + k))
    | Accum (w, k) ->
      let rop = List.assoc (w / wpb) p.reductions in
      ignore (Memeff.rmw (base + w) (fun x -> rop.Lcm_core.Reduction.apply x k))
    | Mark w -> Memeff.directive (Memeff.Mark_modification (base + w))
    | Flush -> Memeff.directive Memeff.Flush_copies
    | Work n -> Memeff.work n
    | Yield -> Memeff.yield ()
  in
  let run ops =
    Array.iteri
      (fun nid opl -> Machine.spawn m (Machine.node m nid) (fun () -> List.iter exec opl))
      ops;
    Machine.run_to_quiescence m
  in
  List.iter
    (function
      | Stress.Sequential ops -> run ops
      | Stress.Parallel ops ->
        Proto.begin_parallel proto;
        run ops;
        Proto.reconcile proto)
    p.segments;
  Stats.counters (Machine.stats m)

(* Thousands of tiny machines under the 5% chaos fault plan: per-case
   machine build, the reliable transport (envelopes, acks, timers, dedup)
   and the golden oracle.  Bypasses the pooled fault-free send path. *)
let stress_chaos =
  {
    name = "stress-chaos";
    faulty = true;
    setup =
      (fun ~seed ~smoke ->
        let faults =
          match Lcm_net.Faults.of_profile "chaos" ~rate:0.05 ~seed with
          | Ok f -> f
          | Error e -> failwith e
        in
        List.init (if smoke then 20 else 5000) (fun case ->
            let prog = Probe.span "Stress.gen" (fun () -> Stress.gen ~seed ~case ()) in
            {
              label = Printf.sprintf "stress/case=%d" case;
              exec =
                (fun () ->
                  let r =
                    Probe.span "Stress.run_case" (fun () -> Stress.run_case ~faults prog)
                  in
                  fun () ->
                    let counters =
                      if !Probe.on then ("stress.cases", 1) :: stress_counters ~faults prog
                      else []
                    in
                    ok r ~counters);
            }));
  }

(* ------------------------------------------------------------------ *)
(* Model checking                                                      *)
(* ------------------------------------------------------------------ *)

let check_counters (s : Lcm_check.Check.stats) =
  [
    ("check.schedules", s.schedules);
    ("check.transitions", s.transitions);
    ("check.branches", s.branches);
    ("check.prunes", s.sleep_prunes + s.pset_prunes);
  ]

(* Exhaustive exploration of the fixed scenarios under all 7 policies,
   with one drop or duplicate per run: the only workload on the engine's
   allocating choice hook and the network fault chooser; GC-bound.  The
   seeded micro-configurations are left out: their exploration work varies
   six-fold from one seed to the next (0.33 to 2.1 s per pass with five
   per policy), which would swamp any change in host speed. *)
let check =
  {
    name = "check";
    faulty = true;
    setup =
      (fun ~seed:_ ~smoke ->
        let policies, scenarios =
          if smoke then ([ Lcm_core.Policy.lcm_mcc; Lcm_core.Policy.mesi ], 2)
          else (Lcm_core.Policy.policies, max_int)
        in
        List.concat_map
          (fun policy ->
            List.filteri (fun i _ -> i < scenarios) (Lcm_check.Check.scenarios ~policy))
          policies
        |> List.map (fun (name, (prog : Stress.prog)) ->
               let label = Printf.sprintf "check/%s/%s" prog.policy.name name in
               {
                 label;
                 exec =
                   (fun () ->
                     let outcome, st =
                       Probe.span "Check.explore" (fun () ->
                           Lcm_check.Check.explore ~label ~fault_budget:1 ~dup:true prog)
                     in
                     fun () ->
                       let check =
                         match outcome with
                         | Lcm_check.Check.Found v -> Error v.Lcm_check.Check.v_report
                         | Exhausted | Capped -> Ok ()
                       in
                       ok check ~counters:(check_counters st));
               }));
  }

let all = [ stencil; unstructured; hotspot; stress_chaos; check ]
let find name = List.find_opt (fun w -> w.name = name) all
