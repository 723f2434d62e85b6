open Lcm_apps
module Schedule = Lcm_cstar.Schedule

type scale = Tiny | Quick | Paper

type row = { experiment : string; system : string; result : Bench_result.t }

type cells = (string * (unit -> row)) list

let scale_to_string = function
  | Tiny -> "tiny"
  | Quick -> "quick"
  | Paper -> "paper"

let scale_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "tiny" -> Ok Tiny
  | "quick" -> Ok Quick
  | "paper" -> Ok Paper
  | other -> Error (Printf.sprintf "unknown scale %S" other)

(* Every experiment is a {e cell}: an independent, self-contained thunk
   that builds its own runtime, runs one (benchmark × system) simulation
   and returns a row.  Cells never share mutable state, which is what lets
   the fleet pool run them across domains; [run_cells] executes them in
   list order, the reference every parallel sweep must match. *)

let run_cells cells = List.map (fun (_, f) -> f ()) cells

let label ~experiment ~system = experiment ^ "/" ^ system

let audit ~experiment ~system rt =
  match Lcm_core.Proto.check_invariants (Lcm_cstar.Runtime.proto rt) with
  | Ok () -> Ok ()
  | Error es ->
    Error
      (Printf.sprintf "%s: protocol invariants violated:\n  %s"
         (label ~experiment ~system) (String.concat "\n  " es))

let checked_cell ~experiment ~system mk_rt run =
  ( label ~experiment ~system,
    fun () ->
      let rt = mk_rt () in
      let result = run rt in
      (* every harness run is audited: a protocol-state violation fails the
         whole reproduction rather than silently skewing numbers *)
      (match audit ~experiment ~system rt with
      | Ok () -> ()
      | Error msg -> failwith msg);
      { experiment; system; result } )

let stencil_params = function
  | Tiny -> Stencil.params ~n:24 ~iters:3
  | Quick -> Stencil.params ~n:96 ~iters:6
  | Paper -> Stencil.paper

let adaptive_params = function
  | Tiny -> Adaptive.params ~n:12 ~iters:4 ~max_depth:2 ~arena_per_node:512
  | Quick -> Adaptive.params ~n:24 ~iters:12 ~max_depth:3 ~arena_per_node:2048
  | Paper -> Adaptive.paper

let threshold_params = function
  | Tiny -> Threshold.params ~n:24 ~iters:3
  | Quick -> Threshold.params ~n:96 ~iters:8
  | Paper -> Threshold.paper

let unstructured_params = function
  | Tiny -> Unstructured.params ~nodes:64 ~iters:6
  | Quick -> Unstructured.params ~nodes:256 ~iters:24
  | Paper -> Unstructured.paper

let dynamic = Schedule.Dynamic_random 5 (* one seed for every dynamic cell *)

(* One cell per system: [run] on [machine] under each of [systems], in
   order, with [schedule]. *)
let systems_cells ?(schedule = Schedule.Static) machine ~experiment systems run =
  List.map
    (fun system ->
      checked_cell ~experiment ~system:system.Config.label
        (fun () -> Config.make_runtime machine system ~schedule)
        run)
    systems

let figure2_cells ~scale machine =
  let p = stencil_params scale in
  systems_cells machine ~experiment:"stencil-stat" Config.systems
    (fun rt -> Stencil.run rt p)
  @ systems_cells ~schedule:dynamic machine ~experiment:"stencil-dyn"
      Config.systems (fun rt -> Stencil.run rt p)

let figure3_cells ~scale machine =
  let ap = adaptive_params scale in
  let tp = threshold_params scale in
  let up = unstructured_params scale in
  systems_cells machine ~experiment:"adaptive-stat" Config.systems
    (fun rt -> Adaptive.run rt ap)
  @ systems_cells ~schedule:dynamic machine ~experiment:"adaptive-dyn"
      Config.systems (fun rt -> Adaptive.run rt ap)
  @ systems_cells machine ~experiment:"threshold" Config.systems
      (fun rt -> Threshold.run rt tp)
  @ systems_cells machine ~experiment:"unstructured" Config.systems
      (fun rt -> Unstructured.run rt up)

let group_by_experiment rows =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun row ->
      if not (Hashtbl.mem tbl row.experiment) then begin
        order := row.experiment :: !order;
        Hashtbl.add tbl row.experiment []
      end;
      Hashtbl.replace tbl row.experiment (row :: Hashtbl.find tbl row.experiment))
    rows;
  List.rev_map (fun e -> (e, List.rev (Hashtbl.find tbl e))) !order

let verify_agreement rows =
  List.map
    (fun (experiment, rows) ->
      let ok =
        match rows with
        | [] -> true
        | first :: rest ->
          List.for_all (fun r -> Bench_result.close first.result r.result) rest
      in
      (experiment, ok))
    (group_by_experiment rows)

(* ------------------------------------------------------------------ *)
(* Claims                                                              *)
(* ------------------------------------------------------------------ *)

type claim = {
  id : string;
  description : string;
  paper : string;
  measured : float;
  holds : bool;
}

let find rows experiment system =
  List.find_opt (fun r -> r.experiment = experiment && r.system = system) rows

let cycles rows experiment system =
  match find rows experiment system with
  | Some r -> float_of_int r.result.Bench_result.cycles
  | None -> nan

let ratio_claim rows ~id ~description ~paper ~slower ~faster ~ok =
  let m = cycles rows (fst slower) (snd slower) /. cycles rows (fst faster) (snd faster) in
  { id; description; paper; measured = m; holds = ok m }

let claims rows =
  [
    ratio_claim rows ~id:"stencil-stat/stache-wins"
      ~description:"Stencil-stat: Stache faster than LCM (static partition keeps interiors local)"
      ~paper:"~5x"
      ~slower:("stencil-stat", "LCM-mcc")
      ~faster:("stencil-stat", "Stache+copy")
      ~ok:(fun m -> m > 1.2);
    ratio_claim rows ~id:"stencil/mcc-over-scc"
      ~description:"Stencil: LCM-mcc faster than LCM-scc (spatial block reuse)" ~paper:"~4x"
      ~slower:("stencil-stat", "LCM-scc")
      ~faster:("stencil-stat", "LCM-mcc")
      ~ok:(fun m -> m > 1.5);
    ratio_claim rows ~id:"stencil-dyn/comparable"
      ~description:"Stencil-dyn: LCM-mcc comparable to Stache (within 25%)"
      ~paper:"mcc ~2% faster"
      ~slower:("stencil-dyn", "LCM-mcc")
      ~faster:("stencil-dyn", "Stache+copy")
      ~ok:(fun m -> m < 1.25);
    (* A band, not just a direction: LCM pays overhead on statically
       analysable adaptive code (above 1.0), and 3.2 caps how far our
       flush/copy cost constants may stretch the paper's 13%.  Measured
       2.76x at quick scale; 3.46x at paper scale, outside the band — see
       EXPERIMENTS.md. *)
    ratio_claim rows ~id:"adaptive-stat/lcm-overhead"
      ~description:"Adaptive-stat: LCM slower than Stache"
      ~paper:"LCM 13% slower"
      ~slower:("adaptive-stat", "LCM-mcc")
      ~faster:("adaptive-stat", "Stache+copy")
      ~ok:(fun m -> m > 1.0 && m < 3.2);
    ratio_claim rows ~id:"adaptive-stat/scc-over-mcc"
      ~description:"Adaptive-stat: LCM-scc faster than LCM-mcc (no intra-block reuse)"
      ~paper:"scc 1.1% faster"
      ~slower:("adaptive-stat", "LCM-mcc")
      ~faster:("adaptive-stat", "LCM-scc")
      ~ok:(fun m -> m > 1.0);
    ratio_claim rows ~id:"adaptive-dyn/lcm-wins"
      ~description:"Adaptive-dyn: LCM-mcc beats Stache (fine-grain copy-on-write vs full copy)"
      ~paper:"~1.9x"
      ~slower:("adaptive-dyn", "Stache+copy")
      ~faster:("adaptive-dyn", "LCM-mcc")
      ~ok:(fun m -> m > 1.2);
    ratio_claim rows ~id:"threshold/mcc-wins"
      ~description:"Threshold: LCM-mcc beats Stache (copies only ~2% of cells)"
      ~paper:"~1.97x"
      ~slower:("threshold", "Stache+copy")
      ~faster:("threshold", "LCM-mcc")
      ~ok:(fun m -> m > 1.2);
    ratio_claim rows ~id:"threshold/scc-wins"
      ~description:"Threshold: LCM-scc also beats Stache" ~paper:"~1.74x"
      ~slower:("threshold", "Stache+copy")
      ~faster:("threshold", "LCM-scc")
      ~ok:(fun m -> m > 1.1);
    ratio_claim rows ~id:"unstructured/lcm-wins"
      ~description:"Unstructured: LCM-mcc beats Stache (irregular cross-processor edges)"
      ~paper:"19-28%"
      ~slower:("unstructured", "Stache+copy")
      ~faster:("unstructured", "LCM-mcc")
      ~ok:(fun m -> m > 1.0);
    ratio_claim rows ~id:"unstructured/mcc-over-scc"
      ~description:"Unstructured: LCM-mcc modestly beats LCM-scc" ~paper:"8%"
      ~slower:("unstructured", "LCM-scc")
      ~faster:("unstructured", "LCM-mcc")
      ~ok:(fun m -> m > 1.0);
  ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* Ablations run at one fixed size at [Quick], with [Tiny] shrinks so the
   test suite can sweep every family in seconds.  [Paper] falls back to
   the Quick constants — the ablations' conclusions are
   scale-insensitive. *)

let ablation_reduction_cells ~scale machine =
  let p =
    match scale with
    | Tiny -> Reduce_demo.params ~n:512
    | Quick | Paper -> Reduce_demo.params ~n:8192
  in
  let cell system variant =
    checked_cell ~experiment:"reduction" ~system:(Reduce_demo.variant_name variant)
      (fun () -> Config.make_runtime machine system ~schedule:Schedule.Static)
      (fun rt -> Reduce_demo.run rt variant p)
  in
  [
    cell Config.lcm_mcc `Rsm_reconcile;
    cell Config.stache `Manual_partials;
    cell Config.stache `Serialized;
  ]

let ablation_false_sharing_cells ~scale machine =
  let p =
    match scale with
    | Tiny -> { False_sharing.blocks = 16; rounds = 4 }
    | Quick | Paper -> { False_sharing.blocks = 64; rounds = 20 }
  in
  systems_cells machine ~experiment:"false-sharing"
    [ Config.stache; Config.lcm_scc; Config.lcm_mcc ]
    (fun rt -> False_sharing.run rt p)

let ablation_stale_cells ~scale machine =
  let p =
    match scale with
    | Tiny -> Nbody_stale.params ~bodies:64 ~iters:3
    | Quick | Paper -> Nbody_stale.params ~bodies:512 ~iters:12
  in
  (* each refresh mode computes a different result by design, so each is
     its own experiment *)
  List.concat_map
    (fun mode ->
      systems_cells machine ~experiment:("nbody-" ^ Nbody_stale.mode_name mode)
        [ Config.lcm_mcc ] (fun rt -> Nbody_stale.run rt mode p))
    [ `Fresh; `Stale 2; `Stale 4; `Stale 8 ]

let ablation_block_reuse_cells ~scale machine =
  let p =
    match scale with
    | Tiny -> Stencil.params ~n:16 ~iters:2
    | Quick | Paper -> Stencil.params ~n:64 ~iters:4
  in
  List.concat_map
    (fun wpb ->
      systems_cells { machine with Config.words_per_block = wpb }
        ~experiment:(Printf.sprintf "stencil wpb=%d" wpb)
        [ Config.lcm_scc; Config.lcm_mcc ] (fun rt -> Stencil.run rt p))
    [ 2; 4; 8; 16 ]

let small_stencil_params = function
  | Tiny -> Stencil.params ~n:24 ~iters:2
  | Quick | Paper -> Stencil.params ~n:96 ~iters:6

let ablation_schedule_cells ~scale machine =
  let p = small_stencil_params scale in
  List.concat_map
    (fun (sname, schedule) ->
      systems_cells ~schedule machine ~experiment:("stencil sched=" ^ sname)
        [ Config.stache; Config.lcm_mcc ] (fun rt -> Stencil.run rt p))
    [
      ("static", Schedule.Static);
      ("rotate", Schedule.Dynamic_rotate);
      ("random", dynamic);
    ]

let ablation_topology_cells ~scale machine =
  (* interconnect sensitivity: hop latencies across a crossbar, a 2-D mesh
     and the CM-5's fat tree *)
  let p = small_stencil_params scale in
  List.concat_map
    (fun (tname, topology) ->
      systems_cells ~schedule:dynamic { machine with Config.topology }
        ~experiment:("stencil-dyn topo=" ^ tname)
        [ Config.stache; Config.lcm_mcc ] (fun rt -> Stencil.run rt p))
    [
      ("crossbar", Lcm_net.Topology.Crossbar);
      ("mesh8", Lcm_net.Topology.Mesh2d { cols = 8 });
      ("fattree4", Lcm_net.Topology.Fat_tree { arity = 4 });
    ]

(* Weak scaling: per-node work held constant (a fixed-height band each)
   while the machine grows through [sizes], and on to 32 nodes above
   [Tiny]. *)
let weak_scaling_cells ~scale machine ~experiment ~sizes systems =
  let band, iters = match scale with Tiny -> (12, 2) | Quick | Paper -> (24, 3) in
  List.concat_map
    (fun nnodes ->
      let p = Stencil.params ~n:(band * nnodes) ~iters in
      systems_cells { machine with Config.nnodes } ~experiment:(experiment nnodes)
        systems (fun rt -> Stencil.run rt p))
    (match scale with Tiny -> sizes | Quick | Paper -> sizes @ [ 16; 32 ])

let ablation_scaling_cells ~scale machine =
  (* reconciliation and boundary traffic grow with P *)
  weak_scaling_cells ~scale machine ~sizes:[ 4; 8 ]
    ~experiment:(Printf.sprintf "stencil weak-scaling P=%d")
    [ Config.stache; Config.lcm_mcc ]

let dir_vs_snoop_cells ~scale machine =
  (* the crossover family: the same weak-scaling stencil on the directory
     engine (point-to-point fat tree, bandwidth grows with P, home blocks
     are local memory) and the snooping-bus engine (one arbitrated
     broadcast medium, bandwidth constant, every miss takes the bus).
     A bus miss is individually cheap — one transaction, no directory
     round trips — but the single wire serializes all of them, so the
     directory/bus cycle ratio widens with P as bus.arb_stall_cycles
     takes over the critical path: the classic why-buses-don't-scale
     crossover.  Both systems are coherent, so verify_agreement holds
     across the engines — same checksums, different cycle counts. *)
  weak_scaling_cells ~scale machine ~sizes:[ 2; 4; 8 ]
    ~experiment:(Printf.sprintf "dir-vs-snoop P=%d")
    [ Config.stache; Config.mesi ]

let ablation_cost_sensitivity_cells ~scale machine =
  (* robustness: the headline comparisons should not depend on the exact
     communication-cost constants — sweep them x0.5 / x1 / x2 *)
  let p = small_stencil_params scale in
  List.concat_map
    (fun cost_scale ->
      let machine =
        { machine with Config.costs = Lcm_sim.Costs.scale machine.Config.costs cost_scale }
      in
      List.concat_map
        (fun (sname, schedule) ->
          systems_cells ~schedule machine
            ~experiment:(Printf.sprintf "stencil-%s costs x%.1f" sname cost_scale)
            [ Config.stache; Config.lcm_mcc ] (fun rt -> Stencil.run rt p))
        [ ("stat", Schedule.Static); ("dyn", dynamic) ])
    [ 0.5; 1.0; 2.0 ]

let ablation_detection_cells ~scale machine =
  (* cost of run-time semantic-violation detection (§7.2-7.3): off,
     reconcile-time only, and strict (all read-only copies flushed at sync
     points, catching actual races).  Threshold leaves ~98% of blocks
     unmodified per phase, so strict mode's flush of their read-only copies
     is visible — the paper's "loss in performance is less critical [since]
     used only while debugging". *)
  let p = threshold_params (match scale with Paper -> Quick | s -> s) in
  List.map
    (fun (detect_label, detection) ->
      checked_cell ~experiment:"threshold detection" ~system:detect_label
        (fun () ->
          let proto =
            Lcm_core.Proto.install ~detection ~policy:Lcm_core.Policy.lcm_mcc
              (Config.build_machine machine)
          in
          Lcm_cstar.Runtime.create proto ~schedule:Schedule.Static)
        (fun rt -> Threshold.run rt p))
    Lcm_core.Detect.
      [ ("off", Off); ("reconcile-time", At_reconcile); ("strict", Strict) ]

let ablation_update_cells ~scale machine =
  (* invalidate- vs update-based reconciliation (Policy.lcm_mcc_update):
     stencil consumers re-reference neighbour blocks every iteration, so
     refreshing copies in place saves their re-fetches *)
  let p = small_stencil_params scale in
  List.concat_map
    (fun (sname, schedule) ->
      systems_cells ~schedule machine ~experiment:("stencil " ^ sname)
        [ Config.lcm_mcc; Config.lcm_mcc_update ] (fun rt -> Stencil.run rt p))
    [ ("static", Schedule.Static); ("dyn", dynamic) ]

let ablation_barrier_cells ~scale machine =
  (* Reconciliation organised as a central coordinator vs a combining tree
     (paper §5.1), at two machine sizes.  Many short phases make barrier
     cost visible. *)
  let p, sizes =
    match scale with
    | Tiny -> (Stencil.params ~n:16 ~iters:6, [ 8; 32 ])
    | Quick | Paper -> (Stencil.params ~n:32 ~iters:24, [ 32; 128 ])
  in
  List.concat_map
    (fun nnodes ->
      let machine = { machine with Config.nnodes } in
      List.map
        (fun style ->
          checked_cell
            ~experiment:(Printf.sprintf "stencil P=%d" nnodes)
            ~system:("barrier " ^ Lcm_core.Barrier.to_string style)
            (fun () ->
              Config.make_runtime ~barrier:style machine Config.lcm_mcc
                ~schedule:Schedule.Static)
            (fun rt -> Stencil.run rt p))
        [ Lcm_core.Barrier.Constant; Lcm_core.Barrier.Flat; Lcm_core.Barrier.Tree 4 ])
    sizes

let ablation_capacity_cells ~scale machine =
  (* The paper's "on a machine with a limited cache ... the first
     [dynamic] version's performance is likely to be more typical": a
     small hardware cache above node memory erodes Stache-stat's advantage
     because its fast path (pure local hits) now pays miss penalties,
     while LCM's time is dominated by protocol work either way. *)
  let p = small_stencil_params scale in
  List.concat_map
    (fun (cap_label, hw_cache_blocks) ->
      systems_cells { machine with Config.hw_cache_blocks }
        ~experiment:("stencil-stat hw-cache " ^ cap_label)
        [ Config.stache; Config.lcm_mcc ] (fun rt -> Stencil.run rt p))
    [ ("none", None); ("64 blocks", Some 64); ("16 blocks", Some 16) ]

(* ------------------------------------------------------------------ *)
(* Family registry                                                     *)
(* ------------------------------------------------------------------ *)

let families =
  [
    ("figure2", figure2_cells);
    ("figure3", figure3_cells);
    ("reduction", ablation_reduction_cells);
    ("false-sharing", ablation_false_sharing_cells);
    ("stale", ablation_stale_cells);
    ("block-reuse", ablation_block_reuse_cells);
    ("schedule", ablation_schedule_cells);
    ("topology", ablation_topology_cells);
    ("scaling", ablation_scaling_cells);
    ("dir-vs-snoop", dir_vs_snoop_cells);
    ("cost-sensitivity", ablation_cost_sensitivity_cells);
    ("detection", ablation_detection_cells);
    ("update", ablation_update_cells);
    ("barrier", ablation_barrier_cells);
    ("capacity", ablation_capacity_cells);
  ]
