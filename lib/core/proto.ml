(* The protocol facade: one handle over the two coherence engines.

   A Policy.t's family picks the engine at install time — Directory
   policies (stache and the LCM variants) ride the home-directory engine
   in Proto_dir; Snoop policies (MSI/MESI/MOESI) ride the shared-bus
   engine in Proto_snoop.  Everything above this layer (the harness, the
   C* runtime, the CLI) talks to Proto and is engine-agnostic.

   The dispatch is a plain variant rather than a first-class module
   because the two engines agree on every operation's type; keeping the
   facade dumb keeps the engines honest about their shared contract,
   whose engine-independent parts live here: phases change only while no
   fiber runs, a quiescent machine has no parked access, and an address
   splits into a block and an offset once. *)

module Machine = Lcm_tempest.Machine
module Gmem = Lcm_mem.Gmem

type engine = Dir of Proto_dir.t | Snoop_engine of Proto_snoop.t

type t = { policy : Policy.t; machine : Machine.t; engine : engine }

let install ?detection ?barrier ~policy mach =
  let engine =
    match policy.Policy.family with
    | Policy.Directory _ ->
      Dir (Proto_dir.install ?detection ?barrier ~policy mach)
    | Policy.Snoop _ ->
      (* detection is an LCM reconciliation feature; a coherent bus has
         no reconcile sweep to record conflicts in, so the setting is
         inert *)
      ignore detection;
      Snoop_engine (Proto_snoop.install ?barrier ~policy mach)
  in
  { policy; machine = mach; engine }

let policy t = t.policy
let machine t = t.machine

(* Reductions execute as coherent read-modify-writes on a bus: there is
   no reconciliation for an operator to combine, nor for detection to
   record conflicts or races in. *)
let register_reduction t ~base ~nwords op =
  match t.engine with
  | Dir p -> Proto_dir.register_reduction p ~base ~nwords op
  | Snoop_engine _ -> ()

let conflicts t =
  match t.engine with Dir p -> Proto_dir.conflicts p | Snoop_engine _ -> []

let races t =
  match t.engine with Dir p -> Proto_dir.races p | Snoop_engine _ -> []

let require_quiescent t what =
  if Machine.active_fibers t.machine > 0 then
    failwith (Printf.sprintf "Proto.%s: fibers still running" what)

let begin_parallel t =
  require_quiescent t "begin_parallel";
  Machine.set_phase t.machine `Parallel

let reconcile t =
  require_quiescent t "reconcile";
  match t.engine with
  | Dir p -> Proto_dir.reconcile p
  | Snoop_engine p -> Proto_snoop.reconcile p

let check_invariants t =
  let errors = ref [] in
  let report e = errors := e :: !errors in
  (match t.engine with
  | Dir p -> Proto_dir.check_invariants p report
  | Snoop_engine p -> Proto_snoop.check_invariants p report);
  Array.iter
    (fun n ->
      List.iter
        (fun b ->
          report
            (Printf.sprintf
               "block %d: node %d has a pending retry while quiescent" b
               (Machine.id n)))
        (Machine.parked n))
    (Machine.nodes t.machine);
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let peek t addr =
  let g = Machine.gmem t.machine in
  let b = Gmem.block_of_addr g addr and off = Gmem.offset_in_block g addr in
  match t.engine with
  | Dir p -> Proto_dir.peek p b off
  | Snoop_engine p -> Proto_snoop.peek p b off

let poke t addr v =
  let g = Machine.gmem t.machine in
  let b = Gmem.block_of_addr g addr and off = Gmem.offset_in_block g addr in
  match t.engine with
  | Dir p -> Proto_dir.poke p b off v
  | Snoop_engine p -> Proto_snoop.poke p b off v
