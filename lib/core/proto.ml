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
   fiber runs, and a quiescent machine has no parked access. *)

module Machine = Lcm_tempest.Machine

type t =
  | Dir of Proto_dir.t
  | Snoop_engine of Proto_snoop.t

let install ?detection ?barrier ~policy mach =
  match policy.Policy.family with
  | Policy.Directory _ ->
    Dir (Proto_dir.install ?detection ?barrier ~policy mach)
  | Policy.Snoop _ ->
    (* detection is an LCM reconciliation feature; a coherent bus has no
       reconcile sweep to record conflicts in, so the setting is inert *)
    ignore detection;
    Snoop_engine (Proto_snoop.install ?barrier ~policy mach)

let policy = function
  | Dir p -> Proto_dir.policy p
  | Snoop_engine p -> Proto_snoop.policy p

let machine = function
  | Dir p -> Proto_dir.machine p
  | Snoop_engine p -> Proto_snoop.machine p

(* Reductions execute as coherent read-modify-writes on a bus: there is
   no reconciliation for an operator to combine, nor for detection to
   record conflicts or races in. *)
let register_reduction t ~base ~nwords op =
  match t with
  | Dir p -> Proto_dir.register_reduction p ~base ~nwords op
  | Snoop_engine _ -> ()

let conflicts = function Dir p -> Proto_dir.conflicts p | Snoop_engine _ -> []
let races = function Dir p -> Proto_dir.races p | Snoop_engine _ -> []

let require_quiescent t what =
  if Machine.active_fibers (machine t) > 0 then
    failwith (Printf.sprintf "Proto.%s: fibers still running" what)

let begin_parallel t =
  require_quiescent t "begin_parallel";
  Machine.set_phase (machine t) `Parallel

let reconcile t =
  require_quiescent t "reconcile";
  match t with
  | Dir p -> Proto_dir.reconcile p
  | Snoop_engine p -> Proto_snoop.reconcile p

let check_invariants t =
  let parked n =
    List.map
      (fun b ->
        Printf.sprintf "block %d: node %d has a pending retry while quiescent"
          b (Machine.id n))
      (Machine.parked n)
  in
  let engine =
    match t with
    | Dir p -> Proto_dir.check_invariants p
    | Snoop_engine p -> Proto_snoop.check_invariants p
  in
  match (match engine with Ok () -> [] | Error es -> es)
        @ List.concat_map parked (Array.to_list (Machine.nodes (machine t)))
  with
  | [] -> Ok ()
  | es -> Error es

let peek t addr =
  match t with
  | Dir p -> Proto_dir.peek p addr
  | Snoop_engine p -> Proto_snoop.peek p addr

let poke t addr v =
  match t with
  | Dir p -> Proto_dir.poke p addr v
  | Snoop_engine p -> Proto_snoop.poke p addr v
