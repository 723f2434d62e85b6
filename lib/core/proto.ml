(* The protocol facade: one handle over the two coherence engines.

   A Policy.t's family picks the engine at install time — Directory
   policies (stache and the LCM variants) ride the home-directory engine
   in Proto_dir; Snoop policies (MSI/MESI/MOESI) ride the shared-bus
   engine in Proto_snoop.  Everything above this layer (the harness, the
   C* runtime, the CLI) talks to Proto and is engine-agnostic.

   The dispatch is a plain variant rather than a first-class module
   because the two engines agree on every operation's type; keeping the
   facade dumb keeps the engines honest about their shared contract. *)

type t =
  | Dir of Proto_dir.t
  | Snoop_engine of Proto_snoop.t

let install ?detect ?strict_detection ?barrier ~policy mach =
  match policy.Policy.family with
  | Policy.Directory _ ->
    Dir
      (Proto_dir.install ?detect ?strict_detection ?barrier ~policy mach)
  | Policy.Snoop _ ->
    (* detection is an LCM reconciliation feature; a coherent bus has no
       reconcile sweep to record conflicts in, so the flags are inert *)
    ignore detect;
    ignore strict_detection;
    Snoop_engine (Proto_snoop.install ?barrier ~policy mach)

let policy = function
  | Dir p -> Proto_dir.policy p
  | Snoop_engine p -> Proto_snoop.policy p

let machine = function
  | Dir p -> Proto_dir.machine p
  | Snoop_engine p -> Proto_snoop.machine p

let register_reduction t ~base ~nwords op =
  match t with
  | Dir p -> Proto_dir.register_reduction p ~base ~nwords op
  | Snoop_engine p -> Proto_snoop.register_reduction p ~base ~nwords op

let begin_parallel = function
  | Dir p -> Proto_dir.begin_parallel p
  | Snoop_engine p -> Proto_snoop.begin_parallel p

let reconcile = function
  | Dir p -> Proto_dir.reconcile p
  | Snoop_engine p -> Proto_snoop.reconcile p

let conflicts = function
  | Dir p -> Proto_dir.conflicts p
  | Snoop_engine p -> Proto_snoop.conflicts p

let races = function
  | Dir p -> Proto_dir.races p
  | Snoop_engine p -> Proto_snoop.races p

let dump_block t b =
  match t with
  | Dir p -> Proto_dir.dump_block p b
  | Snoop_engine p -> Proto_snoop.dump_block p b

let check_invariants = function
  | Dir p -> Proto_dir.check_invariants p
  | Snoop_engine p -> Proto_snoop.check_invariants p

let peek t addr =
  match t with
  | Dir p -> Proto_dir.peek p addr
  | Snoop_engine p -> Proto_snoop.peek p addr

let poke t addr v =
  match t with
  | Dir p -> Proto_dir.poke p addr v
  | Snoop_engine p -> Proto_snoop.poke p addr v
