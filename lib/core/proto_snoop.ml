(* The snooping-bus protocol engine: MSI/MESI/MOESI over Lcm_net.Bus.

   Division of labour: Snoop holds the pure per-policy transition tables;
   this engine owns transport (bus transactions and their arbitration)
   and the writeback buffer.  A faulting access parks in the machine
   (Machine.park/wake), and the end of a phase is Barrier.release — the
   same two mechanisms the directory engine uses.  Every bus
   transaction's state changes happen atomically in its completion
   callback, so the engine needs no "busy" directory states: concurrent
   requests simply serialize through bus arbitration.

   Memory model: the machine's master copies are the (centralized) memory
   image.  Home backing lines are disabled (the protocol this engine
   installs says [home_backing = false]) — a node's accesses to blocks
   homed locally fault and arbitrate for the bus exactly like everyone
   else's; only the fetch counters distinguish local from remote homes,
   for comparability with the directory engine.  A node's locally-homed
   cached lines are exempt from capacity eviction (the machine treats
   them as that node's share of memory), which mirrors the directory
   engine's home-line exemption.

   The writeback race the tables cannot express: evicting an M or O line
   removes the line now but its FLUSH transaction only reaches memory at
   a later bus grant.  The evicted data sits in a writeback buffer that
   every intervening transaction snoops first — a BUS_RD/BUS_RDX granted
   between the eviction and the FLUSH is supplied from the buffer, and
   the FLUSH itself becomes a no-op if the buffer entry was consumed. *)

module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff
module Tag = Lcm_tempest.Tag
module Block = Lcm_mem.Block
module Gmem = Lcm_mem.Gmem
module Stats = Lcm_util.Stats
module Itbl = Lcm_util.Itbl
module Bus = Lcm_net.Bus

type handles = {
  h_writebacks : Stats.Handle.counter;
  h_snoop_hits : Stats.Handle.counter;
  h_c2c : Stats.Handle.counter;
  h_upgr_races : Stats.Handle.counter;
  h_wb_supplies : Stats.Handle.counter;
}

let resolve_handles s =
  {
    h_writebacks = Stats.counter s "proto.writebacks";
    h_snoop_hits = Stats.counter s "bus.snoop_hits";
    h_c2c = Stats.counter s "bus.c2c_transfers";
    h_upgr_races = Stats.counter s "bus.upgr_races";
    h_wb_supplies = Stats.counter s "bus.wb_supplies";
  }

type t = {
  mach : Machine.t;
  pol : Policy.t;
  sp : Policy.snoop;
  hs : handles;
  bus : Bus.t;
  barrier : Barrier.style;
  states : Snoop.state array Itbl.t;  (* block -> per-node state *)
  wb : Block.t Itbl.t;  (* in-flight evicted dirty data *)
}

let states_of t b =
  match Itbl.find_opt t.states b with
  | Some sts -> sts
  | None ->
    let sts = Array.make (Machine.nnodes t.mach) Snoop.I in
    Itbl.add t.states b sts;
    sts

let state t b nid = (states_of t b).(nid)

(* Transition one cache: keep the state table and the machine's line table
   in lockstep.  [data] refreshes (or provides, for installs) the line
   contents; installs always carry a private copy, never an alias of the
   master. *)
let set_state t b nid st ?data () =
  (states_of t b).(nid) <- st;
  let node = Machine.node t.mach nid in
  match st with
  | Snoop.I -> Machine.drop_line node b
  | st -> (
    let tag = Snoop.tag_of_state st in
    match Machine.find_line node b with
    | Some line ->
      line.Machine.tag <- tag;
      (match data with
      | Some d -> Block.blit ~src:d ~dst:line.Machine.data
      | None -> ())
    | None ->
      let data =
        match data with Some d -> d | None -> assert false (* install needs data *)
      in
      ignore (Machine.install_line node b ~data ~tag))

(* Consume the writeback buffer: the evicted dirty value is the freshest
   copy of the block, so any transaction touching the block retires it to
   memory first.  The still-queued FLUSH then finds nothing and no-ops. *)
let drain_wb t b ~consumed_by_transaction =
  match Itbl.find_opt t.wb b with
  | Some data ->
    Block.blit ~src:data ~dst:(Machine.master t.mach b);
    Itbl.remove t.wb b;
    if consumed_by_transaction then Stats.Handle.incr t.hs.h_wb_supplies
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Bus transactions (each body runs atomically at grant completion)    *)
(* ------------------------------------------------------------------ *)

(* One pass over the other caches, shared by BUS_RD, BUS_RDX and the
   invalidation half of BUS_UPGR: retire the writeback buffer, apply each
   holder's [react]ion to the observed transaction, take the first
   supplier's copy and write memory back where the reaction says so.
   Returns the supplied copy, if any, and whether any other cache held
   the block. *)
let snoop_others t b nid react =
  drain_wb t b ~consumed_by_transaction:true;
  let supplier = ref None in
  let others_present = ref false in
  Array.iteri
    (fun m st ->
      if m <> nid && st <> Snoop.I then begin
        others_present := true;
        Stats.Handle.incr t.hs.h_snoop_hits;
        let r = react st in
        let line =
          match Machine.find_line (Machine.node t.mach m) b with
          | Some l -> l
          | None -> failwith "Proto_snoop: snooped state without a line"
        in
        if r.Snoop.supplies && !supplier = None then
          supplier := Some (Block.copy line.Machine.data);
        if r.Snoop.writes_memory then
          Block.blit ~src:line.Machine.data ~dst:(Machine.master t.mach b);
        set_state t b m r.Snoop.next ()
      end)
    (states_of t b);
  (!supplier, !others_present)

(* A miss fills from the supplier's copy, else from memory. *)
let fill_data t b = function
  | Some d ->
    Stats.Handle.incr t.hs.h_c2c;
    d
  | None -> Block.copy (Machine.master t.mach b)

let do_bus_rd t b nid ~now =
  let supplier, others_present = snoop_others t b nid (Snoop.on_bus_rd t.sp) in
  let data = fill_data t b supplier in
  let st = Snoop.fill_on_read t.sp ~others_present in
  set_state t b nid st ~data ();
  Machine.tracef t.mach ~time:now "bus_rd node=%d block=%d fill=%s" nid b
    (Snoop.state_to_string st);
  Machine.wake (Machine.node t.mach nid) b ~now

(* BUS_RDX, also the upgrade-miss conversion: the dirty holder (if any)
   supplies, every other copy invalidates, the requester installs
   Modified.  Memory may stay stale — the requester is the new single
   owner. *)
let do_bus_rdx t b nid ~now =
  let supplier, _ = snoop_others t b nid Snoop.on_bus_rdx in
  set_state t b nid Snoop.fill_on_write ~data:(fill_data t b supplier) ();
  Machine.tracef t.mach ~time:now "bus_rdx node=%d block=%d" nid b;
  Machine.wake (Machine.node t.mach nid) b ~now

let do_bus_upgr t b nid ~now =
  match state t b nid with
  | Snoop.I ->
    (* Our shared copy was invalidated while we arbitrated: the upgrade
       has nothing to upgrade and converts to a full read-exclusive in
       the same bus slot. *)
    Stats.Handle.incr t.hs.h_upgr_races;
    do_bus_rdx t b nid ~now
  | Snoop.S | Snoop.O ->
    (* the requester's own copy is current: the supplier's is not needed *)
    ignore (snoop_others t b nid Snoop.on_bus_rdx);
    set_state t b nid Snoop.fill_on_write ();
    Machine.tracef t.mach ~time:now "bus_upgr node=%d block=%d" nid b;
    Machine.wake (Machine.node t.mach nid) b ~now
  | Snoop.E | Snoop.M ->
    (* already exclusive (e.g. a racing transaction's supplier bookkeeping
       upgraded us); just complete *)
    set_state t b nid Snoop.fill_on_write ();
    Machine.wake (Machine.node t.mach nid) b ~now

(* A no-op when an intervening transaction consumed the buffer. *)
let do_bus_flush t b ~now =
  drain_wb t b ~consumed_by_transaction:false;
  Machine.tracef t.mach ~time:now "bus_flush block=%d" b

(* ------------------------------------------------------------------ *)
(* Fault handling                                                      *)
(* ------------------------------------------------------------------ *)

(* Static grant handlers, so a steady-state snooping transaction
   allocates nothing host-side.  The rider packs [(nid lsl 40) lor b] —
   block numbers stay far below 2^40. *)
let grant_rd_m t now x = do_bus_rd t (x land ((1 lsl 40) - 1)) (x lsr 40) ~now
let grant_rdx_m t now x = do_bus_rdx t (x land ((1 lsl 40) - 1)) (x lsr 40) ~now
let grant_upgr_m t now x = do_bus_upgr t (x land ((1 lsl 40) - 1)) (x lsr 40) ~now
let grant_flush_m t now b = do_bus_flush t b ~now

(* One transaction per (node, block) arbitrates at a time: a fault issues
   one only when it is the first access parked on the block
   (Machine.park); the grant wakes them all. *)
let miss t node b ~retry kind ~words grant =
  if Machine.park node b retry then
    Bus.transact t.bus ~kind ~at:(Machine.clock node) ~words grant t
      ((Machine.id node lsl 40) lor b)

let read_fault t node b ~retry =
  miss t node b ~retry Bus.Rd ~words:(Machine.data_words t.mach) grant_rd_m

let write_fault t node b ~retry =
  let nid = Machine.id node in
  match state t b nid with
  | st when Snoop.silent_upgrade_ok st ->
    (* MESI/MOESI: the Exclusive holder upgrades without a transaction —
       the fault trap already charged is the whole cost. *)
    set_state t b nid Snoop.fill_on_write ();
    Machine.resume node ~now:(Machine.clock node) ~cost:0 retry
  | Snoop.S | Snoop.O ->
    miss t node b ~retry Bus.Upgr ~words:Machine.ctrl_words grant_upgr_m
  | Snoop.M ->
    (* the line is writable; the fault raced a concurrent install *)
    Machine.resume node ~now:(Machine.clock node) ~cost:0 retry
  | Snoop.I | Snoop.E ->
    miss t node b ~retry Bus.Rdx ~words:(Machine.data_words t.mach) grant_rdx_m

(* Capacity eviction: dirty states stage their data in the writeback
   buffer and arbitrate for a FLUSH slot; clean states drop silently. *)
let evict t node b (line : Machine.line) =
  let nid = Machine.id node in
  let st = state t b nid in
  (states_of t b).(nid) <- Snoop.I;
  (* the machine removes the line after this handler returns *)
  if Snoop.writeback_on_evict st then begin
    Stats.Handle.incr t.hs.h_writebacks;
    Itbl.replace t.wb b (Block.copy line.Machine.data);
    Bus.transact t.bus ~kind:Bus.Flush ~at:(Machine.clock node)
      ~words:(Machine.data_words t.mach) grant_flush_m t b
  end

(* LCM and stale-data directives are memory-system hints with no meaning
   under a coherent bus: programs compiled for LCM run unchanged (the
   paper's portability argument), so every directive degrades to a no-op
   rather than an error. *)
let directive node d ~retry =
  Machine.trace_directive node
    (match d with
    | Memeff.Mark_modification _ -> "mark_modification"
    | Memeff.Flush_copies -> "flush_copies"
    | Stale.Pin_stale _ -> "pin_stale"
    | Stale.Refresh _ -> "refresh"
    | _ -> failwith "Proto_snoop: unknown memory-system directive");
  retry ()

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

(* Bus protocols are coherent: reconciliation is just the end-of-phase
   barrier, every node joining at its own clock.  The same Barrier timing
   models price it, so directory-vs-snoop comparisons use identical
   barrier costs. *)
let reconcile t =
  Machine.run_to_quiescence t.mach;
  let join_times = Array.map Machine.clock (Machine.nodes t.mach) in
  Array.iteri
    (fun i jt ->
      Machine.trace_emit t.mach ~time:jt (Machine.Trace.Barrier_enter { node = i }))
    join_times;
  Barrier.release t.mach ~style:t.barrier ~join_times ~not_before:0

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let owner_state = function Snoop.M | Snoop.O | Snoop.E -> true | _ -> false

(* A table's bindings in ascending block order, so the invariant report
   does not depend on its bucket count. *)
let by_block tbl =
  Itbl.fold (fun b v acc -> (b, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let check_invariants t report =
  let err fmt = Printf.ksprintf report fmt in
  List.iter
    (fun (b, _) -> err "block %d: writeback buffered while quiescent" b)
    (by_block t.wb);
  List.iter
    (fun (b, sts) ->
      let master = Machine.master t.mach b in
      let owners = ref [] and sharers = ref [] in
      Array.iteri
        (fun nid st ->
          if not (Snoop.valid t.sp st) then
            err "block %d: node %d in state %s, invalid under %s" b nid
              (Snoop.state_to_string st) t.pol.Policy.name;
          (match st with
          | Snoop.M | Snoop.O | Snoop.E -> owners := (nid, st) :: !owners
          | Snoop.S -> sharers := nid :: !sharers
          | Snoop.I -> ());
          match st with
          | Snoop.I -> (
            match Machine.find_line (Machine.node t.mach nid) b with
            | Some line when line.Machine.tag <> Tag.Invalid ->
              err "block %d: node %d caches a line in state I" b nid
            | Some _ | None -> ())
          | st -> (
            match Machine.find_line (Machine.node t.mach nid) b with
            | None -> err "block %d: node %d in state %s holds no line" b nid
                        (Snoop.state_to_string st)
            | Some line when line.Machine.tag <> Snoop.tag_of_state st ->
              err "block %d: node %d state %s but tag %s" b nid
                (Snoop.state_to_string st)
                (Tag.to_string line.Machine.tag)
            | Some _ -> ()))
        sts;
      (match !owners with
      | [] | [ _ ] -> ()
      | os ->
        err "block %d: multiple owner states: %s" b
          (String.concat ", "
             (List.map
                (fun (n, s) -> Printf.sprintf "%d:%s" n (Snoop.state_to_string s))
                os)));
      (match !owners with
      | [ (onid, (Snoop.M | Snoop.E)) ] when !sharers <> [] ->
        err "block %d: sharers coexist with node %d's exclusive state" b onid
      | _ -> ());
      (* data: with no dirty owner, every copy equals memory; with an
         Owned holder, the sharers equal the owner (memory may be stale) *)
      let truth =
        match !owners with
        | [ (onid, (Snoop.M | Snoop.O)) ] -> (
          match Machine.find_line (Machine.node t.mach onid) b with
          | Some line -> line.Machine.data
          | None -> master)
        | _ -> master
      in
      Array.iteri
        (fun nid st ->
          if st <> Snoop.I && not (owner_state st) then
            match Machine.find_line (Machine.node t.mach nid) b with
            | Some line when not (Block.equal line.Machine.data truth) ->
              err "block %d: node %d's %s copy diverges from %s" b nid
                (Snoop.state_to_string st)
                (match !owners with
                | [ (_, (Snoop.M | Snoop.O)) ] -> "the owner"
                | _ -> "memory")
            | Some _ | None -> ())
        sts;
      (* E is clean: it must equal memory *)
      List.iter
        (fun (nid, st) ->
          if st = Snoop.E then
            match Machine.find_line (Machine.node t.mach nid) b with
            | Some line when not (Block.equal line.Machine.data master) ->
              err "block %d: node %d's Exclusive copy diverges from memory" b nid
            | Some _ | None -> ())
        !owners)
    (by_block t.states)

let peek t b off =
  let from_owner () =
    match Itbl.find_opt t.states b with
    | None -> None
    | Some sts ->
      let found = ref None in
      Array.iteri
        (fun nid st ->
          if !found = None && owner_state st then
            match Machine.find_line (Machine.node t.mach nid) b with
            | Some line -> found := Some line.Machine.data.(off)
            | None -> ())
        sts;
      !found
  in
  (* an in-flight writeback is fresher than memory *)
  match from_owner () with
  | Some v -> v
  | None -> (
    match Itbl.find_opt t.wb b with
    | Some data -> data.(off)
    | None -> (Machine.master t.mach b).(off))

let poke t b off v =
  (match Itbl.find_opt t.states b with
  | Some sts ->
    Array.iteri
      (fun nid st ->
        if st <> Snoop.I then
          failwith
            (Printf.sprintf "Proto.poke: block %d cached at node %d" b nid))
      sts
  | None -> ());
  (Machine.master t.mach b).(off) <- v

let install ?(barrier = Barrier.Constant) ~policy:pol mach =
  let sp =
    match pol.Policy.family with
    | Policy.Snoop sp -> sp
    | Policy.Directory _ ->
      invalid_arg "Proto_snoop.install: directory policies ride Proto_dir"
  in
  let bus =
    Bus.create ~engine:(Machine.engine mach) ~costs:(Machine.costs mach)
      ~stats:(Machine.stats mach) ()
  in
  let t =
    {
      mach;
      pol;
      sp;
      hs = resolve_handles (Machine.stats mach);
      bus;
      barrier;
      states = Itbl.create 16;
      wb = Itbl.create 16;
    }
  in
  Machine.install mach
    {
      read_fault = read_fault t;
      write_fault = write_fault t;
      directive;
      evict = evict t;
      read_hit = None;
      home_backing = false;
    };
  t
