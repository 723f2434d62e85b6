module ISet = Set.Make (Int)
module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff
module Tag = Lcm_tempest.Tag
module Block = Lcm_mem.Block
module Gmem = Lcm_mem.Gmem
module Mask = Lcm_util.Mask
module Stats = Lcm_util.Stats
module Itbl = Lcm_util.Itbl

(* ------------------------------------------------------------------ *)
(* Directory state                                                     *)
(* ------------------------------------------------------------------ *)

type dstate =
  | Home_owned  (* master valid at home; no remote copies *)
  | Shared of ISet.t  (* read-only copies at these remote nodes *)
  | Exclusive of int  (* one remote writable copy; master stale *)

type want = Want_ro | Want_rw | Want_lcm

let want_code = function Want_ro -> 0 | Want_rw -> 1 | Want_lcm -> 2
let want_of_code = function 0 -> Want_ro | 1 -> Want_rw | _ -> Want_lcm

(* A request the home cannot serve yet (busy entry, pending recall or
   invalidation), built where it parks; the grant fast path builds none. *)
type waiter = { want : want; requester : int }

type busy =
  | Recalling of waiter
  | Invalidating of { mutable acks_left : int; waiter : waiter }

type entry = {
  block : int;
  mutable dstate : dstate;
  mutable busy : busy option;
  waiting : waiter Queue.t;
  mutable lcm_holders : ISet.t;  (* nodes granted an LCM copy this epoch *)
  mutable shadow : Block.t option;  (* pending reconciled value *)
  mutable shadow_mask : Mask.t;  (* words merged into the shadow *)
  mutable readers : ISet.t;  (* parallel-phase readers (detection only) *)
}

(* Reconcile progress: the joins and sweep acks that decide when
   Barrier.release may run. *)
type rstate = {
  mutable joined : int;
  done_times : int array;
      (* per-node completion instants: the join, raised by any sweep
         invalidation acks the node's homes receive — the inputs to the
         barrier-release model *)
  mutable inval_acks_left : int;
  mutable last_ack_time : int;
  mutable finished : bool;
}

(* Counters on the protocol fast paths, resolved once at [install] so the
   handlers never hash a counter name (see Stats.Handle).  Names are
   unchanged — these are aliases, not new counters. *)
type handles = {
  h_recalls : Stats.Handle.counter;
  h_invals : Stats.Handle.counter;
  h_writebacks : Stats.Handle.counter;
  h_marks : Stats.Handle.counter;
  h_mark_local : Stats.Handle.counter;
  h_mark_remote : Stats.Handle.counter;
  h_implicit_marks : Stats.Handle.counter;
  h_flush_blocks : Stats.Handle.counter;
  h_flushes_received : Stats.Handle.counter;
  h_conflicts : Stats.Handle.counter;
  h_snapshot_refreshes : Stats.Handle.counter;
  h_local_restores : Stats.Handle.counter;
  h_clean_copies : Stats.Handle.counter;
  h_live_clean_copies : Stats.Handle.counter;
  h_peak_clean_copies : Stats.Handle.gauge;
  h_reconcile_invals : Stats.Handle.counter;
  h_reconcile_updates : Stats.Handle.counter;
  h_reconciled_blocks : Stats.Handle.counter;
  h_strict_invals : Stats.Handle.counter;
  h_survived_invals : Stats.Handle.counter;
  h_stale_pins : Stats.Handle.counter;
  h_stale_refreshes : Stats.Handle.counter;
}

let resolve_handles s =
  {
    h_recalls = Stats.counter s "proto.recalls";
    h_invals = Stats.counter s "proto.invals";
    h_writebacks = Stats.counter s "proto.writebacks";
    h_marks = Stats.counter s "lcm.marks";
    h_mark_local = Stats.counter s "lcm.mark_local";
    h_mark_remote = Stats.counter s "lcm.mark_remote";
    h_implicit_marks = Stats.counter s "lcm.implicit_marks";
    h_flush_blocks = Stats.counter s "lcm.flush_blocks";
    h_flushes_received = Stats.counter s "lcm.flushes_received";
    h_conflicts = Stats.counter s "lcm.conflicts";
    h_snapshot_refreshes = Stats.counter s "lcm.snapshot_refreshes";
    h_local_restores = Stats.counter s "lcm.local_restores";
    h_clean_copies = Stats.counter s "lcm.clean_copies";
    h_live_clean_copies = Stats.counter s "lcm.live_clean_copies";
    h_peak_clean_copies = Stats.gauge s "lcm.peak_clean_copies";
    h_reconcile_invals = Stats.counter s "lcm.reconcile_invals";
    h_reconcile_updates = Stats.counter s "lcm.reconcile_updates";
    h_reconciled_blocks = Stats.counter s "lcm.reconciled_blocks";
    h_strict_invals = Stats.counter s "detect.strict_invals";
    h_survived_invals = Stats.counter s "stale.survived_invals";
    h_stale_pins = Stats.counter s "stale.pins";
    h_stale_refreshes = Stats.counter s "stale.refreshes";
  }

type t = {
  mach : Machine.t;
  pol : Policy.t;
  dp : Policy.directory;  (* the directory-family knobs of [pol] *)
  hs : handles;
  barrier : Barrier.style;
  detection : Detect.setting;
  entries : entry Itbl.t;
  reductions : Reduction.t Itbl.t;  (* block -> operator *)
  pending_marks : int list ref array;
      (* per node: blocks marked Lcm_modified since the last flush — so
         flush_copies touches only marked blocks instead of scanning the
         whole line table (which is quadratic at scale) *)
  pending_flush_acks : int array;
  awaiting_join : bool array;
  stale_pins : unit Itbl.t array;
  mutable conflicts : Detect.conflict list;
  mutable races : Detect.race list;
  mutable rec_state : rstate option;
  (* The hot messages' handlers: closures over [t], built once at
     [install], so each message rides a pooled cell carrying only
     (data, block, rider). *)
  h_data : Machine.handler;  (* data grant: riders = (block, want code) *)
  h_get : Machine.handler;  (* riders = (block, want code lsl 20 lor requester) *)
  h_recall : Machine.handler;
  h_inval : Machine.handler;  (* serve-time invalidation: x = home *)
  h_inval_ack : Machine.handler;
  h_sweep_inval : Machine.handler;  (* reconcile-sweep invalidation: x = home *)
  h_sweep_ack : Machine.handler;
}

let home_of t b = Gmem.home_of_block (Machine.gmem t.mach) b

let get_entry t b =
  match Itbl.find t.entries b with
  | e -> e
  | exception Not_found ->
    (* A directory entry materialises on first touch, but only for a block
       inside allocated memory: a corrupt block number (a mangled message,
       an out-of-range probe) must fail naming the block here, not mint a
       ghost entry and surface as an anonymous Not_found downstream.  An
       existing entry implies the master copy (and the home backing line)
       already exist — entries are only created below, after [master] —
       so the hit path skips both lookups. *)
    if not (Lcm_mem.Gmem.is_allocated (Machine.gmem t.mach) b) then
      failwith
        (Printf.sprintf "Proto_dir.get_entry: block %d is not an allocated \
                         block" b);
    ignore (Machine.master t.mach b);
    let e =
      {
        block = b;
        dstate = Home_owned;
        busy = None;
        waiting = Queue.create ();
        lcm_holders = ISet.empty;
        shadow = None;
        shadow_mask = Mask.empty;
        readers = ISet.empty;
      }
    in
    Itbl.add t.entries b e;
    e

(* Every entry in ascending block order: the reconcile sweep and the
   invariant walk visit blocks in this order, so neither depends on the
   table's bucket count. *)
let entries_in_order t =
  Itbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> Int.compare a.block b.block)

(* Record a parallel-phase reader for race detection (§7.2).  Called
   both from [serve] (remote reads fault and reach the home) and from the
   machine's read observer (the home's own reads hit its always-readable
   backing line and never fault). *)
let note_reader t e node =
  if t.detection <> Detect.Off && Machine.phase t.mach = `Parallel then
    e.readers <- ISet.add node e.readers

(* §5.1 memory accounting: clean copies (home pending copies and mcc local
   snapshots) exist only during a parallel call; track the live gauge and
   its high-water mark.  Decrements for local snapshots happen in
   Machine.drop_line / install_line when their lines disappear. *)
let clean_copy_created t =
  Stats.Handle.incr t.hs.h_clean_copies;
  Stats.Handle.add t.hs.h_live_clean_copies 1;
  Stats.Handle.set_max t.hs.h_peak_clean_copies
    (Stats.Handle.value t.hs.h_live_clean_copies)

(* The home's backing line mirrors the directory state so that the home
   CPU's own accesses obey coherence: Writable when home-owned, Read_only
   when shared, Invalid when a remote node holds the block exclusively. *)
let set_home_tag t b tag =
  let home = Machine.node t.mach (home_of t b) in
  match Machine.find_line home b with
  | Some line when line.Machine.tag = Tag.Lcm_modified ->
    (* The home's line is currently a private LCM copy (the home CPU marked
       its own block); the backing-store role is suspended until the flush
       returns it.  Master reads at the home still go via [master]. *)
    ()
  | Some line -> line.Machine.tag <- tag
  | None ->
    ignore (Machine.install_line home b ~data:(Machine.master t.mach b) ~tag)

(* Re-install the home backing line as an alias of the master copy (unless
   the home CPU currently holds a private LCM copy of its own block). *)
let realias_home_line t b ~tag =
  let home = Machine.node t.mach (home_of t b) in
  match Machine.find_line home b with
  | Some line when line.Machine.tag = Tag.Lcm_modified -> ()
  | Some _ | None ->
    Machine.drop_line home b;
    ignore (Machine.install_line home b ~data:(Machine.master t.mach b) ~tag)

(* No remote copy remains: the home's line is the writable master. *)
let home_owns t e =
  e.dstate <- Home_owned;
  realias_home_line t e.block ~tag:Tag.Writable

let sharers_of = function
  | Shared s -> s
  | Home_owned | Exclusive _ -> ISet.empty

(* ------------------------------------------------------------------ *)
(* Requester side                                                      *)
(* ------------------------------------------------------------------ *)

let want_tag = function
  | Want_ro -> "get_ro"
  | Want_rw -> "get_rw"
  | Want_lcm -> "get_lcm"

let note_mark t nid b =
  t.pending_marks.(nid) := b :: !(t.pending_marks.(nid))

(* Install a granted copy and resume the accesses parked on the block. *)
let recv_data t node b data tag ~now =
  let line = Machine.install_line node b ~data ~tag in
  if tag = Tag.Lcm_modified then begin
    note_mark t (Machine.id node) b;
    if t.dp.Policy.local_clean_copies then begin
      line.Machine.local_clean <- Some (Block.copy data);
      clean_copy_created t
    end
  end;
  Machine.wake node b ~now

(* A data grant: payload = the granted copy, riders = (block, want code). *)
let recv_data_m t data rnode now b x =
  let tag =
    match want_of_code x with
    | Want_ro -> Tag.Read_only
    | Want_rw -> Tag.Writable
    | Want_lcm -> Tag.Lcm_modified
  in
  recv_data t rnode b data tag ~now

(* One request per (node, block) is in flight: only the first access
   parked on the block sends it. *)
let request t node b want ~retry =
  if Machine.park node b retry then
    let nid = Machine.id node in
    (* the want and requester pack into the rider, so the request rides
       the pooled message cell with no per-message closure *)
    Machine.send t.mach ~src:nid ~dst:(home_of t b)
      ~words:Machine.ctrl_words ~tag:(want_tag want) ~at:(Machine.clock node)
      t.h_get Machine.no_data b ((want_code want lsl 20) lor nid)

(* ------------------------------------------------------------------ *)
(* Home side                                                           *)
(* ------------------------------------------------------------------ *)

let rec recv_get_m t _hnode now b x =
  home_recv_get t b ~want:(want_of_code (x lsr 20)) ~requester:(x land 0xfffff)
    ~now

and home_recv_get t b ~want ~requester ~now =
  let e = get_entry t b in
  match e.busy with
  | Some _ -> Queue.add { want; requester } e.waiting
  | None -> serve t e ~want ~requester ~now

(* Reply with a copy of the master under the given tag.  When the
   requester IS the home the grant completes synchronously with the
   directory transition (the home's memory is the master: non-LCM grants
   re-alias the backing line rather than copying).  A deferred self-message
   would leave a window in which a later remote grant invalidates the home
   line only for the in-flight install to resurrect it. *)
and reply_data t e requester kind ~now =
  let b = e.block in
  let home = home_of t b in
  let master = Machine.master t.mach b in
  let tag, mtag =
    match kind with
    | Want_ro -> (Tag.Read_only, "data_ro")
    | Want_rw -> (Tag.Writable, "data_rw")
    | Want_lcm -> (Tag.Lcm_modified, "data_lcm")
  in
  if requester = home then
    let data = if kind = Want_lcm then Block.copy master else master in
    recv_data t (Machine.node t.mach home) b data tag ~now
  else
    let data = Block.copy master in
    Machine.send t.mach ~src:home ~dst:requester
      ~words:(Machine.data_words t.mach) ~tag:mtag ~at:now t.h_data data b
      (want_code kind)

and serve t e ~want ~requester ~now =
  let b = e.block in
  match (e.dstate, want) with
  | Exclusive owner, _ when owner <> requester ->
    (* Recall the remote writable copy before serving anyone. *)
    e.busy <- Some (Recalling { want; requester });
    Stats.Handle.incr t.hs.h_recalls;
    let home = home_of t b in
    Machine.send t.mach ~src:home ~dst:owner ~words:Machine.ctrl_words
      ~tag:"recall" ~at:now t.h_recall Machine.no_data b 0
  | Exclusive owner, (Want_ro | Want_rw | Want_lcm) ->
    (* A request from the recorded owner cannot happen: an owner only loses
       its copy by eviction or recall, and the corresponding Put travels
       the same FIFO channel ahead of any new request, clearing the
       exclusive state first.  Serving the (stale) master here would be a
       silent corruption — fail loudly instead. *)
    failwith
      (Printf.sprintf
         "Proto: block %d: request from recorded exclusive owner %d" b owner)
  | (Home_owned | Shared _), Want_ro ->
    add_sharer t e requester;
    note_reader t e requester;
    reply_data t e requester Want_ro ~now
  | (Home_owned | Shared _), Want_rw ->
    let home = home_of t b in
    let others = ISet.remove requester (sharers_of e.dstate) in
    if ISet.is_empty others then grant_exclusive t e requester ~now
    else begin
      let waiter = { want; requester } in
      e.busy <- Some (Invalidating { acks_left = ISet.cardinal others; waiter });
      ISet.iter
        (fun sharer ->
          Stats.Handle.incr t.hs.h_invals;
          Machine.send t.mach ~src:home ~dst:sharer ~words:Machine.ctrl_words
            ~tag:"inval" ~at:now t.h_inval Machine.no_data b home)
        others
    end
  | (Home_owned | Shared _), Want_lcm ->
    (* Grant a private, inconsistent copy of the phase-start value.  A
       remote requester also registers as a sharer so that the
       post-reconcile invalidation sweep (and any later exclusive grant)
       reaches the restored read-only copy LCM-mcc keeps. *)
    add_sharer t e requester;
    e.lcm_holders <- ISet.add requester e.lcm_holders;
    reply_data t e requester Want_lcm ~now

(* the home itself is never listed as a sharer: its line re-aliases *)
and add_sharer t e requester =
  if requester <> home_of t e.block then begin
    e.dstate <- Shared (ISet.add requester (sharers_of e.dstate));
    set_home_tag t e.block Tag.Read_only
  end

(* Grant [requester] the only copy.  The home owning the master IS
   exclusive ownership: no directory state change, just a writable
   re-alias of the backing line. *)
and grant_exclusive t e requester ~now =
  if requester = home_of t e.block then e.dstate <- Home_owned
  else begin
    e.dstate <- Exclusive requester;
    set_home_tag t e.block Tag.Invalid
  end;
  reply_data t e requester Want_rw ~now

and drain t e ~now =
  if e.busy = None && not (Queue.is_empty e.waiting) then begin
    let w = Queue.pop e.waiting in
    serve t e ~want:w.want ~requester:w.requester ~now;
    drain t e ~now
  end

(* Hot message handlers, closed over [t] once at [install] ([t.h_*]),
   so the recall / serve-invalidate control traffic allocates nothing
   per message. *)
and recv_recall_m t onode now b _x = owner_recv_recall t b onode ~now

(* A sharer drops its copy and acknowledges through [ack]: the
   serve-time or the reconcile-sweep handler. *)
and recv_inval_m t ack snode now b home =
  sharer_do_inval t b snode;
  send_inval_ack t ack snode b ~home ~now

and send_inval_ack t ack snode b ~home ~now =
  Machine.send t.mach ~src:(Machine.id snode) ~dst:home
    ~words:Machine.ctrl_words ~tag:"inval_ack" ~at:now ack Machine.no_data b 0

and recv_inval_ack_serve_m t _hnode now b _x = home_recv_inval_ack t b ~now

and owner_recv_recall t b onode ~now =
  match Machine.find_line onode b with
  | Some line when line.Machine.tag = Tag.Writable ->
    Machine.drop_line onode b;
    send_put t onode b line ~mark:false ~at:now
  | Some _ | None ->
    (* Already evicted or marked: the corresponding Put travelled first on
       this FIFO channel, so the home's master is already current. *)
    Machine.send t.mach ~src:(Machine.id onode) ~dst:(home_of t b)
      ~words:Machine.ctrl_words ~tag:"recall_nack" ~at:now
      (fun _ _ now _ _ -> finish_recall t (get_entry t b) ~now)
      Machine.no_data 0 0

(* Return a writable copy to its home: on recall and eviction a writeback
   ("put"), on a mark of a remote exclusive copy its phase-start value
   ("put_mark"), after which the node holds an LCM copy. *)
and send_put t node b (line : Machine.line) ~mark ~at =
  let from = Machine.id node in
  if not mark then Stats.Handle.incr t.hs.h_writebacks;
  let data = Block.copy line.Machine.data in
  Machine.send t.mach ~src:from ~dst:(home_of t b)
    ~words:(Machine.data_words t.mach)
    ~tag:(if mark then "put_mark" else "put") ~at
    (fun _ _ now _ _ -> home_recv_put t b data ~from ~mark ~now)
    Machine.no_data 0 0

and home_recv_put t b data ~from ~mark ~now =
  let e = get_entry t b in
  Block.blit ~src:data ~dst:(Machine.master t.mach b);
  (match e.dstate with
  | Exclusive o when o = from -> home_owns t e
  | Exclusive _ | Home_owned | Shared _ -> ());
  if mark then e.lcm_holders <- ISet.add from e.lcm_holders;
  finish_recall t e ~now

(* The recalled owner answered, with its copy or a nack: serve the
   request that waited for the recall, then any queued behind it. *)
and finish_recall t e ~now =
  match e.busy with
  | Some (Recalling w) ->
    e.busy <- None;
    serve t e ~want:w.want ~requester:w.requester ~now;
    drain t e ~now
  | Some (Invalidating _) | None -> ()

and home_recv_inval_ack t b ~now =
  let e = get_entry t b in
  match e.busy with
  | Some (Invalidating i) ->
    i.acks_left <- i.acks_left - 1;
    if i.acks_left = 0 then begin
      grant_exclusive t e i.waiter.requester ~now;
      e.busy <- None;
      drain t e ~now
    end
  | Some (Recalling _) | None -> ()

and sharer_do_inval t b snode =
  let nid = Machine.id snode in
  if Itbl.mem t.stale_pins.(nid) b then
    Stats.Handle.incr t.hs.h_survived_invals
  else
    match Machine.find_line snode b with
    | Some line when not line.Lcm_tempest.Machine.is_home_line ->
      Machine.drop_line snode b
    | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let read_fault t node b ~retry = request t node b Want_ro ~retry

(* Helper of [mark_parallel], hoisted so the hot path allocates no
   closures. *)
let snapshot_clean t node (line : Machine.line) ~costs =
  if t.dp.Policy.local_clean_copies then begin
    (match line.Machine.local_clean with
    | Some clean -> Block.blit ~src:line.Machine.data ~dst:clean
    | None ->
      line.Machine.local_clean <- Some (Block.copy line.Machine.data);
      clean_copy_created t);
    Stats.Handle.incr t.hs.h_snapshot_refreshes;
    Machine.advance_clock node costs.Lcm_sim.Costs.local_copy
  end

(* mark_modification: obtain (or upgrade to) a private writable copy of
   block [b].  Local upgrades need no communication except for a
   remotely-owned exclusive block, whose current value must first reach the
   home so that reconciliation baselines are correct. *)
let rec mark t node b ~retry =
  if Machine.phase t.mach = `Sequential then
    (* mark_modification outside a parallel call degrades to an ordinary
       coherent write acquire: there is nothing to reconcile against. *)
    match Machine.find_line node b with
    | Some line when Tag.writable line.Lcm_tempest.Machine.tag -> retry ()
    | Some _ | None -> request t node b Want_rw ~retry
  else mark_parallel t node b ~retry

and mark_parallel t node b ~retry =
  Stats.Handle.incr t.hs.h_marks;
  let nid = Machine.id node in
  let home = home_of t b in
  if home = nid then ignore (Machine.master t.mach b);
  let costs = Machine.costs t.mach in
  match Machine.find_line node b with
  | Some line when line.Machine.tag = Tag.Lcm_modified -> retry ()
  | Some line
    when line.Machine.tag = Tag.Writable || line.Machine.tag = Tag.Read_only ->
    Stats.Handle.incr t.hs.h_mark_local;
    if home = nid then begin
      (* the private copy must not alias the phase-start master *)
      if line.Machine.data == Machine.master t.mach b then
        line.Machine.data <- Block.copy line.Machine.data;
      let e = get_entry t b in
      e.lcm_holders <- ISet.add nid e.lcm_holders
    end
    else if line.Machine.tag = Tag.Writable then
      (* Remote exclusive owner: push the current value home (it is the
         phase-start value) and keep a private copy.  FIFO ordering
         guarantees the Put precedes any flush from this node. *)
      send_put t node b line ~mark:true ~at:(Machine.clock node);
    line.Machine.tag <- Tag.Lcm_modified;
    line.Machine.dirty <- Mask.empty;
    note_mark t nid b;
    snapshot_clean t node line ~costs;
    Machine.advance_clock node costs.Lcm_sim.Costs.block_install;
    retry ()
  | Some _ | None ->
    Stats.Handle.incr t.hs.h_mark_remote;
    request t node b Want_lcm ~retry

let write_fault t node b ~retry =
  match (Machine.phase t.mach, t.dp.Policy.parallel_write_grant) with
  | `Parallel, Policy.Lcm_copy ->
    (* Unannotated write during a parallel phase: LCM detects the unusual
       case and handles it as an implicit mark_modification. *)
    Stats.Handle.incr t.hs.h_implicit_marks;
    mark t node b ~retry
  | (`Sequential | `Parallel), (Policy.Exclusive | Policy.Lcm_copy) ->
    request t node b Want_rw ~retry

(* ------------------------------------------------------------------ *)
(* Flushing and reconciliation                                         *)
(* ------------------------------------------------------------------ *)

let reconciling t =
  match t.rec_state with Some r -> r | None -> assert false

(* The phase ends once every node has joined and every sweep invalidation
   is acknowledged: no earlier than the last acknowledgement. *)
let try_finish_reconcile t =
  let r = reconciling t in
  if (not r.finished) && r.joined = Machine.nnodes t.mach
     && r.inval_acks_left = 0
  then begin
    r.finished <- true;
    Barrier.release t.mach ~style:t.barrier ~join_times:r.done_times
      ~not_before:r.last_ack_time
  end

(* Merge one returned copy into the block's pending (shadow) value: the
   reconciliation point of RSM.  Creates the epoch's clean copy on first
   touch; applies the registered reduction operator or per-word
   last-writer-wins with conflict detection. *)
let merge_flush t b data mask ~from ~epoch =
  let e = get_entry t b in
  if epoch <> Machine.epoch t.mach then
    failwith "Proto: flush from a stale epoch";
  let master = Machine.master t.mach b in
  let shadow =
    match e.shadow with
    | Some s -> s
    | None ->
      let s = Block.copy master in
      e.shadow <- Some s;
      e.shadow_mask <- Mask.empty;
      clean_copy_created t;
      s
  in
  (match Itbl.find_opt t.reductions b with
  | Some op ->
    Mask.iter mask (fun i ->
        shadow.(i) <-
          op.Reduction.combine ~clean:master.(i) ~current:shadow.(i)
            ~incoming:data.(i))
  | None ->
    let overlap = Mask.inter mask e.shadow_mask in
    if not (Mask.is_empty overlap) then begin
      Stats.Handle.incr t.hs.h_conflicts;
      if t.detection <> Detect.Off then
        t.conflicts <- { Detect.block = b; words = overlap; writer = from } :: t.conflicts
    end;
    Block.merge_masked ~src:data ~dst:shadow ~mask);
  e.shadow_mask <- Mask.union e.shadow_mask mask;
  e.lcm_holders <- ISet.remove from e.lcm_holders;
  (if t.dp.Policy.local_clean_copies && from <> home_of t b then
     e.dstate <- Shared (ISet.add from (sharers_of e.dstate)));
  Stats.Handle.incr t.hs.h_flushes_received

(* The sweep-ack handler, shared by the strict-detection and reconcile
   sweeps and applied to [t] once at [install], because the sweep sends
   one invalidation per (modified block, outstanding copy) — the dominant
   message class of write-heavy reconciliations. *)
let recv_sweep_ack_m t _hnode now b _x =
  let r = reconciling t in
  let home = home_of t b in
  r.inval_acks_left <- r.inval_acks_left - 1;
  r.last_ack_time <- Int.max r.last_ack_time now;
  r.done_times.(home) <- Int.max r.done_times.(home) now;
  try_finish_reconcile t

(* One sweep invalidation of [b]'s copy at [target], counted in [counter]
   (strict detection or reconciliation). *)
let send_sweep_inval t r b ~home ~at counter target =
  r.inval_acks_left <- r.inval_acks_left + 1;
  Stats.Handle.incr counter;
  Machine.send t.mach ~src:home ~dst:target ~words:Machine.ctrl_words
    ~tag:"inval" ~at t.h_sweep_inval Machine.no_data b home

(* Return one dirty LCM block to its [home] (passed in: this runs for
   every flushed block).  A local home merges the live line in place —
   [merge_flush] only reads [data], so a host-side copy is pure waste. *)
let rec flush_block t node b (line : Machine.line) ~home ~epoch =
  let nid = Machine.id node in
  let mask = line.Machine.dirty in
  Stats.Handle.incr t.hs.h_flush_blocks;
  if home = nid then merge_flush t b line.Machine.data mask ~from:nid ~epoch
  else begin
    let data = Block.copy line.Machine.data in
    t.pending_flush_acks.(nid) <- t.pending_flush_acks.(nid) + 1;
    Machine.send t.mach ~src:nid ~dst:home
      ~words:(Machine.data_words t.mach + 1)
      ~tag:"flush" ~at:(Machine.clock node)
      (fun _ _ now _ _ -> home_recv_flush t b data mask ~from:nid ~epoch ~now)
      Machine.no_data 0 0
  end

and home_recv_flush t b data mask ~from ~epoch ~now =
  merge_flush t b data mask ~from ~epoch;
  Machine.send t.mach ~src:(home_of t b) ~dst:from ~words:Machine.ctrl_words
    ~tag:"flush_ack" ~at:now
    (fun _ fnode now _ _ ->
      let nid = Machine.id fnode in
      t.pending_flush_acks.(nid) <- t.pending_flush_acks.(nid) - 1;
      if t.awaiting_join.(nid) && t.pending_flush_acks.(nid) = 0 then
        join_barrier t nid ~now)
    Machine.no_data 0 0

(* Node [nid] joins the reconcile barrier at [now], once all its flushes
   are acknowledged; the last join starts the sweep. *)
and join_barrier t nid ~now =
  let r = reconciling t in
  t.awaiting_join.(nid) <- false;
  r.joined <- r.joined + 1;
  r.done_times.(nid) <- Int.max r.done_times.(nid) now;
  Machine.trace_emit t.mach ~time:now
    (Machine.Trace.Barrier_enter { node = nid });
  if r.joined = Machine.nnodes t.mach then start_sweep t

(* flush_copies(): return every locally-modified LCM block to its home.
   scc drops the local copy (the next access refetches the clean value);
   mcc reinitialises it from the local clean copy and keeps it readable. *)
and flush_node t node =
  let costs = Machine.costs t.mach in
  let nid = Machine.id node in
  let epoch = Machine.epoch t.mach in
  let blocks = List.sort_uniq Int.compare !(t.pending_marks.(nid)) in
  t.pending_marks.(nid) := [];
  List.iter
    (fun b ->
      match Machine.find_line node b with
      | None -> () (* evicted mid-phase: its flush already went home *)
      | Some line when line.Machine.tag <> Tag.Lcm_modified -> ()
      | Some line ->
        if Mask.is_empty line.Machine.dirty then begin
          (* Marked but never written: the copy still equals the clean
             value, so it can simply revert to a read-only copy. *)
          line.Machine.tag <- Tag.Read_only
        end
        else begin
          let home = home_of t b in
          Machine.advance_clock node costs.Lcm_sim.Costs.local_copy;
          (* flushing a locally-homed block is a local memory operation:
             merge into the pending copy on the spot *)
          if home = nid then
            Machine.advance_clock node costs.Lcm_sim.Costs.local_copy;
          flush_block t node b line ~home ~epoch;
          if t.dp.Policy.local_clean_copies then begin
            (match line.Machine.local_clean with
            | Some clean -> Block.blit ~src:clean ~dst:line.Machine.data
            | None ->
              (* An implicit mark on a block fetched before the policy took
                 effect cannot happen: mcc snapshots at every mark/fill. *)
              assert false);
            line.Machine.tag <- Tag.Read_only;
            line.Machine.dirty <- Mask.empty;
            Stats.Handle.incr t.hs.h_local_restores;
            Machine.advance_clock node costs.Lcm_sim.Costs.local_copy
          end
          else Machine.drop_line node b
        end)
    blocks

(* Promote shadows to the new global state and invalidate outstanding
   copies of every modified block.  The sweep leaves at the last join (no
   sweep ack has raised a completion time yet), or now if the engine has
   moved past it.  It visits every entry once per reconcile, before
   Barrier.release advances the epoch, and retires each entry's per-phase
   state: the shadow, the LCM holders and the readers. *)
and start_sweep t =
  let r = reconciling t in
  let sweep_time =
    Int.max (Array.fold_left Int.max 0 r.done_times)
      (Lcm_sim.Engine.now (Machine.engine t.mach))
  in
  List.iter
    (fun e ->
      let b = e.block in
      let home = home_of t b in
      (match e.shadow with
      | None ->
        (* Strict detection (§7.3): actual races need every read-only copy
           flushed at synchronization points, so that the next phase's
           reads fault and register — otherwise a copy cached in an
           earlier phase satisfies reads invisibly. *)
        if t.detection = Detect.Strict then begin
          let targets = ISet.remove home (sharers_of e.dstate) in
          ISet.iter
            (send_sweep_inval t r b ~home ~at:sweep_time t.hs.h_strict_invals)
            targets;
          if not (ISet.is_empty targets) then home_owns t e
        end
      | Some shadow ->
        Block.blit ~src:shadow ~dst:(Machine.master t.mach b);
        e.shadow <- None;
        Stats.Handle.add t.hs.h_live_clean_copies (-1);
        Stats.Handle.incr t.hs.h_reconciled_blocks;
        if t.detection <> Detect.Off && not (ISet.is_empty e.readers) then
          t.races <-
            { Detect.block = b; readers = ISet.elements e.readers } :: t.races;
        (* Invalidate every outstanding copy; the home line re-aliases the
           new master. *)
        let targets =
          ISet.remove home (ISet.union (sharers_of e.dstate) e.lcm_holders)
        in
        if t.dp.Policy.update_on_reconcile then begin
          (* update-based reconciliation: push the new value into every
             outstanding read-only copy instead of invalidating it *)
          let fresh = Block.copy (Machine.master t.mach b) in
          ISet.iter
            (fun target ->
              r.inval_acks_left <- r.inval_acks_left + 1;
              Stats.Handle.incr t.hs.h_reconcile_updates;
              Machine.send t.mach ~src:home ~dst:target
                ~words:(Machine.data_words t.mach)
                ~tag:"update" ~at:sweep_time
                (fun _ snode now _ _ ->
                  (match Machine.find_line snode b with
                  | Some line
                    when line.Machine.tag = Tag.Read_only
                         && not (Itbl.mem t.stale_pins.(Machine.id snode) b)
                    ->
                    Block.blit ~src:fresh ~dst:line.Machine.data
                  | Some _ | None -> () (* dropped, pinned or upgraded *));
                  send_inval_ack t t.h_sweep_ack snode b ~home ~now)
                Machine.no_data 0 0)
            targets;
          (* copies stay valid: the sharer set survives reconciliation *)
          if ISet.is_empty targets then home_owns t e
          else begin
            e.dstate <- Shared targets;
            realias_home_line t b ~tag:Tag.Read_only
          end
        end
        else begin
          ISet.iter
            (send_sweep_inval t r b ~home ~at:sweep_time t.hs.h_reconcile_invals)
            targets;
          home_owns t e
        end);
      e.lcm_holders <- ISet.empty;
      e.readers <- ISet.empty)
    (entries_in_order t);
  try_finish_reconcile t

let reconcile t =
  let nnodes = Machine.nnodes t.mach in
  t.rec_state <-
    Some
      {
        joined = 0;
        done_times = Array.make nnodes 0;
        inval_acks_left = 0;
        last_ack_time = 0;
        finished = false;
      };
  for i = 0 to nnodes - 1 do
    t.awaiting_join.(i) <- true
  done;
  for i = 0 to nnodes - 1 do
    let node = Machine.node t.mach i in
    flush_node t node;
    if t.pending_flush_acks.(i) = 0 then
      join_barrier t i ~now:(Machine.clock node)
  done;
  Machine.run_to_quiescence t.mach;
  if not (reconciling t).finished then
    failwith "Proto.reconcile: barrier did not complete";
  t.rec_state <- None

(* ------------------------------------------------------------------ *)
(* Directives, eviction, installation                                  *)
(* ------------------------------------------------------------------ *)

let directive t node d ~retry =
  match d with
  | Memeff.Mark_modification addr ->
    Machine.trace_directive node "mark_modification";
    if Policy.is_lcm t.pol then
      mark t node (Gmem.block_of_addr (Machine.gmem t.mach) addr) ~retry
    else retry () (* Stache: C** code compiled for LCM run unchanged *)
  | Memeff.Flush_copies ->
    Machine.trace_directive node "flush_copies";
    if Policy.is_lcm t.pol then flush_node t node;
    retry ()
  | Stale.Pin_stale addr ->
    Machine.trace_directive node "pin_stale";
    let b = Gmem.block_of_addr (Machine.gmem t.mach) addr in
    Itbl.replace t.stale_pins.(Machine.id node) b ();
    Stats.Handle.incr t.hs.h_stale_pins;
    retry ()
  | Stale.Refresh addr ->
    Machine.trace_directive node "refresh";
    let b = Gmem.block_of_addr (Machine.gmem t.mach) addr in
    let nid = Machine.id node in
    Itbl.remove t.stale_pins.(nid) b;
    (match Machine.find_line node b with
    | Some line when not line.Machine.is_home_line ->
      Machine.drop_line node b;
      Stats.Handle.incr t.hs.h_stale_refreshes
    | Some _ | None -> ());
    retry ()
  | _ -> failwith "Proto: unknown memory-system directive"

let evict t node b line =
  let nid = Machine.id node in
  let home = home_of t b in
  match line.Machine.tag with
  | Tag.Invalid -> ()
  | Tag.Read_only ->
    Machine.send t.mach ~src:nid ~dst:home ~words:Machine.ctrl_words
      ~tag:"evict_ro" ~at:(Machine.clock node)
      (fun _ _ _ _ _ ->
        let e = get_entry t b in
        match e.dstate with
        | Shared s -> e.dstate <- Shared (ISet.remove nid s)
        | Home_owned | Exclusive _ -> ())
      Machine.no_data 0 0
  | Tag.Writable -> send_put t node b line ~mark:false ~at:(Machine.clock node)
  | Tag.Lcm_modified ->
    if not (Mask.is_empty line.Machine.dirty) then
      flush_block t node b line ~home ~epoch:(Machine.epoch t.mach)

let touch_entry t b = ignore (get_entry t b)

let register_reduction t ~base ~nwords op =
  List.iter
    (fun b -> Itbl.replace t.reductions b op)
    (Gmem.region_blocks (Machine.gmem t.mach) base ~nwords)

let conflicts t = List.rev t.conflicts
let races t = List.rev t.races

let check_invariants t report =
  let err fmt = Printf.ksprintf report fmt in
  let nnodes = Machine.nnodes t.mach in
  let parallel = Machine.phase t.mach = `Parallel in
  List.iter
    (fun e ->
      let b = e.block in
      let home = home_of t b in
      let master = Machine.master t.mach b in
      (if e.busy <> None then err "block %d: busy transaction while quiescent" b);
      (if not (Queue.is_empty e.waiting) then
         err "block %d: %d queued waiters while quiescent" b
           (Queue.length e.waiting));
      (if (not parallel) && e.shadow <> None then
         err "block %d: pending shadow outside a parallel phase" b);
      (if (not parallel) && not (ISet.is_empty e.lcm_holders) then
         err "block %d: LCM holders outside a parallel phase" b);
      (match e.dstate with
      | Exclusive owner ->
        (if owner = home then err "block %d: home listed as remote owner" b);
        (match Machine.find_line (Machine.node t.mach owner) b with
        | Some line when line.Machine.tag = Tag.Writable -> ()
        | Some line ->
          err "block %d: owner %d holds a %s line, not Writable" b owner
            (Tag.to_string line.Machine.tag)
        | None -> err "block %d: owner %d holds no line" b owner);
        for nid = 0 to nnodes - 1 do
          if nid <> owner then
            match Machine.find_line (Machine.node t.mach nid) b with
            | Some line when Tag.readable line.Machine.tag ->
              err "block %d: node %d holds a copy while %d is exclusive" b nid
                owner
            | Some _ | None -> ()
        done
      | Shared sharers ->
        ISet.iter
          (fun nid ->
            if nid < 0 || nid >= nnodes then
              err "block %d: sharer %d out of range" b nid
            else
              match Machine.find_line (Machine.node t.mach nid) b with
              | Some line when line.Machine.tag = Tag.Writable ->
                err "block %d: sharer %d holds a Writable line" b nid
              | Some line
                when line.Machine.tag = Tag.Read_only && (not parallel)
                     && not (Block.equal line.Machine.data master) ->
                err "block %d: sharer %d's read-only copy differs from master"
                  b nid
              | Some _ | None -> () (* dropped/evicted copies are fine *))
          sharers
      | Home_owned -> ());
      (* the home backing line, unless privately marked, mirrors the master *)
      (match Machine.find_line (Machine.node t.mach home) b with
      | Some line
        when line.Machine.tag <> Tag.Lcm_modified
             && Tag.readable line.Machine.tag
             && not (Block.equal line.Machine.data master) ->
        err "block %d: home backing line differs from master" b
      | Some _ | None -> ());
      (* no node but the home may hold an unmarked Writable copy unless the
         directory says so *)
      for nid = 0 to nnodes - 1 do
        if nid <> home then
          match Machine.find_line (Machine.node t.mach nid) b with
          | Some line when line.Machine.tag = Tag.Writable -> (
            match e.dstate with
            | Exclusive o when o = nid -> ()
            | _ -> err "block %d: node %d holds Writable without ownership" b nid)
          | Some line
            when line.Machine.tag = Tag.Lcm_modified && not parallel ->
            err "block %d: node %d holds an LCM copy outside a parallel phase" b
              nid
          | Some _ | None -> ()
      done)
    (entries_in_order t)

let peek t b off =
  match Itbl.find_opt t.entries b with
  | Some { dstate = Exclusive owner; _ } -> (
    match Machine.find_line (Machine.node t.mach owner) b with
    | Some line -> line.Machine.data.(off)
    | None -> (Machine.master t.mach b).(off))
  | Some _ | None -> (Machine.master t.mach b).(off)

let poke t b off v =
  (match Itbl.find_opt t.entries b with
  | Some e -> (
    match (e.dstate, e.shadow) with
    | Home_owned, None -> ()
    | _ -> failwith "Proto.poke: block has outstanding copies")
  | None -> ());
  (Machine.master t.mach b).(off) <- v

let install ?(detection = Detect.Off) ?(barrier = Barrier.Constant)
    ~policy:pol mach =
  let dp =
    match pol.Policy.family with
    | Policy.Directory d -> d
    | Policy.Snoop _ ->
      invalid_arg "Proto_dir.install: snooping policies ride the bus engine"
  in
  if detection = Detect.Strict && dp.Policy.update_on_reconcile then
    invalid_arg
      "Proto.install: strict detection is incompatible with update-based \
       reconciliation (updated copies satisfy reads without faulting, so \
       races would go unrecorded)";
  let nnodes = Machine.nnodes mach in
  let rec t =
    {
      mach;
      pol;
      dp;
      hs = resolve_handles (Machine.stats mach);
      barrier;
      detection;
      entries = Itbl.create 16;
      reductions = Itbl.create 64;
      pending_marks = Array.init nnodes (fun _ -> ref []);
      pending_flush_acks = Array.make nnodes 0;
      awaiting_join = Array.make nnodes false;
      stale_pins = Array.init nnodes (fun _ -> Itbl.create 8);
      conflicts = [];
      races = [];
      rec_state = None;
      h_data = (fun d n now b x -> recv_data_m t d n now b x);
      h_get = (fun _ n now b x -> recv_get_m t n now b x);
      h_recall = (fun _ n now b x -> recv_recall_m t n now b x);
      h_inval = (fun _ n now b x -> recv_inval_m t t.h_inval_ack n now b x);
      h_inval_ack = (fun _ n now b x -> recv_inval_ack_serve_m t n now b x);
      h_sweep_inval = (fun _ n now b x -> recv_inval_m t t.h_sweep_ack n now b x);
      h_sweep_ack = (fun _ n now b x -> recv_sweep_ack_m t n now b x);
    }
  in
  Machine.install mach
    {
      read_fault = read_fault t;
      write_fault = write_fault t;
      directive = directive t;
      evict = evict t;
      read_hit =
        (if detection = Detect.Off then None
         else
           (* Home reads hit the always-readable backing line and never
              fault, so they are invisible to [serve]; without this
              observer a race where the home reads a block another node
              LCM-modifies in the same phase goes unreported.  The tag
              filter keeps the home's own mark-and-write accesses (its
              line re-aliased as Lcm_modified) from counting the writer
              as its own reader. *)
           Some
             (fun node b line ->
               if
                 line.Machine.is_home_line
                 && line.Machine.tag <> Tag.Lcm_modified
                 && Machine.id node = home_of t b
               then note_reader t (get_entry t b) (Machine.id node)));
      home_backing = true;
    };
  t
