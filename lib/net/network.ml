module Rng = Lcm_util.Rng
module Stats = Lcm_util.Stats
module Itbl = Lcm_util.Itbl

exception
  Net_unreachable of { src : int; dst : int; tag : string; attempts : int }

let () =
  Printexc.register_printer (function
    | Net_unreachable { src; dst; tag; attempts } ->
      Some
        (Printf.sprintf "net unreachable: %s %d->%d gave up after %d attempts"
           tag src dst attempts)
    | _ -> None)

type fate = Deliver | Drop | Dup

(* Sender-side state of one in-flight reliable message, one record per
   message: acks from duplicate copies can land after the message is
   done, and they only ever write into their own message's record. *)
type rel_pending = { mutable acked : bool; mutable attempt : int }

type t = {
  engine : Lcm_sim.Engine.t;
  costs : Lcm_sim.Costs.t;
  stats : Lcm_util.Stats.t;
  topology : Topology.t;
  nnodes : int;
  channel_free : int array;
      (* channel (src * nnodes + dst) -> time the link is free again: the
         previous message's arrival plus its transmission time.  Flat
         array: every message send reads and writes exactly one slot, so a
         hashed pair key would be pure overhead. *)
  msgs : Stats.Handle.counter;
  words_sent : Stats.Handle.counter;
  channel_stall : Stats.Handle.sample;
  tag_counters : (string, Stats.Handle.counter) Hashtbl.t;
      (* memoized "msg.<tag>" handles; tags are a small fixed vocabulary *)
  mutable trace : Lcm_sim.Trace.t option;
  (* --- fault injection + reliable transport (unused without a plan) --- *)
  faults : Faults.t option;
  frng : Rng.t;
      (* one stream for every fault decision; the simulation is
         single-threaded, so draw order — and hence the whole fault
         pattern — is a deterministic function of (workload, plan) *)
  rel_next : int array;  (* per channel: next seq to assign *)
  rel_expected : int array;  (* per channel: next seq to deliver *)
  rel_held : (int -> unit) Itbl.t;
      (* channel lsl 40 + seq -> application delivery, parked until the
         sequence gap below it is filled.  Packed int key: channels are
         < 2^20 (nnodes^2, nnodes <= max_nodes, checked at [create]) and
         2^40 sequence numbers per channel outlast any plausible run, so
         the pair fits one immediate — no tuple allocation per lookup. *)
  mutable fate_of : (unit -> fate) option;
      (* model-checker hook: when installed, every per-copy fault decision
         is delegated to this chooser instead of the plan's RNG stream —
         no RNG is drawn, no jitter applied, and down windows are not
         consulted, so the chooser is the single replayable source of
         fault truth.  Only consulted on paths a fault plan enables. *)
  h_drops : Stats.Handle.counter;
  h_dups : Stats.Handle.counter;
  h_retx : Stats.Handle.counter;
  h_timeouts : Stats.Handle.counter;
  h_dup_suppressed : Stats.Handle.counter;
  retx_backoff : Stats.Handle.sample;
}

let max_nodes = 1024

let create ?faults ~engine ~costs ~stats ~topology ~nnodes () =
  if nnodes < 1 || nnodes > max_nodes then
    invalid_arg
      (Printf.sprintf
         "Network.create: nnodes=%d outside [1, %d] (the reliable \
          transport's reorder key packs the channel into 20 bits)"
         nnodes max_nodes);
  {
    engine;
    costs;
    stats;
    topology;
    nnodes;
    channel_free = Array.make (nnodes * nnodes) 0;
    msgs = Stats.counter stats "net.msgs";
    words_sent = Stats.counter stats "net.words";
    channel_stall = Stats.sample stats "net.channel_stall_cycles";
    tag_counters = Hashtbl.create 32;
    trace = None;
    faults;
    frng =
      Rng.create
        ~seed:(match faults with Some p -> p.Faults.seed | None -> 0);
    rel_next = Array.make (nnodes * nnodes) 0;
    rel_expected = Array.make (nnodes * nnodes) 0;
    rel_held = Itbl.create 16;
    h_drops = Stats.counter stats "fault.drops";
    h_dups = Stats.counter stats "fault.dups";
    h_retx = Stats.counter stats "fault.retransmits";
    h_timeouts = Stats.counter stats "fault.timeouts";
    h_dup_suppressed = Stats.counter stats "fault.dup_suppressed";
    retx_backoff = Stats.sample stats "net.retx_backoff_cycles";
    fate_of = None;
  }

let faults t = t.faults

let set_fault_chooser t c = t.fate_of <- c

let set_trace t trace = t.trace <- trace

let latency t ~src ~dst ~words =
  if src = dst then t.costs.Lcm_sim.Costs.msg_fixed
  else
    let hops = Topology.hops t.topology ~src ~dst in
    t.costs.Lcm_sim.Costs.msg_fixed
    + (hops * t.costs.Lcm_sim.Costs.msg_per_hop)
    + (words * t.costs.Lcm_sim.Costs.msg_per_word)

let transmission_time t ~words =
  Int.max 1 (words * t.costs.Lcm_sim.Costs.msg_per_word)

let tag_counter t tag =
  match Hashtbl.find_opt t.tag_counters tag with
  | Some h -> h
  | None ->
    let h = Stats.counter t.stats ("msg." ^ tag) in
    Hashtbl.add t.tag_counters tag h;
    h

let validate t ~src ~dst ~words ~at =
  if src < 0 || src >= t.nnodes then invalid_arg "Network.send: src out of range";
  if dst < 0 || dst >= t.nnodes then invalid_arg "Network.send: dst out of range";
  if words <= 0 then invalid_arg "Network.send: words must be positive";
  if at < 0 then invalid_arg "Network.send: at must be >= 0"

let count t ~words tag =
  Stats.Handle.incr t.msgs;
  Stats.Handle.add t.words_sent words;
  match tag with
  | Some tag -> Stats.Handle.incr (tag_counter t tag)
  | None -> ()

(* Schedule one copy's delivery, where [h p arrival x] runs.  Untraced,
   the caller's triple rides the pooled engine event, so a message
   allocates nothing.  A traced send stamps Msg_send at the actual
   injection time — when the channel (or the engine clamp) delays the
   message, [at] would predate the link being free and the trace would
   show impossible overlaps — and falls back to a closure that re-reads
   [t.trace] at delivery (it must emit Msg_recv with the message's
   identity, which the int slots cannot carry).  The delivery is owned by
   [dst], the node whose state the model checker's DPOR footprint says it
   touches (for loopback, the sender's own work). *)
let[@inline] deliver t ~src ~dst ~words ~tag ~lat ~arrival h p x =
  match t.trace with
  | None ->
    Lcm_sim.Engine.schedule_call t.engine ~owner:dst ~at:arrival h p arrival x
  | Some tr ->
    let tag_name = Option.value tag ~default:"-" in
    Lcm_sim.Trace.emit tr ~time:(arrival - lat)
      (Lcm_sim.Trace.Msg_send { tag = tag_name; src; dst; words });
    Lcm_sim.Engine.schedule t.engine ~owner:dst ~at:arrival (fun () ->
        (match t.trace with
        | Some tr ->
          Lcm_sim.Trace.emit tr ~time:arrival
            (Lcm_sim.Trace.Msg_recv { tag = tag_name; src; dst; words })
        | None -> ());
        h p arrival x)

(* Node-local traffic never touches the interconnect: it pays the fixed
   protocol handoff cost and neither occupies a channel nor suffers
   faults. *)
let loopback t ~src ~words ?tag ~at h p x =
  count t ~words tag;
  let lat = t.costs.Lcm_sim.Costs.msg_fixed in
  let arrival = Int.max (at + lat) (Lcm_sim.Engine.now t.engine) in
  deliver t ~src ~dst:src ~words ~tag ~lat ~arrival h p x

(* One physical copy onto the wire: latency, channel occupancy, trace. *)
let inject t ~src ~dst ~words ~tag ~at h p x =
  count t ~words tag;
  let channel = (src * t.nnodes) + dst in
  (* FIFO with bandwidth: the channel stays occupied for the previous
     message's transmission time, so back-to-back messages arrive spaced
     by at least the earlier message's size — not a fixed 1 cycle. *)
  let earliest = Array.unsafe_get t.channel_free channel in
  let lat = latency t ~src ~dst ~words in
  let raw_arrival = at + lat in
  let arrival =
    (* The engine cannot schedule into the past; a sender's local clock can
       lag the engine when it reacts to an old event, so clamp. *)
    Int.max (Int.max raw_arrival earliest) (Lcm_sim.Engine.now t.engine)
  in
  let stall = arrival - raw_arrival in
  if stall > 0 then
    Stats.Handle.observe t.channel_stall (float_of_int stall);
  Array.unsafe_set t.channel_free channel (arrival + transmission_time t ~words);
  deliver t ~src ~dst ~words ~tag ~lat ~arrival h p x

(* The lossy layer: decide each copy's fate from the plan's RNG stream,
   then inject the survivors.  Dropped copies are lost at injection — they
   never occupy the channel (the loss is modeled at the sender's network
   interface, keeping the surviving traffic's timing independent of how
   many ghosts preceded it).  Channel occupancy is monotone, so even
   jittered copies keep per-channel FIFO; only drops + retransmission can
   reorder, which the reliable layer's sequence numbers absorb. *)
let drop_copy t ~src ~dst ~words ~tag ~t_decide =
  Stats.Handle.incr t.h_drops;
  match t.trace with
  | Some tr ->
    Lcm_sim.Trace.emit tr ~time:t_decide
      (Lcm_sim.Trace.Msg_drop
         { tag = Option.value tag ~default:"-"; src; dst; words })
  | None -> ()

let faulty_send t (plan : Faults.t) ~src ~dst ~words ~tag ~at h p x =
  match t.fate_of with
  | Some choose -> (
    (* Deterministic fate injection: the chooser fully owns this copy's
       fate — a Dup injects two identical un-jittered copies (channel
       occupancy still spaces them), a Drop loses the copy at the
       sender's interface exactly like an RNG drop. *)
    let t_decide = Int.max at (Lcm_sim.Engine.now t.engine) in
    match choose () with
    | Deliver -> inject t ~src ~dst ~words ~tag ~at h p x
    | Drop -> drop_copy t ~src ~dst ~words ~tag ~t_decide
    | Dup ->
      Stats.Handle.incr t.h_dups;
      inject t ~src ~dst ~words ~tag ~at h p x;
      inject t ~src ~dst ~words ~tag ~at h p x)
  | None ->
  (* Straight-line per-copy decisions; the RNG draw order (drop1, dup,
     drop2, jit1, jit2) is part of the replay contract — fault patterns
     are a deterministic function of (workload, plan) and the stress
     fingerprints pin them. *)
  let t_decide = Int.max at (Lcm_sim.Engine.now t.engine) in
  let down = Faults.link_down plan ~src ~dst ~at:t_decide in
  let drop1 = plan.drop > 0.0 && Rng.float t.frng 1.0 < plan.drop in
  let dup = plan.dup > 0.0 && Rng.float t.frng 1.0 < plan.dup in
  let drop2 = dup && plan.drop > 0.0 && Rng.float t.frng 1.0 < plan.drop in
  let jit1 = if plan.jitter > 0 then Rng.int t.frng (plan.jitter + 1) else 0 in
  let jit2 =
    if dup && plan.jitter > 0 then Rng.int t.frng (plan.jitter + 1) else 0
  in
  if drop1 || down then drop_copy t ~src ~dst ~words ~tag ~t_decide
  else inject t ~src ~dst ~words ~tag ~at:(at + jit1) h p x;
  if dup then begin
    Stats.Handle.incr t.h_dups;
    if drop2 || down then drop_copy t ~src ~dst ~words ~tag ~t_decide
    else inject t ~src ~dst ~words ~tag ~at:(at + jit2) h p x
  end

let send_call t ~src ~dst ~words ?tag ~at h p x =
  validate t ~src ~dst ~words ~at;
  if src = dst then loopback t ~src ~words ?tag ~at h p x
  else (
    match t.faults with
    | None -> inject t ~src ~dst ~words ~tag ~at h p x
    | Some plan -> faulty_send t plan ~src ~dst ~words ~tag ~at h p x)

(* An ack landing: static, so acks allocate no continuation. *)
let ack_landed st _arrival _ = st.acked <- true

(* Reliable transport: sequence-numbered envelopes per channel, an ack per
   received copy (itself lossy), receiver-side dedup + in-order release,
   and sender-side timeout with exponential backoff up to the plan's retry
   cap.  Only reached with a retransmitting fault plan and [src <> dst];
   everything else is exactly [send_call] — zero envelope overhead on the
   reliable-substrate configuration the paper assumes. *)
let reliable t (plan : Faults.t) ~src ~dst ~words ~tag ~at h p x =
  let tag_name = Option.value tag ~default:"-" in
  let chan = (src * t.nnodes) + dst in
  let seq = t.rel_next.(chan) in
  t.rel_next.(chan) <- seq + 1;
  let st = { acked = false; attempt = 0 } in
  (* The base timeout: a round trip (envelope + 1-word ack) with headroom
     for jitter and channel occupancy.  A spurious retransmit is only
     wasted bandwidth (dedup absorbs it), so err short rather than long. *)
  let rto0 =
    (2 * (latency t ~src ~dst ~words + latency t ~src:dst ~dst:src ~words:1))
    + (4 * plan.jitter)
    + (4 * transmission_time t ~words)
    + 16
  in
  (* One envelope per message: its delivery handler closes over the
     sequence state, so every copy shares it. *)
  let deliver () arrival _ =
    (* Every received copy is acked — a duplicate means the previous ack
       was (or may have been) lost. *)
    faulty_send t plan ~src:dst ~dst:src ~words:1 ~tag:(Some "ack")
      ~at:arrival ack_landed st 0;
    let expected = t.rel_expected.(chan) in
    if seq < expected || Itbl.mem t.rel_held ((chan lsl 40) + seq) then
      Stats.Handle.incr t.h_dup_suppressed
    else if seq = expected then begin
      t.rel_expected.(chan) <- expected + 1;
      h p arrival x;
      let rec drain () =
        let nxt = t.rel_expected.(chan) in
        match Itbl.find_opt t.rel_held ((chan lsl 40) + nxt) with
        | Some run ->
          Itbl.remove t.rel_held ((chan lsl 40) + nxt);
          t.rel_expected.(chan) <- nxt + 1;
          run arrival;
          drain ()
        | None -> ()
      in
      drain ()
    end
    else Itbl.replace t.rel_held ((chan lsl 40) + seq) (fun a -> h p a x)
  in
  let rec transmit ~at =
    st.attempt <- st.attempt + 1;
    if st.attempt > 1 then begin
      Stats.Handle.incr t.h_retx;
      match t.trace with
      | Some tr ->
        Lcm_sim.Trace.emit tr
          ~time:(Int.max at (Lcm_sim.Engine.now t.engine))
          (Lcm_sim.Trace.Msg_retx
             { tag = tag_name; src; dst; words; attempt = st.attempt })
      | None -> ()
    end;
    faulty_send t plan ~src ~dst ~words ~tag ~at deliver () 0;
    let backoff = rto0 lsl Int.min (st.attempt - 1) 16 in
    let t_check = Int.max at (Lcm_sim.Engine.now t.engine) + backoff in
    (* owner hint: the retransmission timer lives at the sender *)
    Lcm_sim.Engine.schedule t.engine ~owner:src ~at:t_check (fun () ->
        if not st.acked then begin
          Stats.Handle.incr t.h_timeouts;
          if st.attempt > plan.max_retries then
            raise
              (Net_unreachable
                 { src; dst; tag = tag_name; attempts = st.attempt })
          else begin
            Stats.Handle.observe t.retx_backoff (float_of_int backoff);
            transmit ~at:(Lcm_sim.Engine.now t.engine)
          end
        end)
  in
  transmit ~at

(* A plan without retransmission degrades to the lossy fire-and-forget
   path: messages are lost for good, and the machine reports the drained
   queue with suspended fibers as a stall. *)
let send_reliable_call t ~src ~dst ~words ?tag ~at h p x =
  match t.faults with
  | Some plan when plan.retransmit && src <> dst ->
    validate t ~src ~dst ~words ~at;
    reliable t plan ~src ~dst ~words ~tag ~at h p x
  | Some _ | None -> send_call t ~src ~dst ~words ?tag ~at h p x
