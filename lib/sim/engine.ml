type budget = {
  mutable events_left : int;  (* events remaining before Budget_exhausted *)
  max_events : int option;
  guard : (unit -> unit) option;  (* host-side check, called every [guard_stride] *)
  mutable until_guard : int;
}

exception Budget_exhausted of { events : int; now : int }

(* How many events run between calls to the wall-clock guard.  The guard
   costs a system call (gettimeofday), so it is amortized; the stride is
   small enough that a runaway cell is caught within milliseconds. *)
let guard_stride = 4096

(* The ambient budget is domain-local: a fleet worker installs one around a
   cell, and every engine the cell creates — benchmarks and the stress
   harness build machines internally — charges against the same budget.
   Engines snapshot the ambient budget at creation, so the per-event check
   is a field read, not a DLS lookup. *)
let ambient_budget : budget option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_budget ?max_events ?guard f =
  (match max_events with
  | Some n when n < 0 -> invalid_arg "Engine.with_budget: max_events < 0"
  | Some _ | None -> ());
  let cell = Domain.DLS.get ambient_budget in
  let saved = !cell in
  let b =
    {
      events_left = (match max_events with Some n -> n | None -> max_int);
      max_events;
      guard;
      until_guard = guard_stride;
    }
  in
  cell := Some b;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* Per-domain event tallies: each domain owns one cell, so fleet workers
   never contend on the hot path. *)
let domain_total : int Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make 0)

let domain_events () = Atomic.get (Domain.DLS.get domain_total)

(* Event representation: one shape, a pooled mutable record holding a
   *preallocated* handler, its payload and two int arguments in unboxed
   slots.  Records cycle through a per-engine free list (Lcm_util.Pool),
   so the steady state allocates nothing per event.  A closure event
   ([schedule]) is the same record with [run_thunk] as handler and the
   closure as payload.

   This is the one place in the simulator that erases types.  The handler
   and payload are stored as [Obj.t] because the queue holds events of
   every payload type at once and the record must be reusable across
   them: [schedule_call] pairs [h] and [p] under one type variable at the
   call site, and [run_event] applies exactly the pair that was
   type-checked together — the classic existential encoding, never
   exposed to callers.  A GADT existential would be type-safe but
   immutable, hence one fresh record per event; the network, bus and
   machine layers build on this one pooled record instead of keeping
   erased cells of their own.  A released record carries [dead_h], so
   executing one is a use-after-release bug that fails loudly. *)

type ev = {
  mutable hnd : Obj.t;  (* the handler: 'a -> int -> int -> unit *)
  mutable pay : Obj.t;  (* its payload: the handler's 'a *)
  mutable i1 : int;
  mutable i2 : int;
  mutable own : int;  (* ownership hint from the scheduler; -1 = unknown *)
}

let dead_h _ _ _ =
  failwith "Engine: released event reached execution (pool misuse)"
let dead_hnd = Obj.repr dead_h
let unit_obj = Obj.repr ()
let make_ev () = { hnd = dead_hnd; pay = unit_obj; i1 = 0; i2 = 0; own = -1 }

let poison_ev ev =
  ev.hnd <- dead_hnd;
  ev.pay <- unit_obj

type t = {
  queue : ev Lcm_util.Heap.t;
  pool : ev Lcm_util.Pool.t;
  mutable now : int;
  mutable processed : int;
  tally : int Atomic.t;  (* this domain's event cell, snapshotted at create *)
  budget : budget option;  (* ambient cell budget at creation time, if any *)
  mutable chooser : (int array -> int) option;
      (* model-checker hook: when two or more events tie at the
         minimal timestamp, the hook picks which one commits next.
         Candidates are presented as their owners in FIFO order; the
         hook returns an index.  A sole event commits unasked. *)
}

(* The queue starts at the heap's default 16 slots and doubles, so a
   small machine's queue lives and dies in the minor heap with the rest
   of the machine.  A larger first allocation would not: an array over
   256 words goes straight to the major heap, and [Array.make] of one
   with a young fill value (the first event) forces a minor collection,
   which promotes the machine just built (DESIGN §9 "Machine
   construction"). *)
let create () =
  {
    queue = Lcm_util.Heap.create ();
    pool = Lcm_util.Pool.create ~poison:poison_ev ~make:make_ev ();
    now = 0;
    processed = 0;
    tally = Domain.DLS.get domain_total;
    budget = !(Domain.DLS.get ambient_budget);
    chooser = None;
  }

let now e = e.now

let check_at e at =
  if at < e.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%d is before now=%d" at e.now)

(* [owner] is the simulated node the event belongs to, when the caller
   knows it (a delivery's destination, a timer's node).  It never affects
   execution order; the choice hook hands it to Lcm_check as the event's
   DPOR footprint. *)
let enqueue e ~owner ~at ev =
  ev.own <- (match owner with Some o -> o | None -> -1);
  Lcm_util.Heap.add e.queue ~key:at ev

let schedule_call (type a) e ?owner ~at (h : a -> int -> int -> unit) (p : a)
    i1 i2 =
  check_at e at;
  let ev = Lcm_util.Pool.acquire e.pool in
  ev.hnd <- Obj.repr h;
  ev.pay <- Obj.repr p;
  ev.i1 <- i1;
  ev.i2 <- i2;
  enqueue e ~owner ~at ev

(* Release before run: the record is back on the free list while the
   body executes, so a body that schedules new events can recycle it
   immediately, and a body that raises has still consumed its event,
   with no Fun.protect closure on the hot path. *)
let run_event e ev =
  let h : Obj.t -> int -> int -> unit = Obj.obj ev.hnd in
  let p = ev.pay and a = ev.i1 and b = ev.i2 in
  poison_ev ev;
  Lcm_util.Pool.release e.pool ev;
  h p a b

let run_thunk f _ _ = f ()
let schedule e ?owner ~at f = schedule_call e ?owner ~at run_thunk f 0 0

let set_choice_hook e hook = e.chooser <- hook

(* Budget enforcement happens before the event is popped, so a raise leaves
   the engine consistent (clock unmoved, event still queued) and fires at a
   deterministic point: the same simulated event count and clock regardless
   of how many sibling cells run on other domains. *)
let check_budget e =
  match e.budget with
  | None -> ()
  | Some b ->
    if b.events_left <= 0 then
      raise
        (Budget_exhausted
           {
             events = (match b.max_events with Some n -> n | None -> max_int);
             now = e.now;
           });
    b.events_left <- b.events_left - 1;
    (match b.guard with
    | None -> ()
    | Some g ->
      b.until_guard <- b.until_guard - 1;
      if b.until_guard <= 0 then begin
        b.until_guard <- guard_stride;
        g ()
      end)

let pending e = Lcm_util.Heap.length e.queue

(* Commit one already-dequeued event: advance the clock, account it, run
   the body.  Shared by the plain and the choice-hook [step]. *)
let commit e ~at ev =
  e.now <- at;
  e.processed <- e.processed + 1;
  Atomic.incr e.tally;
  run_event e ev

(* One step under a choice hook: pop every event tied at the minimal
   timestamp [t0].  A sole event commits unasked.  Otherwise the hook
   picks one, and the rest go back with a plain [add], in the order they
   came out, before the winner runs.  No event is left queued at [t0], so
   the losers pop again first and in their FIFO order, ahead of whatever
   the winner schedules at [t0], as they would have without the hook.
   This path allocates per tie; it exists for the model checker, not for
   benchmarked runs. *)
let step_choice e choose =
  check_budget e;
  let q = e.queue in
  let t0 = Lcm_util.Heap.top_key q in
  let first = Lcm_util.Heap.pop_exn q in
  if Lcm_util.Heap.is_empty q || Lcm_util.Heap.top_key q <> t0 then
    commit e ~at:t0 first
  else begin
    let ties = ref [ first ] in
    while (not (Lcm_util.Heap.is_empty q)) && Lcm_util.Heap.top_key q = t0 do
      ties := Lcm_util.Heap.pop_exn q :: !ties
    done;
    let ties = Array.of_list (List.rev !ties) in
    let n = Array.length ties in
    let k = choose (Array.map (fun ev -> ev.own) ties) in
    if k < 0 || k >= n then
      invalid_arg
        (Printf.sprintf "Engine: choice hook returned %d with %d candidates" k
           n);
    Array.iteri
      (fun i ev -> if i <> k then Lcm_util.Heap.add q ~key:t0 ev)
      ties;
    commit e ~at:t0 ties.(k)
  end

let step e =
  if Lcm_util.Heap.is_empty e.queue then false
  else begin
    (match e.chooser with
    | Some choose -> step_choice e choose
    | None ->
      check_budget e;
      let t = Lcm_util.Heap.top_key e.queue in
      let ev = Lcm_util.Heap.pop_exn e.queue in
      commit e ~at:t ev);
    true
  end

let run ?limit e =
  (match limit with
  | Some n when n < 0 -> invalid_arg "Engine.run: limit < 0"
  | Some _ | None -> ());
  let budget = match limit with None -> max_int | Some n -> n in
  let rec loop remaining =
    if remaining = 0 then begin
      (* An exhausted budget over an already-empty queue is a completed
         run, not a failure — only pending work makes the limit an error. *)
      if Lcm_util.Heap.length e.queue > 0 then
        failwith
          (Printf.sprintf
             "Engine.run: event limit exhausted at t=%d (%d pending)" e.now
             (Lcm_util.Heap.length e.queue))
    end
    else if step e then loop (remaining - 1)
  in
  loop budget

let events_processed e = e.processed
