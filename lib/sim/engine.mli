(** Discrete-event simulation core.

    The engine owns the simulated clock and a queue of timestamped events.
    Every cross-node interaction in the simulator — message delivery,
    barrier release, scheduled callbacks — flows through this queue, which
    makes runs fully deterministic: events at equal times fire in the order
    they were scheduled. *)

type t

exception Budget_exhausted of { events : int; now : int }
(** Raised by {!step} when the ambient cell budget's simulated-event cap is
    hit: [events] is the cap, [now] the clock of the engine being stepped.
    Deterministic — a given cell raises at the same event count and clock
    no matter what runs on other domains. *)

val with_budget :
  ?max_events:int -> ?guard:(unit -> unit) -> (unit -> 'a) -> 'a
(** [with_budget ?max_events ?guard f] runs [f] with an ambient,
    domain-local budget charged by {e every} engine created inside [f] —
    workloads that build machines internally are still covered.
    [max_events] caps the total simulated events processed; exceeding it
    raises {!Budget_exhausted} before the offending event runs, leaving the
    engine consistent.  [guard] is called every few thousand events and may
    raise to abort on host-side criteria (a fleet's wall-clock limit; the
    engine itself never reads host time).
    Budgets nest; the previous ambient budget is restored on exit.  Engines
    created {e before} the call are not charged.
    @raise Invalid_argument if [max_events] is negative. *)

val create : unit -> t
(** A fresh engine with the clock at cycle 0 and no pending events.  Its
    event queue starts small and doubles as events arrive.  If an ambient
    {!with_budget} scope is active on this domain, the engine charges
    that budget for every event it processes. *)

val now : t -> int
(** Current simulated time, in cycles. *)

val schedule_call :
  t -> ?owner:int -> at:int -> ('a -> int -> int -> unit) -> 'a -> int -> int
  -> unit
(** [schedule_call e ?owner ~at h p i1 i2] runs [h p i1 i2] when the
    clock reaches [at].  This is the engine's one event form: every event
    is a pooled record carrying a handler, its payload [p] and two
    unboxed ints (an arrival time, a node id).  [h] is meant to be a
    {e preallocated} handler (one closure per network / machine /
    protocol instance, not per event); nothing is then allocated per
    call.
    [owner] is an ownership hint: the simulated node the event belongs to
    (a message's destination, a timer's node).  It never affects execution
    order; a choice hook (see {!set_choice_hook}) receives it as the
    event's footprint, which {!Lcm_check}'s partial-order reduction uses
    to tell independent events apart.
    @raise Invalid_argument if [at] is in the past. *)

val schedule : t -> ?owner:int -> at:int -> (unit -> unit) -> unit
(** [schedule e ?owner ~at f] runs [f ()] when the clock reaches [at]:
    {!schedule_call} with a fixed handler that applies its payload, so a
    closure event is the same pooled record and follows the same ordering
    and budget rules.  The closure [f] is the caller's own allocation —
    cold paths (timers, tests) only.
    @raise Invalid_argument if [at] is in the past. *)

val step : t -> bool
(** Process the single earliest pending event, advancing the clock to its
    timestamp.  Returns [false] when no event is pending.  A budget raise
    happens {e before} the event is dequeued: the event is still queued
    and the clock unmoved.  A body that raises has still consumed its own
    event: the clock stands at its timestamp and the rest of the queue is
    untouched. *)

val run : ?limit:int -> t -> unit
(** [run e] processes events until the queue drains.  [limit] bounds the
    number of events processed (default: unlimited); exhausting it while
    events remain pending raises [Failure], which flags runaway
    simulations in tests.  A budget that runs out exactly as the queue
    empties (including [~limit:0] on an idle engine) returns normally.
    @raise Invalid_argument if [limit] is negative (matching
    {!with_budget}; a negative limit used to behave as unlimited). *)

(** {1 Choice-point hook (used by {!Lcm_check} — model checking)} *)

val set_choice_hook : t -> (int array -> int) option -> unit
(** [set_choice_hook e (Some pick)] makes {!step} consult [pick] for the
    commit order of events that tie at the minimal timestamp — the only
    nondeterminism a deterministic-seed simulation has left, and hence
    the complete interleaving space a model checker must enumerate.

    When two or more events tie at the minimal key, all of them are
    dequeued and presented to [pick] as an array of owners in FIFO
    order: an owner is the scheduling ownership hint (a delivery's
    destination node, a timer's node; [-1] when the scheduler had
    none).  [pick] returns the index of the event to commit; the rest
    are re-queued in the same order before it runs, so they commit
    before anything it schedules at the same time, and choosing index 0
    everywhere reproduces the default FIFO run exactly.  A sole event
    commits without a call; {!events_processed} counts every commit.

    The hook path allocates per tie; install it for checking, never for
    benchmarked runs.
    @raise Invalid_argument (from {!step}) if [pick] returns an
    out-of-range index. *)

val pending : t -> int
(** Number of events waiting in the queue. *)

val events_processed : t -> int
(** Total events processed since creation. *)

val domain_events : unit -> int
(** Events processed by engines created on {e this} domain.  Sample
    before/after a cell inside a fleet worker to attribute events to it
    without seeing sibling cells on other domains. *)
