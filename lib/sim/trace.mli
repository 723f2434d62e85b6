(** Bounded ring of typed simulation events.

    Every layer of the simulator (network, Tempest machine, protocol)
    emits structured events into the same ring when tracing is enabled:
    message sends/receipts with tag, size and channel; access faults;
    directive executions; barrier joins and releases; epoch advances;
    protocol-handler occupancy intervals.  The ring has fixed capacity and
    evicts the oldest events, so it is cheap enough to leave on for
    post-mortem debugging (a deadlocked simulation dumps the tail) and
    rich enough to export as a Chrome [trace_event] timeline
    (see {!Lcm_harness.Traceview}).  Disabled by default. *)

type fault_kind = Read | Write

type event =
  | Msg_send of { tag : string; src : int; dst : int; words : int }
      (** Message injected on channel [(src, dst)]. *)
  | Msg_recv of { tag : string; src : int; dst : int; words : int }
      (** Message delivered; recorded at its arrival time. *)
  | Msg_drop of { tag : string; src : int; dst : int; words : int }
      (** Message lost to fault injection (random drop or link-down window);
          recorded at the time the loss was decided. *)
  | Msg_retx of { tag : string; src : int; dst : int; words : int; attempt : int }
      (** Reliable-transport retransmission: attempt number [attempt] (2 =
          first retransmit) of an unacknowledged message. *)
  | Fault of { kind : fault_kind; node : int; addr : int; block : int }
      (** Access-control violation trapped on [node]. *)
  | Directive of { node : int; name : string }
      (** Memory-system directive executed ([mark_modification], ...). *)
  | Barrier_enter of { node : int }
      (** [node] joined the reconciliation barrier. *)
  | Barrier_release of { nnodes : int }
      (** The reconciliation barrier released all [nnodes] nodes. *)
  | Epoch_advance of { epoch : int }  (** The phase epoch advanced to [epoch]. *)
  | Handler of { node : int; finish : int }
      (** Protocol-handler occupancy on [node] from the record time to
          [finish]. *)
  | Note of string  (** Freeform annotation (see {!Lcm_tempest.Machine.tracef}). *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val emit : t -> time:int -> event -> unit
(** Append an event, evicting the oldest when full. *)

val record : t -> time:int -> string -> unit
(** [record t ~time s] is [emit t ~time (Note s)]. *)

val recorded : t -> int
(** Total events ever recorded (including evicted ones). *)

val events : t -> (int * event) list
(** The retained [(time, event)] pairs, oldest first. *)

val render : event -> string
(** One-line human rendering (used by {!dump}). *)

val dump : (int * event) list -> string list
(** Render [(time, event)] pairs (as returned by {!events}), in order,
    each as ["\[t=<time>\] <event>"]. *)
