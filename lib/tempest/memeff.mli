(** Effects performed by simulated computation.

    Workload code runs as an OCaml fiber; every access to the simulated
    global memory is an effect that the owning node's handler intercepts.
    A hit resumes the fiber immediately (charging CPU cycles); a tag
    violation suspends the fiber until the protocol installs the block.

    [dir] is extensible so that protocol layers can add their own
    directives (the LCM layer adds marking/flushing; the stale-data
    extension adds its own) without the Tempest layer knowing about them. *)

type dir = ..
(** Memory-system directives, dispatched to the node's registered
    directive handler. *)

type dir +=
  | Mark_modification of int
      (** [Mark_modification addr]: create an inconsistent writable copy of
          the block containing [addr] (LCM directive #1). *)
  | Flush_copies
      (** Return this node's modified copies to their homes (LCM
          directive #3); issued between parallel invocations. *)

type _ Effect.t +=
  | Load : int -> int Effect.t  (** [Load addr] reads one word. *)
  | Store : int * int -> unit Effect.t  (** [Store (addr, w)] writes one word. *)
  | Rmw : int * (int -> int) -> int Effect.t
      (** [Rmw (addr, f)] atomically replaces the word with [f old] once the
          block is locally writable, returning [old] — a fetch-and-op
          instruction.  Used by code that would otherwise need a lock. *)
  | Yield : unit Effect.t
      (** Suspend and resume through the event queue at the node's current
          clock.  Fibers otherwise run ahead of the engine between faults;
          yielding at invocation boundaries interleaves nodes in simulated-
          time order (needed for believable dynamic scheduling). *)
  | Directive : dir -> unit Effect.t

val load : int -> int
(** [load addr] performs the {!Load} effect. *)

val store : int -> int -> unit

val rmw : int -> (int -> int) -> int

val work : int -> unit
(** [work n] charges [n] units of pure compute time to the running
    machine fiber's clock, through {!fast_work}.
    @raise Invalid_argument outside a machine fiber. *)

val yield : unit -> unit

val directive : dir -> unit

(** {1 Fast-path hooks}

    Installed once by {!Machine}; not for workload code.  Each hook may
    complete the access synchronously (with side effects identical to
    the owning handler's hit path) or decline, in which case the caller
    performs the effect as usual.  The defaults always decline. *)

val fast_miss : int
(** Sentinel returned by {!fast_load} to decline.  Distinct from every
    32-bit word value; a handler that somehow produced it would merely
    fall through to the (equivalent) effect path. *)

val fast_load : (int -> int) ref
(** [!fast_load addr] is the word at [addr], or {!fast_miss} to decline. *)

val fast_store : (int -> int -> bool) ref
(** [!fast_store addr w] returns [true] iff the store completed. *)

val fast_work : (int -> bool) ref
(** [!fast_work n] returns [true] iff the compute charge completed.  There
    is no effect behind it: a declined charge makes {!work} raise. *)
