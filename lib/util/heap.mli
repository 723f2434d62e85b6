(** Binary min-heap keyed by integer priorities, with stable FIFO order
    among equal keys.

    Used as the event queue of the discrete-event simulator: events scheduled
    for the same simulated time are delivered in insertion order, which keeps
    simulations deterministic. *)

type 'a t
(** A mutable min-heap holding values of type ['a]. *)

val create : ?hint:int -> unit -> 'a t
(** [create ?hint ()] is a fresh empty heap.  [hint] (default 16) is the
    capacity of the first backing allocation — a caller that knows its
    steady-state occupancy skips the grow-and-copy ladder from 16 upward.
    Arrays are not allocated until the first {!add}, so an over-hinted
    heap that stays empty costs nothing.  Growth past the hint still
    doubles.
    @raise Invalid_argument if [hint] is not positive. *)

val length : 'a t -> int
(** [length h] is the number of elements currently in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val add : 'a t -> key:int -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key].  Smaller keys pop
    first; among equal keys, values pop in the order they were added
    (each insertion is stamped with an internal sequence number and ties
    break on it — FIFO among equals is a guarantee, not an accident of
    sift order).  A popped value added again is a new insertion: it pops
    after every value already queued at its key. *)

val pop : 'a t -> (int * 'a) option
(** [pop h] removes and returns the minimum-key element, or [None] if the
    heap is empty. *)

val top_key : 'a t -> int
(** [top_key h] is the smallest key in [h].
    @raise Invalid_argument if [h] is empty. *)

val pop_exn : 'a t -> 'a
(** [pop_exn h] removes and returns the minimum-key element's value
    without allocating.  Use [top_key] first to read its key.
    @raise Invalid_argument if [h] is empty. *)

val clear : 'a t -> unit
(** [clear h] removes every element.  The heap's internal capacity is
    retained, so a clear-then-refill cycle does not reallocate. *)
