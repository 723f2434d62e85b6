(** Free-list object pool for high-churn mutable records.

    The simulator's steady state recycles a small working set of records
    (engine events and machine message cells) instead of allocating a
    fresh one per operation — the allocation discipline described in
    DESIGN.md §"Host allocation discipline".

    A pool never shrinks: records released at peak churn stay cached for
    the rest of the run.  Pools are single-domain objects, like the
    engine that owns them. *)

type 'a t

val debug : bool ref
(** When set, every {!release} poisons the record (via the pool's
    [poison] action) and scans the free list to reject double releases
    with [Invalid_argument].  Off by default: the scan is O(free-list).
    Tests flip this to catch use-after-release aliasing. *)

val create : ?poison:('a -> unit) -> make:(unit -> 'a) -> unit -> 'a t
(** [create ?poison ~make ()] is an empty pool.  [make] constructs a
    fresh record when the free list is empty; [poison] (debug mode only)
    overwrites a released record's fields with values that fail loudly
    if the old reference is used again. *)

val acquire : 'a t -> 'a
(** Pop a recycled record, or construct one if the free list is empty.
    The record's fields hold whatever the previous user left (or the
    poison values, in debug mode): the caller initialises every field it
    reads. *)

val release : 'a t -> 'a -> unit
(** Return a record to the free list.  The caller must not touch it
    again until it is re-acquired.
    @raise Invalid_argument on double release (checked in debug mode) or
    when releases outnumber acquires. *)

val live : 'a t -> int
(** Records currently acquired.  A quiescent simulator should be back to
    a small steady count — the pool tests assert round-trip balance. *)

val created : 'a t -> int
(** Records ever constructed — the pool's total allocation footprint.
    A pooled hot path shows [created] plateauing at the peak in-flight
    count while acquire/release churn grows unbounded. *)
