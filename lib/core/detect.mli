(** Records produced by reconcile-time semantic-violation detection.

    Sections 7.2–7.3 of the paper: because LCM already tracks which words
    each processor modified, reconciliation can detect (a) two invocations
    writing the same word — a write/write conflict that violates C\*\*'s
    "exactly one modified value" guarantee or Steele's no-conflicting-
    side-effects semantics — and (b) a block both read and written during
    the same parallel phase — a read/write race under more traditional
    semantics.

    Reads are recorded where the protocol sees them.  A remote read
    faults and reaches the block's home.  The home node's own reads hit
    local memory without raising a protocol request, so whenever detection
    is on {!Proto_dir.install} registers a machine read observer that
    records them too.  A read satisfied by a copy cached in an {e earlier}
    phase raises no fault at all and goes unrecorded: {!Strict} detection
    flushes every read-only copy at each reconciliation so that such reads
    fault again (§7.3).  Write/write detection needs none of this — every
    modified copy flushes through reconciliation. *)

(** How much reconcile-time detection a protocol instance performs. *)
type setting =
  | Off  (** no detection: nothing recorded, no extra traffic *)
  | At_reconcile
      (** record write/write conflicts and read/write races at each
          reconciliation *)
  | Strict
      (** [At_reconcile], and flush {e every} outstanding read-only copy
          at each reconciliation, so that races involving reads cached in
          an earlier phase are also caught — "to catch actual violations,
          all read-only cache blocks must be flushed from the caches at
          synchronization points" (§7.2).  It costs extra invalidation
          traffic and re-fetches, which is why the paper reserves it for
          debugging. *)

type conflict = {
  block : int;  (** global block number *)
  words : Lcm_util.Mask.t;  (** word indices written by more than one copy *)
  writer : int;  (** the node whose flush collided *)
}

type race = {
  block : int;
  readers : int list;  (** nodes that read the block during the phase *)
}

val pp_conflict : Format.formatter -> conflict -> unit

val pp_race : Format.formatter -> race -> unit
