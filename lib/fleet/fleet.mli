(** Domain-parallel experiment orchestration.

    The paper's evaluation is a grid of {e independent} simulations —
    every (benchmark × memory-system × partitioning × scale) cell builds
    its own machine, runs it to quiescence and reads its own counters.
    This module runs such grids across OCaml 5 domains with three
    guarantees the harness relies on:

    - {b determinism}: results are keyed by cell index and returned in
      submission order, so a sweep's output is bit-identical no matter how
      many workers run it or in what order cells finish;
    - {b crash containment}: an exception in one cell is captured (with
      its backtrace) as a {!Failed} outcome and the sweep continues;
    - {b budgets}: a per-cell simulated-event cap (deterministic — it
      fires at the same simulated point at any job count) and a wall-clock
      guard, both surfacing as {!Timed_out} instead of hanging the sweep.

    Cells must be self-contained thunks: each builds its own machine /
    stats registry / trace sink and shares no mutable state with its
    siblings.  Everything in the simulator proper is per-machine, so the
    existing harness cells satisfy this by construction. *)

module Budget : sig
  type t = {
    max_events : int option;
        (** Cap on simulated engine events per cell (all engines the cell
            creates combined).  Deterministic. *)
    wall_s : float option;
        (** Host wall-clock seconds per cell; checked every few thousand
            events.  A safety net — not deterministic. *)
  }

  val none : t

  val make : ?max_events:int -> ?wall_s:float -> unit -> t
  (** @raise Invalid_argument on a non-positive cap. *)
end

type timeout = Event_budget of { events : int; at_cycle : int } | Wall_clock of { limit_s : float }

type 'a outcome =
  | Done of 'a
  | Failed of { exn : string; backtrace : string }
      (** The cell raised: [exn] is [Printexc.to_string] of the exception,
          [backtrace] the raise-point backtrace (possibly empty). *)
  | Timed_out of timeout

type 'a cell_result = {
  index : int;  (** position in the submitted cell array *)
  label : string;
  outcome : 'a outcome;
  host_s : float;  (** host wall-clock seconds the cell took *)
  events : int;  (** simulated engine events the cell executed *)
}

val outcome_string : _ outcome -> string
(** ["done"], ["failed: <exn>"] or ["timed-out: ..."] — one line, no
    backtrace. *)

val resolve_jobs : int -> int
(** Clamp a user-supplied job count: [0] means auto
    ([Domain.recommended_domain_count ()]), negatives are clamped to 1. *)

(** Live sweep progress, rendered to stderr: cells done/total, percent,
    elapsed, ETA and the currently-slowest finished cell, redrawn in place
    on a TTY (line-by-line otherwise).  [finish] prints a summary with the
    slowest cells — host-side observability only, never part of the
    machine-readable results. *)
module Progress : sig
  type t

  val create : total:int -> t
  (** Redraws come at most every 0.1 s. *)

  val finish : t -> unit
  (** Final newline + "N cells in S s" summary with the slowest cells. *)
end

module Pool : sig
  val run :
    ?jobs:int ->
    ?budget:Budget.t ->
    ?progress:Progress.t ->
    (string * (unit -> 'a)) array ->
    'a cell_result array
  (** [run cells] executes every [(label, thunk)] cell and returns results
      in submission order.  [jobs] defaults to [1]; [0] means auto.  The
      calling domain is one of the [jobs] workers: at [jobs = 1] it is the
      only one and runs the cells in index order, with no domain spawned;
      otherwise [jobs - 1] more domains are spawned.  Workers claim cells
      from a shared index, so the schedule is work-stealing-ish, but the
      {e result array} is identical at any job count for deterministic
      cells.  Budget and crash outcomes are per-cell; the sweep itself
      never raises on a failing cell. *)
end
