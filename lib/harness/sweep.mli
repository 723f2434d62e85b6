(** Domain-parallel experiment sweeps.

    Turns the outcome array of {!Experiments.cells} run through
    {!Lcm_fleet.Fleet.Pool.run} back into report-layer rows plus
    machine-readable summaries.  Results are keyed by cell index, so a
    sweep's rows are bit-identical to {!Experiments.run_cells} at any job
    count (enforced by the parallel-equivalence test suite). *)

module Fleet = Lcm_fleet.Fleet

val rows : Experiments.row Fleet.cell_result array -> Experiments.row list
(** The [Done] rows in cell-index order — what the report layer consumes.
    Failed and timed-out cells are silently dropped; check {!failures}. *)

val failures :
  Experiments.row Fleet.cell_result array ->
  Experiments.row Fleet.cell_result list
(** Cells that did not complete, in index order. *)

val summary_json :
  suite:string -> scale:string -> jobs:int ->
  Experiments.row Fleet.cell_result array -> string
(** ["lcm-sweep/1"] JSON document: the sweep's suite, scale and job
    count as resolved by {!Lcm_fleet.Fleet.resolve_jobs}; per-cell label,
    outcome, host seconds, simulated events, cycles/checksum (done cells)
    or error text; and done/failed/timed-out tallies.  Host timings here
    are {e host-side observability}, not simulated counters (see
    COUNTERS.md). *)

val summary_csv : Experiments.row Fleet.cell_result array -> string
(** The same summary as CSV (header included), one line per cell; done
    cells also carry faults, remote fetches, clean copies, messages and
    the checksum. *)
