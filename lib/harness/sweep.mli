(** Domain-parallel experiment sweeps.

    Runs {!Experiments.cells} through {!Lcm_fleet.Fleet.Pool} and turns
    the outcome array back into report-layer rows plus machine-readable
    summaries.  Results are keyed by cell index, so a sweep's rows are
    bit-identical to {!Experiments.run_cells} at any job count (enforced
    by the parallel-equivalence test suite). *)

module Fleet = Lcm_fleet.Fleet

val run :
  ?jobs:int ->
  ?budget:Fleet.Budget.t ->
  ?progress:Fleet.Progress.t ->
  Experiments.cells ->
  Experiments.row Fleet.cell_result array
(** Execute a cell list on the pool ([jobs] defaults to 1 =
    deterministic-sequential; [0] = auto).  Crashing or over-budget cells
    become [Failed]/[Timed_out] results; the sweep always completes. *)

val rows : Experiments.row Fleet.cell_result array -> Experiments.row list
(** The [Done] rows in cell-index order — what the report layer consumes.
    Failed and timed-out cells are silently dropped; check {!failures}. *)

val failures :
  Experiments.row Fleet.cell_result array ->
  Experiments.row Fleet.cell_result list
(** Cells that did not complete, in index order. *)

val summary_json :
  ?suite:string -> ?scale:string -> ?jobs:int ->
  Experiments.row Fleet.cell_result array -> string
(** ["lcm-sweep/1"] JSON document: per-cell label, outcome, host seconds,
    simulated events, cycles/checksum (done cells) or error text, plus
    done/failed/timed-out tallies.  Host timings here are {e host-side
    observability}, not simulated counters (see COUNTERS.md). *)

val summary_csv : Experiments.row Fleet.cell_result array -> string
(** The same summary as CSV (header included), one line per cell; done
    cells also carry faults, remote fetches, clean copies, messages and
    the checksum. *)
