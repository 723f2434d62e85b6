(* The benchmark's metric catalogue.  BENCHMARK.json at the repository root
   repeats it for tools that do not run OCaml; test_bench fails when the
   two disagree. *)

type t = {
  name : string;
  unit_ : string;
  better : Summary.better;
  bound : float option;  (** end-to-end only: allowed worsening, as a share *)
}

let m ?bound name unit_ better = { name; unit_; better; bound }

(* What a user of the simulator sees for one pass of a workload, each pass
   in a fresh child process.  Times are in seconds of the reference host
   (see [Yardstick] and bench.ml's [scale]); README.md, "Measured spread",
   gives the run-to-run spread the bounds were set against. *)
let end_to_end =
  Summary.
    [
      m "wall_s" "s" Lower ~bound:0.25;
      m "events_per_s" "1/s" Higher ~bound:0.25;
      m "unit_p50_ms" "ms" Lower ~bound:0.25;
      m "unit_p99_ms" "ms" Lower ~bound:0.25;
      m "setup_s" "s" Lower ~bound:0.25;
      m "peak_rss_mb" "MB" Lower ~bound:0.1;
      m "sim_events" "count" Lower ~bound:0.15;
    ]

(* One layer each, measured from outside by the traced pass and the
   ledger; README.md maps each to the end-to-end metric and workload it
   should move.  A layer a workload does not exercise reads 0. *)
let per_layer =
  Summary.
    [
      (* sim.Engine + util.Heap *)
      m "engine.events" "count" Lower;
      m "engine.ns_per_event" "ns" Lower;
      m "heap.depth_p50" "count" Lower;
      m "heap.depth_p99" "count" Lower;
      m "heap.ns_per_op.d32" "ns" Lower;
      m "heap.ns_per_op.d4k" "ns" Lower;
      (* tempest *)
      m "tempest.loads" "count" Lower;
      m "tempest.stores" "count" Lower;
      m "tempest.fast_hit_frac" "frac" Higher;
      m "fault.read" "count" Lower;
      m "fault.write" "count" Lower;
      m "tempest.ns_per_hit" "ns" Lower;
      m "tempest.ns_per_yield" "ns" Lower;
      (* net, fault-free path *)
      m "net.msgs" "count" Lower;
      m "net.words" "count" Lower;
      m "net.channel_stall_cycles_mean" "cycles" Lower;
      m "net.ns_per_send" "ns" Lower;
      (* net, reliable transport under a fault plan *)
      m "fault.retransmits" "count" Lower;
      m "fault.drops" "count" Lower;
      m "fault.dup_suppressed" "count" Lower;
      m "net.retx_frac" "frac" Lower;
      m "net.ns_per_send_reliable" "ns" Lower;
      (* core.Proto_dir *)
      m "proto.handler_runs" "count" Lower;
      m "proto.fetch_remote" "count" Lower;
      m "proto.invals" "count" Lower;
      m "proto.recalls" "count" Lower;
      m "proto.ns_per_remote_miss" "ns" Lower;
      (* core.Proto_snoop + net.Bus *)
      m "bus.transactions" "count" Lower;
      m "bus.utilization" "frac" Lower;
      m "bus.arb_stall_per_txn" "cycles" Lower;
      (* LCM reconcile + cstar *)
      m "lcm.flush_blocks" "count" Lower;
      m "lcm.reconciled_blocks" "count" Lower;
      m "lcm.barrier_wait_cycles" "cycles" Lower;
      m "cstar.invocations" "count" Lower;
      m "lcm.ns_per_flush" "ns" Lower;
      m "sim.cycles" "cycles" Lower;
      (* harness.Stress *)
      m "stress.cases" "count" Higher;
      m "span.setup.self_s" "s" Lower;
      m "span.simulate.self_s" "s" Lower;
      (* check *)
      m "check.schedules" "count" Lower;
      m "check.transitions" "count" Lower;
      m "check.prune_frac" "frac" Higher;
      (* host GC *)
      m "gc.minor_words_per_event" "words/event" Lower;
      m "gc.major_collections" "count" Lower;
      m "gc.pause_s" "s" Lower;
      m "gc.pause_frac" "frac" Lower;
      (* ledger and trace *)
      m "engine.est_s" "s" Lower;
      m "heap.est_s" "s" Lower;
      m "tempest.est_s" "s" Lower;
      m "net.est_s" "s" Lower;
      m "proto.est_s" "s" Lower;
      m "lcm.est_s" "s" Lower;
      m "ledger.explained_frac" "frac" Higher;
      m "ledger.residual_s" "s" Lower;
      m "trace.overhead_frac" "frac" Lower;
    ]
