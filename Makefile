.PHONY: all build test doc clean examples trace-smoke stress sweep-smoke fault-smoke policy-matrix check-smoke

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

# Run a small traced stencil and check the emitted Chrome trace JSON
# parses and is non-empty.
trace-smoke:
	dune exec bin/lcm_sim.exe -- stencil --protocol lcm-mcc --nodes 8 \
	  --size 32 --iters 2 --trace-out /tmp/lcm_trace_smoke.json
	dune exec bin/lcm_sim.exe -- trace-validate /tmp/lcm_trace_smoke.json

# Differential protocol stress test: seeded random programs checked
# word-for-word against the per-epoch spec (Stress.spec), every registered
# policy (directory and snooping-bus families alike).
stress:
	dune exec bin/lcm_sim.exe -- stress --cases 100 --seed 1

# Small-scope model checking smoke: exhaustively enumerate the
# message-delivery / tie-break interleavings of every bounded scenario
# under every registered policy (DPOR-pruned), checking the stress
# harness's spec plus protocol invariants on each schedule, then one
# fault-composed pass (each copy of the two-writers scenario's messages
# may be dropped, retransmission must recover).  A bounded version runs
# as part of `dune runtest` (test_check); counterexample artifacts land
# in out/.
check-smoke:
	dune exec bin/lcm_sim.exe -- check --max-schedules 2000 --out out
	dune exec bin/lcm_sim.exe -- check --policy lcm-mcc --scenario two-writers \
	  --fault-budget 1 --out out

# Policy-matrix smoke: for every policy in the registry, a bounded
# fingerprint determinism check (same seed twice must digest
# bit-identically), a cross-policy checksum agreement check, and a short
# differential stress sweep.  Also runs as part of `dune runtest`.
policy-matrix:
	dune exec test/test_policy_matrix.exe

# Bounded fixed-seed fault sweep: the differential stress harness across
# every registered policy over a deterministically unreliable interconnect
# (chaos profile: drops + duplicates + jitter + link flaps).  A smaller
# fixed-seed version runs as part of `dune runtest` (test_faults).
fault-smoke:
	dune exec bin/lcm_sim.exe -- stress --cases 40 --seed 1 \
	  --fault-rate 0.05 --fault-profile chaos --fault-seed 7

# Tiny parallel sweep through the fleet pool: exercises domain workers,
# progress, and the JSON/CSV summary writers in a few seconds.  Also runs
# as part of `dune runtest`.
sweep-smoke:
	dune exec bin/lcm_sim.exe -- experiments --suite figures --scale tiny \
	  --jobs 2 --summary-json /tmp/lcm_sweep_smoke.json \
	  --summary-csv /tmp/lcm_sweep_smoke.csv

examples:
	@for e in quickstart compiler_demo adaptive_mesh reductions race_detection stale_data dynamic_list convergence; do \
	  echo "== $$e =="; dune exec examples/$$e.exe; echo; done

doc:
	dune build @doc

clean:
	dune clean
