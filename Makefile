# Convenience targets for the conf_ipps_ZhaoJH23 reproduction.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-check parity profile figures sweep trace

## Tier-1 verification: the full unit/property/benchmark suite.
test:
	python -m pytest -x -q

## Scheduler perf trajectory: runs benchmarks/test_scheduler_overhead.py
## under pytest-benchmark, then every section of the bench's section
## table (calibration, write amplification, commit path, end-to-end
## 2k/20k/100k, streaming 100k/1M, fault replay, pass elision,
## observability, sweep scaling), each arm in a fresh child process, and
## writes BENCH_scheduler.json (committed, so every PR is measured
## against the last).
bench:
	python -m repro.experiments bench

## Gate the committed trajectory: evaluates every row of the bench's gate
## table (depth scaling, revisions per action, commit path, elision,
## calibration-relative run budget and req/s floors, streaming RSS and
## throughput, fault replay, observability, sweep determinism/resume/
## speedup) and fails on any violation or missing section/key; on
## success prints how many gates and sections it checked.
bench-check:
	python -m repro.experiments bench-check

## Parity only (quick hot-path sanity): every suite that replays against
## the reference scans or the literal oracles in tests/oracles (pass
## engine, object-walk metrics, per-request workload builder).
parity:
	python -m pytest tests/core/test_decision_parity.py tests/core/test_pass_elision.py \
	                 tests/core/test_write_path_parity.py tests/core/test_ephemeral_parity.py \
	                 tests/metrics/test_streaming_metrics.py tests/metrics/test_collector_differential.py \
	                 tests/traces/test_workload_columnar.py -q

## cProfile the 2k-request §V-A replay: the top-25 functions by
## cumulative time, then a per-subsystem rollup (commit path, dispatch,
## scheduling passes, cache manager, metrics, sim kernel) of exclusive
## time — the tools that found every hot spot so far (index scans,
## batched txns, columnar replay, pass elision, commit-path residue).
##   make profile                          # 2k requests
##   make profile PROFILE_REQUESTS=20000   # deeper replay
PROFILE_REQUESTS ?= 2000
profile:
	python -m repro.experiments profile --profile-requests $(PROFILE_REQUESTS)

## Flight-recorder replay: run the 2k §V-A workload with tracing on and
## write a Perfetto-loadable trace.json (docs/observability.md).
##   make trace                            # 2k requests -> trace.json
##   make trace TRACE_REQUESTS=20000       # deeper replay
TRACE_REQUESTS ?= 2000
trace:
	python -m repro.experiments trace --requests $(TRACE_REQUESTS)

## Regenerate the paper's tables and figures through the sweep
## orchestrator (WORKERS processes).  Figures always re-execute unless a
## store is named explicitly on the command line (`make figures
## SWEEP_STORE=dir`): cell IDs hash config, not code, so resuming from a
## store left over from an older checkout would serve stale figures.
figures:
	python -m repro.experiments all --workers $(WORKERS) $(if $(filter command line,$(origin SWEEP_STORE)),--store $(SWEEP_STORE))

## Sharded §V sweep: expand the declarative policy x working-set grid and
## run it on a multiprocess worker pool (repro/experiments/sweep.py).
## Results persist under SWEEP_STORE (one JSON per cell, keyed by
## content-hash cell ID; see repro/experiments/store.py for the layout),
## so an interrupted sweep resumes with only the missing cells:
##   make sweep                           # 4 workers, store .sweep-results
##   make sweep WORKERS=8                 # wider pool
##   make sweep SWEEP_STORE=/tmp/cells    # elsewhere
##   make sweep FAULTS="none recoverable" # add the chaos axis (docs/robustness.md)
WORKERS ?= 4
SWEEP_STORE ?= .sweep-results
FAULTS ?=
sweep:
	python -m repro.experiments sweep --workers $(WORKERS) --store $(SWEEP_STORE) --resume $(if $(FAULTS),--fault-profiles $(FAULTS))
