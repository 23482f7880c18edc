PYTHON ?= python
PYTHONPATH := src

.PHONY: test test-deprecations serve bench example

## Tier-1: the full unit/integration/e2e suite.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## Same suite with DeprecationWarning promoted to an error.  No
## deprecation cycle is open (the last shims are gone), so this keeps a
## newly deprecated surface from gaining in-repo callers.
test-deprecations:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -W error::DeprecationWarning

## The smoke gates, one row each: the test subset it runs first (if
## any), then the recorder and its flags.  A recorder writes its
## BENCH_*.json with a gate table and exits non-zero when a gate fails
## (see benchmarks/harness.py).  `make <name>-smoke` runs one row;
## `make smoke` runs them all and names every row that failed.
##
## trace:     every instrumented phase (1-4, tool) emits spans
##            (docs/OBSERVABILITY.md)
## fed:       8-component concurrent fan-out >= 2x sequential; fault
##            injection never leaks (docs/FEDERATION.md)
## bench:     the closure + equivalence-screen benchmarks, then the
##            incremental counters -> BENCH_incremental.json
## kernel:    per-event bus cost <= 5% of an incremental retract;
##            snapshot restore <= 50 ms (docs/ARCHITECTURE.md)
## crash:     crash-anywhere properties; WAL commit <= 5% of an
##            incremental retract; paper recovery <= 50 ms
##            (docs/DURABILITY.md)
## service:   >= 16 concurrent tenants, zero failed requests, real
##            eviction churn, p99 <= 750 ms (docs/SERVICE.md)
## telemetry: a live scrape parses, both SSE streams carry correlated
##            items (docs/OBSERVABILITY.md)
## solver:    fixpoint parity with derivations, verified-minimal
##            conflicts, suggestion top-3 recall (docs/SOLVER.md)
## evolution: one edit's repair <= 10% of a rebuild; exactly the stale
##            plan dropped (docs/EVOLUTION.md)
## replica:   lag p99 <= 250 ms, promotion <= 1 s, zero chaos
##            divergence (docs/REPLICATION.md)
SMOKES := trace fed bench kernel crash service telemetry solver evolution replica

trace_recorder := record_obs.py --smoke
fed_recorder := record_federation.py
bench_tests := benchmarks/bench_exp_closure.py \
	benchmarks/bench_screens_equivalence.py \
	--benchmark-disable-gc --benchmark-warmup=off
bench_recorder := record_incremental.py
kernel_recorder := record_kernel.py
crash_tests := tests/kernel/test_crash_anywhere.py tests/faults
crash_recorder := record_durability.py
service_tests := tests/service
service_recorder := record_service.py --smoke
telemetry_recorder := telemetry_smoke.py
solver_tests := tests/solver tests/workloads/test_conflict_generator.py
solver_recorder := record_solver.py
evolution_tests := tests/evolution tests/workloads/test_evolution_script.py
evolution_recorder := record_evolution.py
replica_tests := tests/replication tests/obs/test_replication_gauges.py \
	tests/workloads/test_traffic.py
replica_recorder := record_replication.py --smoke

SMOKE_TARGETS := $(SMOKES:%=%-smoke)
.PHONY: smoke $(SMOKE_TARGETS)

$(SMOKE_TARGETS): %-smoke:
	$(if $($*_tests),PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q $($*_tests))
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/$($*_recorder)

smoke:
	@failed=""; \
	for name in $(SMOKES); do \
		$(MAKE) --no-print-directory $$name-smoke || failed="$$failed $$name-smoke"; \
	done; \
	if [ -n "$$failed" ]; then echo "smoke FAILED:$$failed" >&2; exit 1; fi

## Run the integration service locally (demo token demo:demo-token).
serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.service \
		--root var/service --token demo:demo-token

## The full experiment harness (slow).
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q benchmarks -s

## The paper's running example, end to end.
example:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/university_integration.py
