# Developer entry points.  `make check` is the single gate CI runs:
# source lint plus the tier-1 test suite.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check lint lint-changed lint-baseline test chaos chaos-serve \
        obs-check bench bench-sensitivity studybench-smoke \
        clean-cache

check: lint test

# repro-lint: detlint's five CFG/dataflow determinism rules, one parse
# and one pass per module (following calls within each module), under
# the baseline ratchet in lint-baseline.json.  Zero unbaselined
# findings required.
lint:
	$(PYTHON) -m repro.analysis.cli

# Local loop: the whole tree is still linted (so the baseline sees
# every finding), but only findings in files changed vs HEAD are
# reported.
lint-changed:
	$(PYTHON) -m repro.analysis.cli --changed-only

# Regenerate the ratchet after paying down baselined debt (then commit
# lint-baseline.json; documented reasons carry over).
lint-baseline:
	$(PYTHON) -m repro.analysis.cli --update-baseline

test:
	$(PYTHON) -m pytest -x -q

# Deterministic fault-injection suite: hung/crashed workers, flaky
# records, cache corruption, quarantine, serial==parallel equivalence.
chaos:
	$(PYTHON) -m pytest tests/test_resilience.py tests/test_executor_faults.py -q

# Distributed chaos suite: a real coordinator + two worker processes
# (repro-serve CLI) under seeded network/process fault plans — worker
# SIGKILL, dropped result connections, partitions, slow sockets and a
# coordinator SIGKILL + journal-replay restart.  Every scenario must
# produce canonical records byte-identical to a -j 1 serial run with
# each spec completed exactly once.
chaos-serve:
	$(PYTHON) -m pytest tests/test_serve_chaos.py -q

# Telemetry gate: measure a seeded mini-corpus through the real CLI at
# -j 1 and -j 4 with --metrics-out, validate the Prometheus output and
# diff the deterministic (non-walltime) metric views.
obs-check:
	$(PYTHON) -m repro.obs.selfcheck

bench:
	$(PYTHON) -m pytest benchmarks -q

# Zero-replay analytics trajectory: price a 100-point network grid per
# trace off the recorded dependency graph vs per-point replays, record
# BENCH_10.json, and fail unless the analytic path is >=10x faster
# everywhere (it must also match every replayed total within 1e-6).
bench-sensitivity:
	$(PYTHON) -m repro.bench.sensitivity --out BENCH_10.json --check

# End-to-end study benchmark smoke tests (~20 s): every workload at
# smoke size against its golden digests, plus the traced boundaries, so
# a renamed traced function or a changed digest fails here first.
studybench-smoke:
	$(PYTHON) -m pytest studybench/tests -q

clean-cache:
	rm -rf .cache
