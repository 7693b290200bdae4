# Convenience targets for the RBAY reproduction.

PYTHON ?= python

.PHONY: install test bench pairs gc floor fingerprint ablations chaos sanitize coverage trace planner rebalance market live examples outputs clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The RBAY benchmark (BENCHMARK.json, bench/README.md): four pinned
# workloads, end-to-end and per-layer metrics, output checks.
bench:
	python3 bench/run.py

# Alternating parent/change pairs of one workload (tools/pairs.py): each
# side's median and quartiles, the wins, the median gap against the
# parent's quartile distance; fails if an exact metric moves.
REV ?= HEAD~1
WORKLOAD ?= query_mix
PAIRS ?= 10
SECONDS ?= 20
pairs:
	$(PYTHON) tools/pairs.py --against $(REV) --workload $(WORKLOAD) \
	  --pairs $(PAIRS) --seconds $(SECONDS)

# What the garbage collector costs one workload (tools/gc_census.py):
# collections, pause seconds and freed objects per generation, inside the
# measured slices and elsewhere, and the tracked objects after set-up.
# publish_storm unless WORKLOAD is given on the command line.
gc: WORKLOAD = publish_storm
gc:
	$(PYTHON) tools/gc_census.py --workload $(WORKLOAD)

# The per-message floor (tools/msg_floor.py): microseconds per message of
# a two-host send->deliver ping-pong, jitter on/off x size supplied/walked,
# then the live arm (the same ping-pong over loopback TCP, and encode /
# decode per frame over the golden wire corpus), the quiet-plane arm and
# the bootstrap arm (ms per Overlay.bootstrap at 32x32 and 1x4096), the
# median of 5 runs.
floor:
	$(PYTHON) tools/msg_floor.py

# Behaviour fingerprint (tools/fingerprint.py): one sha256 per scenario of
# seeds x jitter x {fault-free, faulted}, hashing every send and engine
# step, checked against benchmarks/results/fingerprints.json; each scenario
# also runs with wire_check (every delivery a decoded copy) and the
# "copies" column must read "equal".  To see where a tree parts from a
# commit: python tools/fingerprint.py --against REV
fingerprint:
	$(PYTHON) tools/fingerprint.py

# The paper-figure and ablation tables (pytest-benchmark suite).
ablations:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Chaos property suite: randomized fault schedules over many seeds (each
# seed also run with every delivery a decoded copy, rebalancing off and
# on, and the two digests compared), plus the retries-on/off recovery
# ablation.  RBAY_CHAOS_SEEDS widens the sweep.
chaos:
	RBAY_CHAOS_SEEDS=$${RBAY_CHAOS_SEEDS:-20} PYTHONPATH=src $(PYTHON) -m pytest \
	  tests/test_chaos_properties.py tests/test_faults_injector.py -q
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/test_chaos_recovery.py \
	  --benchmark-only -s

# Runtime invariant sanitizer (docs/architecture.md §13): the sanitizer
# unit/regression suite, the sanitized 20-seed chaos matrix, the
# fault-replay check subcommand, and a sanitized fail-fast 1,024-node
# scale run (the on/off cost is bench/'s check.sanitize_on_over_off).
sanitize:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_sanitizer.py \
	  tests/test_query_orphan_release.py tests/test_core_reservation.py
	RBAY_CHAOS_SEEDS=$${RBAY_CHAOS_SEEDS:-20} PYTHONPATH=src $(PYTHON) -m pytest \
	  tests/test_chaos_properties.py -q
	PYTHONPATH=src $(PYTHON) -m repro.cli check --seed 101 --show-faults
	PYTHONPATH=src $(PYTHON) -m repro.cli scale --sites 32 --nodes 32 \
	  --queries 64 --sanitize --sanitize-fail-fast

# Line-coverage floor for the watched protocol modules.  When pytest-cov is
# installed, also print a full term-missing report; the gate itself uses
# a stdlib tracer (tools/check_coverage.py) so it runs anywhere and
# fails if any watched module drops below 85%.  The public-API lint
# (tools/check_api.py) rides along: it fails if repro.__all__, the lazy
# exports, or the docs table drift.
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null \
	  && $(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing \
	  || echo "pytest-cov not installed; running the stdlib coverage gate only"
	$(PYTHON) tools/check_coverage.py
	$(PYTHON) tools/check_api.py

# Observability plane: the span/metric/critical-path test suite and a demo
# trace of one multi-site query (Chrome trace_event export lands in
# trace_demo.json; open in Perfetto).  The tracing on/off cost is bench/'s
# obs.tracing_on_over_off.
trace:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_obs_spans.py \
	  tests/test_obs_metrics.py tests/test_obs_critical_path.py \
	  tests/test_obs_exporters.py
	PYTHONPATH=src $(PYTHON) -m repro.cli trace \
	  "SELECT 2 FROM * WHERE instance_type = 'c3.large';" \
	  --nodes 8 --no-jitter --trace-out trace_demo.json

# The query plan (docs/architecture.md §14): bucket/route unit and golden
# suites, the plan-is-what-runs suite (EXPLAIN's probes and strategies
# against the executor's sends), the oracle-backed property suite (planner
# on vs. off, row-identical to brute force before and after attribute
# updates; RBAY_ORACLE_SEEDS widens the sweep), and the planner-on/off
# ablation (benchmarks/results/planner_ablation.json).
planner:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_scribe_buckets.py \
	  tests/test_query_planner.py tests/test_query_plan_execution.py
	RBAY_ORACLE_SEEDS=$${RBAY_ORACLE_SEEDS:-20} PYTHONPATH=src $(PYTHON) -m pytest \
	  tests/test_property_range_oracle.py -q
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/test_planner_ablation.py \
	  --benchmark-only -s

# Hot-tree balancer (docs/architecture.md §15): hysteresis/promotion/
# diversion/demotion suites, the skew-stress regression pins, the
# rebalance-enabled chaos matrix, and the on/off zipf-skew ablation
# (benchmarks/results/rebalance_skew.json).
rebalance:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_rebalance.py \
	  tests/test_skew_regressions.py
	RBAY_CHAOS_SEEDS=$${RBAY_CHAOS_SEEDS:-20} PYTHONPATH=src $(PYTHON) -m pytest \
	  tests/test_chaos_properties.py -q -k rebalanc
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/test_rebalance_skew.py \
	  --benchmark-only -s

# Elastic marketplace (docs/architecture.md §18): DEPAS autoscaler +
# spot-pricer + market-workload suites, the economy/selection regression
# tests, the live-mode economy coverage, and the autoscale on/off demand-
# spike ablation with the 20-seed determinism fingerprint
# (benchmarks/results/market.json).
market:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_market.py \
	  tests/test_ext_economy.py tests/test_ext_churn.py \
	  tests/test_economy_live.py
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/test_market.py \
	  --benchmark-only -s

# Real-transport subsystem (docs/architecture.md §16): codec + trace-ctx
# + scheduler + socket suites, the sim-as-oracle harness and live 4-site
# e2e, and the two-process serve smoke test (the live-vs-sim cost is
# bench/'s transport.live_over_sim_wall_ratio).  Live runs use real
# sockets and wall clocks, so the whole target sits under a hard
# wall-clock timeout (override with RBAY_LIVE_TIMEOUT, seconds).
live:
	timeout $${RBAY_LIVE_TIMEOUT:-900} sh -c '\
	  PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_transport_codec.py \
	    tests/test_transport_wire_golden.py \
	    tests/test_net_trace_ctx.py tests/test_transport_realtime.py \
	    tests/test_transport_conformance.py \
	    tests/test_transport_asyncio.py tests/test_transport_wire_safety.py \
	    tests/test_transport_oracle.py tests/test_transport_live.py \
	    tests/test_transport_serve.py'

examples:
	@for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	python3 bench/run.py 2>&1 | tee bench_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee ablations_output.txt

clean:
	rm -rf .pytest_cache .hypothesis build dist src/repro.egg-info
	rm -f trace_demo.json
	find . -name __pycache__ -type d -exec rm -rf {} +
