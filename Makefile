# Tier-1: the correctness gate every change must keep green; it includes
# the charged corpus check (`make charged`).
# Host time: the benchmark suite (`make bench-suite`, `make ab`) and the
# four wall-clock gates (`make host-gates`).

PYTHON ?= python

.PHONY: test test-faults cov lint typecheck check-plans charged host-gates \
	bench-suite ab clean-scratch serve

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Fault-injection soak: the seed x rate x workload stress matrix plus the
# kill-and-resume and property-based suites.  Its own CI job — heavier than
# the tier-1 gate and meant to run even when tier-1 is already green.
test-faults:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_resilience_faults.py \
		tests/test_resilience_resume.py tests/test_resilience_properties.py

# Coverage gate (needs pytest-cov): fails under 85% line coverage of repro.
cov:
	PYTHONPATH=src $(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=85

# Static checks: ruff (rule selection lives in ruff.toml) plus the
# charge-discipline AST lint (raw I/O confinement, wall-clock reads, charges
# inside retry loops, frozen-object mutation, process-wide caches — see the
# tool's docstring).  ruff is gated on being installed, like mypy in
# typecheck: without it the target says so and still runs the AST lint; with
# it a ruff finding fails the target.  CI installs ruff and runs it for real.
lint:
	@if command -v ruff >/dev/null 2>&1; then ruff check .; \
		else echo "ruff not installed; skipping (CI runs it)"; fi
	$(PYTHON) tools/lint_charge_discipline.py

# Scoped strict typing for the compiler core and planner (mypy.ini).  Gated
# on mypy being importable so the target degrades gracefully on machines
# without it; CI installs mypy and runs it for real.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy --config-file mypy.ini src/repro/core src/repro/planner \
		|| echo "mypy not installed; skipping typecheck (CI runs it)"

# Static plan verification over the scenario sets of tests/scenarios.py:
# every IR builder x strategy x P x slab granularity, 1-3 statement HPF
# programs, CYCLIC / CYCLIC(2) layouts, fused plans and a seeded fuzz sweep.
# Asserts the symbolic charge ledger equals PlanCost on every plan and
# matches the executed machine counters where the executor follows plan
# granularity.
check-plans:
	PYTHONPATH=src $(PYTHON) tools/check_plans.py

# Every charged number of a fixed configuration set (tools/charged_dump.py:
# the check-plans sets, the reduction engines, the refused and ragged sets,
# processes-backend points, seeded faults and the larger Session points;
# EXECUTE and ESTIMATE) dumped from this tree and compared with the
# committed CHARGED.jsonl: the first differing checked field per
# configuration, then one summary line (configurations compared, how many
# differ in a checked field, how many in data fields only).  Fails on a
# checked difference.  Tier-1 runs the same check
# (tests/test_charged_dump.py).  A change that predicts a charged movement
# regenerates the file and commits its diff:
#   python tools/charged_dump.py --out CHARGED.jsonl
charged:
	@dir=$$(mktemp -d) && \
	$(PYTHON) tools/charged_dump.py --out $$dir/tree.jsonl && \
	$(PYTHON) tools/charged_dump.py --compare CHARGED.jsonl $$dir/tree.jsonl; \
	status=$$?; rm -rf $$dir; exit $$status

# Host-time gates (benchmarks/host_gates.py): checksums-on overhead at most
# 5% on the N = 768 pipeline; verified stream_rw_1k points at most 2x their
# unverified wall time; on machines with >= 4 CPUs the process-pool sweep and
# the 4-worker service each at least 2x their serial baselines.
host-gates:
	$(PYTHON) -m benchmarks.host_gates

# The benchmark suite BENCHMARK.json names (benchmarks/suite), at its smoke
# scale: every workload end to end with the suite's own output checks, the
# charged totals compared bit for bit with benchmarks/suite/baseline.json.
# Drop `--scale tiny` by hand for the full-size numbers (about 90 s).
bench-suite:
	$(PYTHON) -m benchmarks.suite --scale tiny

# Paired parent/change runs of that suite (tools/ab_pairs.py): PARENT is a
# checkout of the parent commit (git clone, not a worktree), W a workload name.
#   make ab PARENT=/root/scratch/parent W=gaxpy_col_1k
PAIRS ?= 10
ab:
	$(PYTHON) tools/ab_pairs.py --parent $(PARENT) --workload $(W) --pairs $(PAIRS)

# Run the compile-and-run job server (HOST/PORT/WORKERS overridable):
#   make serve PORT=8642 WORKERS=4
HOST ?= 127.0.0.1
PORT ?= 8642
WORKERS ?= 2
serve:
	PYTHONPATH=src $(PYTHON) -m repro.service --host $(HOST) --port $(PORT) --workers $(WORKERS)

# Remove orphaned vm_* scratch directories (left by killed runs) from the
# default scratch dir.  --max-age-s 0 reaps everything not alive right now;
# sessions also do this automatically (age > 24h) at startup.
# (imported as a function rather than -m: the package __init__ already pulls
# in the reaper module, and runpy would warn about the double import)
clean-scratch:
	PYTHONPATH=src $(PYTHON) -c "from repro.resilience.reaper import main; raise SystemExit(main(['--max-age-s', '0']))"
