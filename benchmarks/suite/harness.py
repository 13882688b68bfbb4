"""The parent side: spawn children, time their set-up, assemble the metrics.

A run of one workload is

* ``SETUP_SAMPLES`` set-ups (one at the smoke scale), each in a fresh
  interpreter and timed from spawn to the child's ``READY`` line (import,
  scratch directory, compilation, warm-up) — the last of them goes on to
  measure;
* a measuring window of ``seconds`` seconds inside that last child
  (``compile_sweep`` instead spends the window spawning one fresh interpreter
  per pass, which is what makes its compiles cold);
* the output checks, whose failures are counted, never hidden — the last of
  them compares the charged totals with ``baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import OUT_DIR, SUITE_DIR
from .measure import PATTERN, READY, keep_going
from .metrics import END_TO_END_UNITS, PER_LAYER_UNITS, with_units

CHILD_TIMEOUT_S = 170.0
SETUP_SAMPLES = 3
# served_mix runs two compute workers on the two CPUs of the reference box;
# with the library's default of one BLAS thread per CPU the four BLAS threads
# fight the workers for them, and job latency and peak RSS wander by 10-17 %
# between runs of one commit.  One BLAS thread per worker, as a multi-worker
# server is deployed, steadies both; the other workloads keep the default.
PINNED_ENVIRONMENT = {"served_mix": {"OPENBLAS_NUM_THREADS": "1"}}
# The charged numbers every workload must reproduce bit for bit, per scale.
BASELINE = json.loads((SUITE_DIR / "baseline.json").read_text())


class ChildFailed(RuntimeError):
    """A child process exited non-zero or never reported."""


def spawn(role: str, workload: str, seed: int, seconds: float, scale: str, scratch: Path,
          *extra: str) -> Tuple[float, Dict[str, object]]:
    """Run one child to completion; (seconds from spawn to READY, its result)."""
    command = [
        sys.executable, str(SUITE_DIR / "run.py"), "--role", role,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--scale", scale, "--scratch", str(scratch), *extra,
    ]
    environment = {**os.environ, **PINNED_ENVIRONMENT.get(workload, {})}
    start = time.perf_counter()
    ready: Optional[float] = None
    last = ""
    with tempfile.TemporaryFile("w+", dir=scratch) as errors:
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=errors, text=True,
                              env=environment) as child:
            watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                for line in child.stdout:
                    line = line.strip()
                    if line == READY and ready is None:
                        ready = time.perf_counter() - start
                    elif line:
                        last = line
                code = child.wait()
            except BaseException:
                child.kill()
                raise
            finally:
                watchdog.cancel()
        errors.seek(0)
        complaints = errors.read()
    sys.stderr.write(complaints)
    if code != 0 or ready is None:
        raise ChildFailed(
            f"{role} child of {workload} exited {code} "
            f"({'no READY' if ready is None else 'after READY'}); its stderr ended:\n"
            + "\n".join(complaints.splitlines()[-8:]))
    return ready, json.loads(last)


def make_scratch() -> Path:
    """A scratch directory of this run's own, inside the checkout."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR))


def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a list of timings."""
    ordered = sorted(samples)
    if len(ordered) < 2:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered)}


def _sweep_window(workload: str, seed: int, seconds: float, scale: str,
                  scratch: Path) -> Dict[str, object]:
    """``compile_sweep``'s measuring window: one fresh interpreter per pass."""
    passes: Dict[Optional[bool], List[Dict[str, object]]] = {False: [], None: []}
    deadline = time.perf_counter() + seconds
    index = 0
    while keep_going(deadline, passes):
        verify = PATTERN[index % len(PATTERN)]
        index += 1
        # "Verification off" is the static plan verifier off; None keeps the
        # Session default, as a user who passes nothing gets it.
        extra = ("--check", "off") if verify is False else ()
        _, result = spawn("sweep-pass", workload, seed, 0.0, scale, scratch, *extra)
        passes[verify].append(result)
    everything = passes[False] + passes[None]
    first = everything[0]
    failures = []
    for result in everything:
        problems = list(result["problems"])
        for field in ("simulated_s", "charged_io_bytes_per_proc"):
            if result[field] != first[field]:
                problems.append(f"{field} {result[field]!r} differs from the first "
                                f"pass {first[field]!r}")
        if problems:
            failures.append("; ".join(problems))

    def total(result: Dict[str, object]) -> float:
        return sum(result["compile_s"]) + sum(result["estimate_s"])

    return {
        "attempted": len(everything),
        "failed": len(failures),
        "failures": failures[:20],
        "simulated_s": first["simulated_s"],
        "charged_io_bytes_per_proc": first["charged_io_bytes_per_proc"],
        "peak_rss_mb": max(result["peak_rss_mb"] for result in everything),
        "run_samples": [total(result) for result in passes[False]],
        "verified_samples": [total(result) for result in passes[None]],
        "compile_cold_samples": [sum(r["compile_s"]) for r in passes[None]],
        "estimate_samples": [sum(r["estimate_s"]) for r in passes[None]],
    }


def charged_drift(workload: str, scale: str, values: Dict[str, float]) -> List[str]:
    """How the charged totals differ from ``baseline.json`` (they must not:
    a host-side change leaves the paper's numbers bit-identical)."""
    stored = BASELINE["charged"][scale][workload]
    return [f"{name} {values[name]!r} differs from the stored baseline {number!r}"
            for name, number in stored.items() if values[name] != number]


def run_untraced(workload: str, seed: int, seconds: float,
                 scale: str = "full") -> Dict[str, object]:
    """One untraced run: every end-to-end metric plus the check counts."""
    setup_samples = 1 if scale == "tiny" else SETUP_SAMPLES
    scratch = make_scratch()
    try:
        setups = []
        if workload == "compile_sweep":
            # Its set-up is the untimed warm-up pass in a fresh interpreter.
            for _ in range(setup_samples):
                ready, _ = spawn("sweep-pass", workload, seed, 0.0, scale, scratch,
                                 "--check", "off")
                setups.append(ready)
            result = _sweep_window(workload, seed, seconds, scale, scratch)
        else:
            for _ in range(setup_samples - 1):
                ready, _ = spawn("measure", workload, seed, 0.0, scale, scratch,
                                 "--setup-only")
                setups.append(ready)
            ready, result = spawn("measure", workload, seed, seconds, scale, scratch)
            setups.append(ready)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    timings = {
        "setup_s": quartiles(setups),
        "run_s": quartiles(result["run_samples"]),
        "verified_run_s": quartiles(result["verified_samples"]),
    }
    values = {name: stats["median"] for name, stats in timings.items()}
    for name in ("peak_rss_mb", "simulated_s", "charged_io_bytes_per_proc"):
        values[name] = result[name]
    drift = charged_drift(workload, scale, values)
    attempted = result["attempted"] + 1
    failed = result["failed"] + bool(drift)
    # What the issue names but the contract cannot carry as a metric of every
    # workload (README, "What differs from the issue, and why"): printed,
    # kept in the summary, not in the result line.
    also = {"failed_share": {"value": failed / attempted, "unit": "share"}}
    if workload == "compile_sweep":
        for name in ("compile_cold_s", "estimate_s"):
            timings[name] = quartiles(result[name.replace("_s", "_samples")])
            also[name] = {"value": timings[name]["median"], "unit": "s"}
    if workload == "served_mix":
        also["jobs_per_s"] = {"value": result["jobs_per_s"], "unit": "1/s"}
        also["job_latency_p50_s"] = {"value": values["run_s"], "unit": "s"}
        # a window holds 70-100 such jobs, so seven to ten lie beyond it
        also["job_latency_p90_s"] = {
            "value": statistics.quantiles(result["run_samples"], n=10)[-1], "unit": "s"}
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"] + drift,
        "metrics": with_units(values, END_TO_END_UNITS),
        "also": also,
        "timings": timings,
    }


def run_traced(workload: str, seed: int, seconds: float, scale: str = "full") -> Dict[str, object]:
    """One traced run: every per-layer metric; spans go to ``out/``."""
    scratch = make_scratch()
    try:
        _, result = spawn("trace", workload, seed, seconds, scale, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": with_units(result["layers"], PER_LAYER_UNITS),
        "trace_file": result["trace_file"],
    }


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------
def blas_threads() -> str:
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    setting = next((f"{os.environ[v]} ({v})" for v in variables if os.environ.get(v)),
                   f"library default ({os.cpu_count()} CPUs visible)")
    return f"{setting}; 1 on served_mix"


def header() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def print_header() -> None:
    print("# " + "  ".join(f"{key}={value}" for key, value in header().items()))


def print_run(run: Dict[str, object]) -> None:
    """Every metric by name with its unit; timings with quartiles and count."""
    timings = run.get("timings", {})
    print(f"## {run['workload']}  seed={run['seed']}  "
          f"attempted={run['attempted']} failed={run['failed']}")
    for name, entry in {**run["metrics"], **run.get("also", {})}.items():
        line = f"{name:34s} {entry['value']:.6g} {entry['unit']}"
        if name in timings:
            stats = timings[name]
            line += f"   (q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})"
        print(line)
    for failure in run["failures"]:
        print(f"FAILED CHECK: {failure}")


def result_line(run: Dict[str, object]) -> str:
    """The contract's last line of standard output."""
    return json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")})
