"""The tree charges exactly what the committed ``CHARGED.jsonl`` pins.

:func:`test_tree_charges_what_the_corpus_pins` dumps this tree with
``tools/charged_dump.py`` in a fresh interpreter and compares the dump with
the committed corpus: a configuration that differs in a checked field fails
the test, which names its first such field.  A change that predicts a
charged movement regenerates the corpus (``python tools/charged_dump.py
--out CHARGED.jsonl``) and commits its diff.

Every compare ends with one summary line — configurations compared, how many
differ in a checked field, how many in data fields only — so a comparison of
nothing cannot pass for a clean one.  The exit status is 1 exactly when some
configuration differs in a checked field.
"""

import atexit
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "charged_dump", REPO / "tools" / "charged_dump.py"
)
charged_dump = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(charged_dump)
CORPUS = REPO / "CHARGED.jsonl"

# The dump takes seconds of one CPU, so it starts when this module is
# collected and runs while the tests before the corpus test do; the test
# waits for it.  Its files, run scratch included, stay under one directory,
# removed at exit, and a session that never runs the test kills it first.
_SCRATCH = tempfile.TemporaryDirectory(prefix="charged-dump-")
_TREE = Path(_SCRATCH.name) / "tree.jsonl"
_DUMP = subprocess.Popen([sys.executable, str(REPO / "tools" / "charged_dump.py"),
                          "--out", str(_TREE)],
                         cwd=_SCRATCH.name, env={**os.environ, "TMPDIR": _SCRATCH.name})


@atexit.register
def _stop_dump():
    _DUMP.kill()
    _DUMP.wait()
    _SCRATCH.cleanup()


def test_tree_charges_what_the_corpus_pins(capsys):
    assert _DUMP.wait() == 0
    differing = charged_dump.compare(str(CORPUS), str(_TREE))
    report = capsys.readouterr().out
    assert differing == 0, report
    summary = report.splitlines()[-1]
    if not summary.endswith(" 0 in data fields only"):
        warnings.warn(f"{CORPUS.name}: {summary}", stacklevel=1)


BEFORE = {
    "gaxpy-a": {"simulated_seconds": "1.5", "result.sha256.c": "aa", "max_abs_error": "0.0"},
    "gaxpy-b": {"simulated_seconds": "2.5", "result.sha256.c": "bb", "max_abs_error": "0.0"},
    "copy-c": {"simulated_seconds": "0.5", "io.reads": "4"},
}

#: name -> (the changed fields of the second dump, summary line, exit status)
PAIRS = {
    "identical": (
        {},
        "3 configurations compared: 0 differ in checked fields, 0 in data fields only",
        0,
    ),
    "data-only": (
        {"gaxpy-a": {"result.sha256.c": "ff"}, "gaxpy-b": {"max_abs_error": "1e-07"}},
        "3 configurations compared: 0 differ in checked fields, 2 in data fields only",
        0,
    ),
    "checked": (
        {"copy-c": {"io.reads": "5"}, "gaxpy-a": {"result.sha256.c": "ff"}},
        "3 configurations compared: 1 differ in checked fields, 1 in data fields only",
        1,
    ),
}


def write_dump(path, configs):
    path.write_text("".join(
        json.dumps({"config": config, "fields": fields}) + "\n"
        for config, fields in configs.items()
    ))
    return str(path)


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_every_compare_ends_with_a_summary_line(tmp_path, capsys, pair):
    changes, summary, status = PAIRS[pair]
    after = {config: {**fields, **changes.get(config, {})} for config, fields in BEFORE.items()}
    before_path = write_dump(tmp_path / "before.jsonl", BEFORE)
    after_path = write_dump(tmp_path / "after.jsonl", after)
    assert charged_dump.main(["--compare", before_path, after_path]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == summary
    if pair == "checked":
        assert lines[:-1] == ["copy-c: io.reads 4 -> 5"]
    else:
        assert lines[:-1] == []


@pytest.mark.parametrize("backend", ["simulated", "processes"])
def test_session_runs_record_what_they_stored(tmp_path, backend):
    """A run through ``Session`` digests its result and inputs while its VM is
    open; on the ``processes`` backend each rank worker digests its blocks."""
    from repro.api import WorkloadPoint
    from repro.api.workload import Workload
    from repro.config import RunConfig

    drive = Workload.drive
    point = WorkloadPoint("gaxpy", n=16, nprocs=2, version="row", slab_ratio=0.5)
    fields = charged_dump.session_record(point, RunConfig(scratch_dir=tmp_path),
                                         backend=backend)
    digests = sorted(key for key in fields if ".sha256." in key)
    if backend == "simulated":
        names = ["input.a", "input.b", "result"]
    else:
        names = [f"{name}@rank{rank}" for name in ("c", "input.a", "input.b") for rank in (0, 1)]
    assert digests == [f"record.sha256.{name}" for name in names]
    assert fields["record.verified"] == "True"
    assert Workload.drive is drive
