"""``tools/charged_dump.py --compare`` says what it compared.

Every compare ends with one summary line — configurations compared, how many
differ in a checked field, how many in data fields only — so a comparison of
nothing cannot pass for a clean one.  The exit status is 1 exactly when some
configuration differs in a checked field.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "charged_dump", REPO / "tools" / "charged_dump.py"
)
charged_dump = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(charged_dump)

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
