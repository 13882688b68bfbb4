"""What the system refuses, on record: the REFUSED scenario set, per mode.

Each refused configuration pins the exception and the start of its message
in ESTIMATE and in EXECUTE, so a change that lifts a restriction (or moves a
refusal to the frontend) shows up here as a deliberate edit of this table.
"""

import pytest

from repro.api import Session
from repro.config import RunConfig
from repro.exceptions import HPFSyntaxError, RuntimeExecutionError

from tests.scenarios import REFUSED

UNEVEN = (RuntimeExecutionError,
          "the executable kernels require identical local shapes on every processor; ")
NO_SYNTAX = (HPFSyntaxError, "expected ')', found '('")

#: label -> (ESTIMATE, EXECUTE); None where the mode runs.  A lone reduction
#: ESTIMATEs through the bulk path, which never builds local arrays; a
#: program runs the charge-only engines, which do.
REFUSALS = {
    "matmul n=23 P=4 r=0.5": (None, UNEVEN),
    "matmul n=23 P=4 cyclic r=0.5": (None, UNEVEN),
    "mm_add n=23 P=4 r=0.5": (UNEVEN, UNEVEN),
    "mm_add n=23 P=4 cyclic r=0.5": (UNEVEN, UNEVEN),
    "matmul n=24 P=4 cyclic(2) r=0.5": (NO_SYNTAX, NO_SYNTAX),  # no CYCLIC(k) syntax
}


@pytest.mark.parametrize("mode", ["estimate", "execute"])
@pytest.mark.parametrize("scenario", REFUSED, ids=str)
def test_refusal_is_on_record(tmp_path, scenario, mode):
    expected = REFUSALS[scenario.label][mode == "execute"]
    with Session(config=RunConfig(scratch_dir=tmp_path)) as session:
        if expected is None:
            record = session.run(scenario.point(), mode=mode)
            assert record.simulated_seconds == pytest.approx(0.30234304)
            assert record.io_requests_per_proc == 14
            return
        with pytest.raises(expected[0]) as refused:
            session.run(scenario.point(), mode=mode)
    assert str(refused.value).startswith(expected[1])


def test_every_refused_scenario_is_pinned():
    assert sorted(REFUSALS) == sorted(scenario.label for scenario in REFUSED)
