"""What the system refuses, on record — and what it no longer refuses.

Each refused configuration (the REFUSED scenario set) pins the exception and
the start of its message in ESTIMATE and in EXECUTE, so a change that lifts
a restriction (or moves a refusal to the frontend) shows up here as a
deliberate edit of this table.  The RAGGED set — P ∤ N, whose ranks hold
unequal local arrays — used to be refused; it runs in both modes, charging
alike, and EXECUTE verifies.
"""

import pytest

from repro.api import Session
from repro.config import RunConfig
from repro.exceptions import HPFSyntaxError

from tests.scenarios import RAGGED, RECORD_CHARGES, REFUSED

NO_SYNTAX = (HPFSyntaxError, "expected ')', found '('")

#: label -> (ESTIMATE, EXECUTE)
REFUSALS = {
    "matmul n=24 P=4 cyclic(2) r=0.5": (NO_SYNTAX, NO_SYNTAX),  # no CYCLIC(k) syntax
}


@pytest.mark.parametrize("mode", ["estimate", "execute"])
@pytest.mark.parametrize("scenario", REFUSED, ids=str)
def test_refusal_is_on_record(tmp_path, scenario, mode):
    expected = REFUSALS[scenario.label][mode == "execute"]
    with Session(config=RunConfig(scratch_dir=tmp_path)) as session:
        with pytest.raises(expected[0]) as refused:
            session.run(scenario.point(), mode=mode)
    assert str(refused.value).startswith(expected[1])


def test_every_refused_scenario_is_pinned():
    assert sorted(REFUSALS) == sorted(scenario.label for scenario in REFUSED)


@pytest.mark.parametrize("scenario", RAGGED, ids=str)
def test_ragged_runs_in_both_modes(tmp_path, scenario):
    point = scenario.point()
    with Session(config=RunConfig(scratch_dir=tmp_path)) as session:
        local_shapes = session.compile(point).program.program.arrays["a"].local_shapes()
        estimate = session.run(point, mode="estimate")
        execute = session.run(point, mode="execute")
    assert len(set(local_shapes)) > 1
    assert execute.verified is True
    for field in RECORD_CHARGES:
        assert getattr(estimate, field) == getattr(execute, field), field
