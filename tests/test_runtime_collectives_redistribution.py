"""Direct tests for :mod:`repro.runtime.collectives` (previously covered only
indirectly through the kernels)."""

import numpy as np
import pytest

from repro.exceptions import CollectiveError
from repro.machine import Machine
from repro.runtime import broadcast, global_sum
from repro.runtime.collectives import payload_bytes


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------
class TestPayloadBytes:
    def test_product_of_shape_times_itemsize(self):
        assert payload_bytes((4, 8), 4) == 128
        assert payload_bytes((), 8) == 8  # scalar payload


class TestGlobalSum:
    def test_sums_contributions_elementwise(self):
        machine = Machine(3)
        contributions = {rank: np.full(5, float(rank + 1)) for rank in range(3)}
        total = global_sum(machine, contributions, shape=(5,), itemsize=8)
        np.testing.assert_array_equal(total, np.full(5, 6.0))
        assert machine.network.collectives == 1
        assert machine.elapsed() > 0

    def test_estimate_mode_charges_without_data(self):
        machine = Machine(4)
        assert global_sum(machine, None, shape=(16,), itemsize=4) is None
        assert machine.network.collectives == 1
        assert machine.metrics[0].messages > 0

    def test_missing_contribution_rejected(self):
        machine = Machine(3)
        contributions = {0: np.zeros(4), 2: np.zeros(4)}
        with pytest.raises(CollectiveError, match="expected 3 contributions"):
            global_sum(machine, contributions, shape=(4,), itemsize=8)
        contributions = {0: np.zeros(4), 1: np.zeros(4), 3: np.zeros(4)}
        with pytest.raises(CollectiveError, match="missing contribution from rank 2"):
            global_sum(machine, contributions, shape=(4,), itemsize=8)

    def test_wrong_shape_rejected(self):
        machine = Machine(2)
        contributions = {0: np.zeros(4), 1: np.zeros(5)}
        with pytest.raises(CollectiveError, match="shape"):
            global_sum(machine, contributions, shape=(4,), itemsize=8)

    def test_synchronizes_clocks_before_charging(self):
        machine = Machine(2)
        machine.charge_compute(0, 1e9)  # rank 0 runs ahead
        ahead = machine.clocks[0].now
        global_sum(machine, None, shape=(4,), itemsize=8)
        # a blocking collective makes the slowest processor set the pace
        assert machine.clocks[1].now > ahead - 1e-12


class TestBroadcast:
    def test_returns_payload_and_charges_everyone(self):
        machine = Machine(4)
        data = np.arange(6, dtype=np.float64)
        out = broadcast(machine, data, shape=(6,), itemsize=8)
        np.testing.assert_array_equal(out, data)
        assert machine.network.collectives == 1
        assert all(machine.clocks[r].now > 0 for r in range(4))

    def test_estimate_mode_returns_none(self):
        machine = Machine(2)
        assert broadcast(machine, None, shape=(6,), itemsize=8) is None
        assert machine.network.collectives == 1

    def test_shape_mismatch_rejected(self):
        machine = Machine(2)
        with pytest.raises(CollectiveError, match="broadcast"):
            broadcast(machine, np.zeros(5), shape=(6,), itemsize=8)
