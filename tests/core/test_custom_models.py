"""Tests for the custom (eBPF-style) cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.bio import Bio, IOOp
from repro.cgroup import CgroupTree
from repro.core.custom_models import (
    CallableCostModel,
    PiecewiseLinearCostModel,
    TableCostModel,
)
from repro.core.cost_model import CostModel


@pytest.fixture
def cgroup():
    return CgroupTree().create("a")


def bio_of(cgroup, nbytes, is_write=False, sequential=False):
    bio = Bio(IOOp.WRITE if is_write else IOOp.READ, nbytes, 0, cgroup)
    bio.sequential = sequential
    return bio


class TestCallableCostModel:
    def test_wraps_function(self, cgroup):
        model = CallableCostModel(lambda bio: bio.nbytes * 1e-9)
        assert model.cost(bio_of(cgroup, 4096)) == pytest.approx(4.096e-6)

    def test_satisfies_protocol(self):
        assert isinstance(CallableCostModel(lambda b: 1.0), CostModel)

    def test_nonpositive_cost_rejected(self, cgroup):
        model = CallableCostModel(lambda bio: 0.0)
        with pytest.raises(ValueError):
            model.cost(bio_of(cgroup, 4096))


class TestTableCostModel:
    TABLE = {
        (False, False): [(4096, 100e-6), (65536, 250e-6), (1 << 20, 2e-3)],
        (True, False): [(4096, 150e-6), (1 << 20, 3e-3)],
    }

    def test_bucket_selection(self, cgroup):
        model = TableCostModel(self.TABLE)
        assert model.cost(bio_of(cgroup, 4096)) == 100e-6
        assert model.cost(bio_of(cgroup, 8192)) == 250e-6
        assert model.cost(bio_of(cgroup, 65536)) == 250e-6
        assert model.cost(bio_of(cgroup, 1 << 20)) == 2e-3

    def test_beyond_table_extrapolates_by_rate(self, cgroup):
        model = TableCostModel(self.TABLE)
        cost = model.cost(bio_of(cgroup, 2 << 20))
        assert cost == pytest.approx(4e-3)

    def test_missing_class_falls_back(self, cgroup):
        model = TableCostModel(self.TABLE)
        # Sequential write has no table; falls back to the random-write one.
        assert model.cost(bio_of(cgroup, 4096, is_write=True, sequential=True)) == 150e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            TableCostModel({})
        with pytest.raises(ValueError):
            TableCostModel({(False, False): []})
        with pytest.raises(ValueError):
            TableCostModel({(False, False): [(4096, -1.0)]})

    def test_satisfies_protocol(self):
        assert isinstance(TableCostModel(self.TABLE), CostModel)


class TestPiecewiseLinear:
    POINTS = {(False, False): [(4096, 100e-6), (65536, 400e-6), (1 << 20, 2e-3)]}

    def test_interpolation(self, cgroup):
        model = PiecewiseLinearCostModel(self.POINTS)
        mid = model.cost(bio_of(cgroup, (4096 + 65536) // 2))
        assert 100e-6 < mid < 400e-6
        assert mid == pytest.approx(250e-6, rel=0.05)

    def test_clamps_below_first_point(self, cgroup):
        model = PiecewiseLinearCostModel(self.POINTS)
        assert model.cost(bio_of(cgroup, 512)) == 100e-6

    def test_extrapolates_above_last_point(self, cgroup):
        model = PiecewiseLinearCostModel(self.POINTS)
        cost = model.cost(bio_of(cgroup, 2 << 20))
        assert cost > 2e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCostModel({})
        with pytest.raises(ValueError):
            PiecewiseLinearCostModel({(False, False): [(4096, 1e-4)]})

    @given(nbytes=st.integers(min_value=1, max_value=4 << 20))
    @settings(max_examples=100)
    def test_cost_monotone_in_size(self, nbytes):
        model = PiecewiseLinearCostModel(self.POINTS)
        group = CgroupTree().create("a")
        smaller = model.cost(bio_of(group, nbytes))
        larger = model.cost(bio_of(group, nbytes + 4096))
        assert larger >= smaller - 1e-15


class TestIntegrationWithIOCost:
    def test_iocost_accepts_custom_model(self, cgroup):
        import numpy as np

        from repro.block.device import Device, DeviceSpec
        from repro.block.layer import BlockLayer
        from repro.core.controller import IOCost
        from repro.core.qos import QoSParams
        from repro.sim import Simulator

        spec = DeviceSpec(
            name="x", parallelism=4,
            srv_rand_read=100e-6, srv_seq_read=100e-6,
            srv_rand_write=100e-6, srv_seq_write=100e-6,
            read_bw=1e9, write_bw=1e9, sigma=0.0, nr_slots=64,
        )
        sim = Simulator()
        device = Device(sim, spec, np.random.default_rng(0))
        model = TableCostModel({(False, False): [(4096, 25e-6), (1 << 20, 2e-3)]})
        controller = IOCost(
            model,
            qos=QoSParams(read_lat_target=None, write_lat_target=None,
                          vrate_min=1.0, vrate_max=1.0, period=0.025),
        )
        layer = BlockLayer(sim, device, controller)
        group = CgroupTree().create("w")
        done = []
        layer.submit(Bio(IOOp.READ, 4096, 8, group), on_done=done.append)
        sim.run(until=0.01)
        controller.detach()
        assert done
        assert done[0].abs_cost == 25e-6
