"""Tests for the linear cost model, including the paper's Figure 6 numbers,
and for the protocol any other model plugs into IOCost through."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.bio import Bio, IOOp
from repro.block.device_models import SSD_NEW
from repro.cgroup import CgroupTree
from repro.core.controller import IOCost
from repro.core.cost_model import CostModel, LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.testbed import Testbed

# The exact configuration shown in Figure 6 of the paper.
FIG6 = ModelParams(
    rbps=488636629,
    rseqiops=8932,
    rrandiops=8518,
    wbps=427891549,
    wseqiops=28755,
    wrandiops=21940,
)


@pytest.fixture
def cgroup():
    return CgroupTree().create("a")


def read_bio(cgroup, nbytes=4096, sequential=False):
    bio = Bio(IOOp.READ, nbytes, 0, cgroup)
    bio.sequential = sequential
    return bio


def write_bio(cgroup, nbytes=4096, sequential=False):
    bio = Bio(IOOp.WRITE, nbytes, 0, cgroup)
    bio.sequential = sequential
    return bio


class TestFigure6Translation:
    """Paper: 'For reads, this translates to 2.05ns/B of size_rate,
    sequential base cost of 104us and random base cost of 109us.'"""

    def test_read_size_rate(self):
        assert FIG6.r_size_rate == pytest.approx(2.05e-9, rel=0.01)

    def test_read_seq_base(self):
        assert FIG6.r_seq_base == pytest.approx(104e-6, rel=0.01)

    def test_read_rand_base(self):
        assert FIG6.r_rand_base == pytest.approx(109e-6, rel=0.01)

    def test_random_read_cost_example(self, cgroup):
        # Paper: "a random read bio of 32KB would cost 109us + 32 * 4096 *
        # 2.05ns" — i.e. 32 pages = 128 KiB.  (The paper's printed total of
        # 352us does not match its own formula; the formula gives ~377us.)
        model = LinearCostModel(FIG6)
        cost = model.cost(read_bio(cgroup, nbytes=32 * 4096))
        expected = FIG6.r_rand_base + 32 * 4096 * FIG6.r_size_rate
        assert cost == pytest.approx(expected)
        assert cost == pytest.approx(377e-6, rel=0.02)

    def test_write_params_translate(self):
        assert FIG6.w_size_rate == pytest.approx(1 / 427891549)
        assert FIG6.w_seq_base == pytest.approx(1 / 28755 - 4096 / 427891549)


class TestLinearCostModel:
    def test_base_selected_by_class(self, cgroup):
        model = LinearCostModel(FIG6)
        rand = model.cost(read_bio(cgroup, sequential=False))
        seq = model.cost(read_bio(cgroup, sequential=True))
        assert rand > seq
        assert rand == pytest.approx(FIG6.r_rand_base + 4096 * FIG6.r_size_rate)

    def test_write_uses_write_rate(self, cgroup):
        model = LinearCostModel(FIG6)
        cost = model.cost(write_bio(cgroup, nbytes=1 << 20, sequential=True))
        expected = FIG6.w_seq_base + (1 << 20) * FIG6.w_size_rate
        assert cost == pytest.approx(expected)

    def test_cost_monotone_in_size(self, cgroup):
        model = LinearCostModel(FIG6)
        small = model.cost(read_bio(cgroup, nbytes=4096))
        large = model.cost(read_bio(cgroup, nbytes=65536))
        assert large > small

    def test_replace_params_online(self, cgroup):
        model = LinearCostModel(FIG6)
        before = model.cost(read_bio(cgroup))
        model.replace_params(FIG6.scaled(2.0))
        after = model.cost(read_bio(cgroup))
        assert after == pytest.approx(before / 2, rel=0.01)

    def test_scaled_halves_cost(self, cgroup):
        # Claiming the device is half as capable doubles every cost.
        half = LinearCostModel(FIG6.scaled(0.5))
        full = LinearCostModel(FIG6)
        bio = read_bio(cgroup, nbytes=16384)
        assert half.cost(bio) == pytest.approx(2 * full.cost(bio), rel=0.01)


class TestModelParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ModelParams(rbps=0, rseqiops=1, rrandiops=1, wbps=1, wseqiops=1, wrandiops=1)

    def test_base_clamped_at_zero(self):
        # Transfer-bound device: 4k IOPS implies negative base; clamp to 0.
        params = ModelParams(
            rbps=1e6, rseqiops=1e6, rrandiops=1e6, wbps=1e6, wseqiops=1e6, wrandiops=1e6
        )
        assert params.r_seq_base == 0.0

    def test_from_device_spec_matches_peaks(self, cgroup):
        params = ModelParams.from_device_spec(SSD_NEW)
        assert params.rrandiops == pytest.approx(SSD_NEW.peak_rand_read_iops)
        assert params.rbps == SSD_NEW.read_bw
        # A perfect model prices a 4k random read at parallelism-normalised
        # device time: cost * peak_iops == 1 second of occupancy per second.
        model = LinearCostModel(params)
        cost = model.cost(read_bio(cgroup))
        assert cost * SSD_NEW.peak_rand_read_iops == pytest.approx(1.0, rel=0.01)

    @given(factor=st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=30)
    def test_scaled_inverse_property(self, factor):
        scaled = FIG6.scaled(factor)
        assert scaled.r_size_rate == pytest.approx(FIG6.r_size_rate / factor)


class SizeOnlyModel:
    """No LinearCostModel: one rate for every IO class."""

    def cost(self, bio):
        return bio.nbytes * 5e-9


def test_iocost_accepts_custom_model():
    # The eBPF escape hatch is the CostModel protocol: IOCost prices every
    # bio by calling the model it was given, whatever its class.
    fixed = QoSParams(read_lat_target=None, write_lat_target=None,
                      vrate_min=1.0, vrate_max=1.0, period=0.025)
    bed = Testbed("ssd_new", IOCost(SizeOnlyModel(), qos=fixed))
    group = bed.add_cgroup("workload.slice/w")
    for index in range(10):
        bed.layer.submit(Bio(IOOp.READ, 4096 * (index + 1), 8 * index, group))
    bed.run(0.01)
    bed.detach()
    assert isinstance(SizeOnlyModel(), CostModel)
    assert bed.layer.completed_ios == 10
    usage = bed.controller.cost_stat(group)["cost.usage"]
    assert usage == pytest.approx(55 * 4096 * 5e-9)
