"""Tests for the Testbed facade (and top-level package API)."""

import dataclasses

import pytest

import repro
from repro.analysis.stats import RateMeter
from repro.block.bio import Bio, IOOp
from repro.block.device import DeviceSpec
from repro.core.controller import IOCost
from repro.core.qos import QoSParams
from repro.testbed import Testbed, make_controller

FIXED_QOS = QoSParams(
    read_lat_target=None,
    write_lat_target=None,
    vrate_min=1.0,
    vrate_max=1.0,
    period=0.025,
)

FAST = DeviceSpec(
    name="tbdev",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
    nr_slots=64,
)


def test_package_exports():
    assert repro.__version__
    for name in ("IOCost", "Testbed", "QoSParams", "ModelParams", "profile_device"):
        assert hasattr(repro, name)


def test_device_by_catalogue_name():
    tb = Testbed(device="hdd", controller="none")
    assert tb.spec.name == "hdd"


def test_memory_manager_draws_from_the_machine_seed():
    # Reclaim victims come from the machine's "mm" stream: two seeds, two
    # streams; one seed, one stream.
    def first_draws(seed):
        bed = Testbed(device=FAST, controller="none", mem_bytes=64 << 20, seed=seed)
        return bed.mm._rng.random(4).tolist()

    assert first_draws(1) != first_draws(2)
    assert first_draws(1) == first_draws(1)


def test_unknown_controller_rejected():
    with pytest.raises(ValueError):
        make_controller("cfq", FAST)


def test_quickstart_proportional_split():
    tb = Testbed(device=FAST, controller="iocost", qos=FIXED_QOS)
    high = tb.add_cgroup("workload.slice/high", weight=200)
    low = tb.add_cgroup("workload.slice/low", weight=100)
    tb.saturate(high, stop_at=0.5)
    tb.saturate(low, stop_at=0.5)
    tb.run(0.5)
    assert tb.iops(high) / tb.iops(low) == pytest.approx(2.0, rel=0.1)
    tb.detach()


def test_run_windows_reset_measurement():
    tb = Testbed(device=FAST, controller="none")
    group = tb.add_cgroup("workload.slice/a")
    tb.saturate(group, stop_at=0.2)
    tb.run(0.2)
    first = tb.iops(group)
    tb.run(0.2)  # workload stopped: fresh window sees ~nothing
    assert tb.iops(group) < first / 10


def test_set_weight_routes_through_iocost():
    tb = Testbed(device=FAST, controller="iocost", qos=FIXED_QOS)
    assert isinstance(tb.controller, IOCost)
    group = tb.add_cgroup("workload.slice/a", weight=100)
    tb.set_weight(group, 300)
    assert group.weight == 300


def test_memory_manager_optional():
    assert Testbed(device=FAST, controller="none").mm is None
    tb = Testbed(device=FAST, controller="none", mem_bytes=1 << 28)
    assert tb.mm is not None
    assert tb.mm.total_bytes == 1 << 28


def test_iops_without_run_raises():
    tb = Testbed(device=FAST, controller="none")
    group = tb.add_cgroup("workload.slice/a")
    with pytest.raises(ValueError):
        tb.iops(group)


def test_latency_percentile_exposed():
    tb = Testbed(device=FAST, controller="none")
    group = tb.add_cgroup("workload.slice/a")
    idle = tb.add_cgroup("workload.slice/idle")
    tb.saturate(group, stop_at=0.1)
    tb.run(0.1)
    assert tb.latency_percentile(group, 50) > 0
    # Reading makes nothing: no record, so no line in an io.stat walk.
    assert tb.latency_percentile(idle, 50) is None
    assert idle.stats.per_device == {}


def test_sliding_stores_hold_one_window_whoever_reads_them():
    """Under iocost nothing queries the layer's windows at full width, and
    nothing ever queries this meter: each store still holds exactly the
    samples of its last window (it used to hold every sample ever made)."""
    slow = dataclasses.replace(
        FAST,
        **dict.fromkeys(
            ("srv_rand_read", "srv_seq_read", "srv_rand_write", "srv_seq_write"), 5e-3
        ),
    )
    tb = Testbed(device=slow, controller="iocost")
    group = tb.add_cgroup("workload.slice/a")
    meter = RateMeter(window=1.0)
    done = {IOOp.READ: [], IOOp.WRITE: []}

    def submit(op, sector):
        tb.layer.submit(Bio(op, 4096, sector, group), on_done=completed)

    def completed(bio):
        done[bio.op].append(tb.sim.now)
        meter.record(tb.sim.now)
        if tb.sim.now < 3.2:  # three windows and a bit
            submit(bio.op, bio.sector + 64)

    for index, op in enumerate((IOOp.READ, IOOp.READ, IOOp.WRITE, IOOp.WRITE)):
        submit(op, index << 20)
    tb.run(3.5)
    tb.detach()

    def inside(times, window):
        return sum(time >= times[-1] - window for time in times)

    reads, writes = done[IOOp.READ], done[IOOp.WRITE]
    both = sorted(reads + writes)
    assert len(both) > 2 * inside(both, 1.0) > 0  # most samples have left
    stores = ((tb.layer.read_latency, reads), (tb.layer.write_latency, writes), (meter, both))
    for store, times in stores:
        assert len(store) == inside(times, 1.0)
    # The group's samples are every sample of both logs.
    key = group.stats.device(tb.layer.dev).latency
    logs = tb.layer.read_latency, tb.layer.write_latency
    fresh = [log._columns(both[-1], 1.0)[1] for log in logs]
    assert sum(int((keys == key).sum()) for keys in fresh) == inside(both, 1.0)
    # The backing arrays hold at most an eighth of a window more.
    for store, times in stores:
        stored = len(store._data) // store._width
        assert stored <= inside(times, 1.0 + 1.0 / store.EVICTIONS)
