"""Tests for the shared journal and its §3.5 entanglement."""

import numpy as np
import pytest

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.debt import SwapChargeMode
from repro.core.qos import QoSParams
from repro.fs.journal import Journal
from repro.sim import Simulator
from repro.workloads.synthetic import ClosedLoopWorkload

SPEC = DeviceSpec(
    name="jdev",
    parallelism=4,
    srv_rand_read=100e-6,
    srv_seq_read=100e-6,
    srv_rand_write=100e-6,
    srv_seq_write=100e-6,
    read_bw=500e6,
    write_bw=500e6,
    sigma=0.0,
    nr_slots=64,
)


def make_env(controller=None):
    sim = Simulator()
    device = Device(sim, SPEC, np.random.default_rng(0))
    controller = controller or NoopController()
    layer = BlockLayer(sim, device, controller)
    journal = Journal(sim, layer, commit_interval=0.05)
    tree = CgroupTree()
    return sim, layer, journal, tree


def run_op(sim, gen):
    proc = sim.process(gen)
    while not proc.done:
        sim.step()
    return proc


class TestCommitMachinery:
    def test_fsync_commits_pending_records(self):
        sim, layer, journal, tree = make_env()
        group = tree.create("a")
        journal.log(group, 4096)
        journal.log(group, 8192)
        run_op(sim, journal.fsync(group))
        assert journal.stats.commits == 1
        assert journal.stats.records_written == 2
        assert journal.stats.forced_commits == 1
        assert journal.pending_records == 0
        journal.close()

    def test_periodic_commit_without_fsync(self):
        sim, layer, journal, tree = make_env()
        group = tree.create("a")
        journal.log(group, 4096)
        sim.run(until=0.2)
        assert journal.stats.commits >= 1
        assert journal.stats.forced_commits == 0
        journal.close()

    def test_fsync_with_empty_journal_returns_immediately(self):
        sim, layer, journal, tree = make_env()
        group = tree.create("a")
        start = sim.now
        run_op(sim, journal.fsync(group))
        assert sim.now == start
        assert journal.stats.commits == 0
        journal.close()

    def test_journal_bios_carry_flag_and_owner(self):
        sim, layer, journal, tree = make_env()
        a = tree.create("a")
        b = tree.create("b")
        journal.log(a, 4096)
        journal.log(b, 4096)
        run_op(sim, journal.fsync(a))
        assert a.stats.device(layer.dev).wbytes >= 4096
        assert b.stats.device(layer.dev).wbytes >= 4096
        journal.close()

    def test_concurrent_fsync_joins_inflight_commit(self):
        sim, layer, journal, tree = make_env()
        a = tree.create("a")
        journal.log(a, 4096)
        first = sim.process(journal.fsync(a))
        second = sim.process(journal.fsync(a))
        sim.run(until=0.02)
        assert first.done and second.done
        assert journal.stats.commits == 1
        journal.close()

    def test_invalid_inputs(self):
        sim, layer, journal, tree = make_env()
        group = tree.create("a")
        with pytest.raises(ValueError):
            journal.log(group, 0)
        with pytest.raises(ValueError):
            Journal(sim, layer, commit_interval=0.0)
        journal.close()


class TestPriorityInversion:
    def make_iocost_env(self, swap_mode):
        sim = Simulator()
        device = Device(sim, SPEC, np.random.default_rng(0))
        controller = IOCost(
            LinearCostModel(ModelParams.from_device_spec(SPEC)),
            qos=QoSParams(
                read_lat_target=None, write_lat_target=None,
                vrate_min=1.0, vrate_max=1.0, period=0.025,
            ),
            swap_mode=swap_mode,
        )
        layer = BlockLayer(sim, device, controller)
        journal = Journal(sim, layer, commit_interval=10.0)  # fsync-driven
        tree = CgroupTree()
        return sim, layer, controller, journal, tree

    def fsync_duration(self, swap_mode):
        sim, layer, controller, journal, tree = self.make_iocost_env(swap_mode)
        hog = tree.create("hog", weight=25)
        innocent = tree.create("innocent", weight=500)
        # The hog saturates its tiny budget with its own writes and has
        # logged a large batch of journal records.
        ClosedLoopWorkload(
            sim, layer, hog, op=IOOp.WRITE, depth=64, stop_at=5.0, seed=1
        ).start()
        sim.run(until=0.2)
        for _ in range(64):
            journal.log(hog, 4096)
        journal.log(innocent, 4096)
        start = sim.now
        run_op(sim, journal.fsync(innocent))
        duration = sim.now - start
        journal.close()
        controller.detach()
        return duration

    def test_debt_mode_avoids_journal_inversion(self):
        # The innocent cgroup's fsync waits on the hog's journal records.
        # Production debt mode issues them immediately; origin-throttle
        # queues them behind the hog's exhausted budget.
        fast = self.fsync_duration(SwapChargeMode.DEBT)
        slow = self.fsync_duration(SwapChargeMode.ORIGIN_THROTTLE)
        assert fast < 0.5 * slow
