"""Tests for the hierarchical io.stat surface."""

import pytest

from repro.block.device_models import SSD_NEW
from repro.cgroup import UNATTRIBUTED_DEV as DEV
from repro.cgroup import CgroupTree
from repro.obs.iostat import IOStat
from repro.testbed import Testbed


def account(cgroup, *, rbytes=0, wbytes=0):
    """Charge IO to one cgroup the way the block layer does (on the
    unattributed device, ``DEV``)."""
    reads, writes = rbytes // 4096, wbytes // 4096
    for _ in range(reads):
        cgroup.stats.account(False, 4096)
    for _ in range(writes):
        cgroup.stats.account(True, 4096)


class TestAggregation:
    def test_children_sum_into_parents(self):
        tree = CgroupTree()
        parent = tree.create("workload.slice")
        a = tree.create("workload.slice/a")
        b = tree.create("workload.slice/b")
        account(a, rbytes=8192)
        account(b, rbytes=4096, wbytes=12288)
        account(parent, wbytes=4096)

        snap = IOStat(tree).device_snapshot()
        assert snap["workload.slice/a"][DEV]["rbytes"] == 8192
        assert snap["workload.slice/b"][DEV]["wbytes"] == 12288
        # Recursive: the parent reports its own IO plus both children.
        assert snap["workload.slice"][DEV]["rbytes"] == 12288
        assert snap["workload.slice"][DEV]["wbytes"] == 16384
        assert snap["workload.slice"][DEV]["rios"] == 3
        assert snap["workload.slice"][DEV]["wios"] == 4
        # ... and the root sees everything.
        assert snap[""][DEV]["rbytes"] == 12288
        assert snap[""][DEV]["wbytes"] == 16384

    def test_removal_folds_into_parent(self):
        """Counters survive cgroup removal (kernel rstat flush-on-release)."""
        tree = CgroupTree()
        tree.create("workload.slice")
        child = tree.create("workload.slice/dying")
        iostat = IOStat(tree)
        account(child, rbytes=65536, wbytes=4096)

        before = iostat.device_snapshot()["workload.slice"][DEV]
        tree.remove("workload.slice/dying")
        after = iostat.device_snapshot()

        assert "workload.slice/dying" not in after
        assert after["workload.slice"][DEV]["rbytes"] == before["rbytes"] == 65536
        assert after["workload.slice"][DEV]["wbytes"] == before["wbytes"] == 4096
        assert after[""][DEV]["rbytes"] == 65536

    def test_cascading_removal_carries_inherited_stats(self):
        """A removed parent carries its own dead-children stats upward."""
        tree = CgroupTree()
        tree.create("a")
        tree.create("a/b")
        grandchild = tree.create("a/b/c")
        iostat = IOStat(tree)
        account(grandchild, rbytes=4096)

        tree.remove("a/b/c")
        tree.remove("a/b")
        snap = iostat.device_snapshot()
        assert snap["a"][DEV]["rbytes"] == 4096
        assert snap[""][DEV]["rbytes"] == 4096

    def test_collector_built_after_removal_sees_the_history(self):
        """Folding is the tree's job: no collector has to be watching."""
        tree = CgroupTree()
        tree.create("workload.slice")
        child = tree.create("workload.slice/dying")
        account(child, rbytes=65536, wbytes=4096)
        child.stats.device(DEV).errors = 2
        tree.remove("workload.slice/dying")

        snap = IOStat(tree).device_snapshot()
        assert snap["workload.slice"][DEV]["rbytes"] == 65536
        assert snap["workload.slice"][DEV]["wbytes"] == 4096
        assert snap["workload.slice"][DEV]["errors"] == 2
        assert snap[""][DEV]["rios"] == 16

    def test_hook_only_observes_registered_tree(self):
        tree = CgroupTree()
        other = CgroupTree()
        iostat = IOStat(tree)
        doomed = other.create("x")
        account(doomed, rbytes=4096)
        other.remove("x")  # not iostat's tree; must not be folded anywhere
        assert iostat.device_snapshot()[""] == {}


class TestCostKeys:
    def test_iocost_cost_keys_populate(self):
        bed = Testbed(SSD_NEW.scaled(0.1), "iocost", seed=5)
        a = bed.add_cgroup("workload.slice/a", weight=200)
        bed.add_cgroup("workload.slice/b", weight=100)
        bed.saturate(a, depth=16, stop_at=0.4)
        bed.sim.run(until=0.5)
        bed.controller.detach()

        iostat = IOStat(bed.cgroups, {
            layer.dev: layer.controller for layer in bed.devices.values()
        })
        entry = iostat.device_snapshot()["workload.slice/a"][bed.layer.dev]
        assert entry["cost.vrate"] == pytest.approx(bed.controller.vrate)
        assert entry["cost.usage"] > 0
        assert entry["cost.ios"] > 0
        assert entry["cost.wait"] > 0
        assert entry["cost.indebt"] == 0.0
        assert entry["cost.indelay"] == 0.0
        # The idle sibling saw no IO.
        idle = iostat.device_snapshot()["workload.slice/b"][bed.layer.dev]
        assert idle["cost.usage"] == 0.0
        assert idle["rbytes"] == 0

    def test_lifetime_usage_survives_period_resets(self):
        """Satellite: per-period resets must not zero the surfaced totals."""
        bed = Testbed(SSD_NEW.scaled(0.1), "iocost", seed=5)
        a = bed.add_cgroup("workload.slice/a")
        bed.saturate(a, depth=16, stop_at=1.0)
        iostat = IOStat(bed.cgroups, {
            layer.dev: layer.controller for layer in bed.devices.values()
        })

        bed.sim.run(until=0.3)
        early = iostat.device_snapshot()["workload.slice/a"][bed.layer.dev]["cost.usage"]
        bed.sim.run(until=0.9)
        late = iostat.device_snapshot()["workload.slice/a"][bed.layer.dev]["cost.usage"]
        bed.controller.detach()

        assert early > 0
        # Monotone and still growing long after many planning periods
        # (period = 50ms, so ~12 in-place resets happened in between).
        assert late > early * 2

    def test_throttle_counter_key(self):
        bed = Testbed(SSD_NEW.scaled(0.02), "iocost", seed=5)
        a = bed.add_cgroup("workload.slice/a")
        bed.saturate(a, depth=64, stop_at=0.4)
        bed.sim.run(until=0.5)
        bed.controller.detach()
        iostat = IOStat(bed.cgroups, {
            layer.dev: layer.controller for layer in bed.devices.values()
        })
        entry = iostat.device_snapshot()["workload.slice/a"][bed.layer.dev]
        assert entry["throttled"] > 0
