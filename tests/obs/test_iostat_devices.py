"""Golden-output tests for per-device io.stat on a two-device machine.

Covers the satellite acceptance: cgroup2 format parity (one ``maj:min``
line per device, kernel counter order), per-device rstat folding on cgroup
removal, and ``cost.*`` keys appearing only on iocost-managed devices.
"""

import numpy as np
import pytest

from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.obs.iostat import IOStat
from repro.sim import Simulator
from repro.testbed import Testbed

#: Deterministic device: no service noise, no GC, no tail.
QUIET = DeviceSpec(
    name="quiet",
    parallelism=8,
    srv_rand_read=100e-6,
    srv_seq_read=90e-6,
    srv_rand_write=120e-6,
    srv_seq_write=100e-6,
    read_bw=1e9,
    write_bw=1e9,
    sigma=0.0,
)


def two_device_machine():
    sim = Simulator()
    tree = CgroupTree()
    layers = {}
    for index, name in enumerate(("vda", "vdb")):
        device = Device(
            sim, QUIET, np.random.default_rng(index), name=name,
            devno=f"8:{16 * index}",
        )
        layers[name] = BlockLayer(sim, device, NoopController())
    return sim, tree, layers


class TestGoldenFormat:
    def test_one_line_per_device_kernel_order(self):
        sim, tree, layers = two_device_machine()
        app = tree.create("workload.slice/app")
        layers["vda"].submit(Bio(IOOp.READ, 4096, 8, app))
        layers["vdb"].submit(Bio(IOOp.WRITE, 65536, 8, app))
        layers["vdb"].submit(Bio(IOOp.WRITE, 65536, 136, app))
        sim.run(until=1.0)

        rendered = IOStat(tree).render("workload.slice/app")
        assert rendered == (
            "8:0 rbytes=4096 wbytes=0 rios=1 wios=0 dbytes=0 dios=0 wait_usec=0"
            " errors=0 requeues=0\n"
            "8:16 rbytes=0 wbytes=131072 rios=0 wios=2 dbytes=0 dios=0"
            " wait_usec=0 errors=0 requeues=0"
        )

    def test_parent_renders_recursive_per_device(self):
        sim, tree, layers = two_device_machine()
        a = tree.create("workload.slice/a")
        b = tree.create("workload.slice/b")
        layers["vda"].submit(Bio(IOOp.READ, 4096, 8, a))
        layers["vdb"].submit(Bio(IOOp.READ, 8192, 8, b))
        sim.run(until=1.0)

        entry = IOStat(tree).device_snapshot()["workload.slice"]
        assert entry["8:0"]["rbytes"] == 4096
        assert entry["8:16"]["rbytes"] == 8192
        # One line per device and no cross-device line, as in the kernel.
        assert set(entry) == {"8:0", "8:16"}


class TestSequentialCursorPerDevice:
    def test_cursor_does_not_carry_across_devices(self):
        """One cgroup on two devices: a bio on vdb that starts where the
        last vda bio ended continues nothing."""
        sim, tree, layers = two_device_machine()
        app = tree.create("app")
        first = Bio(IOOp.READ, 4096, 8, app)
        elsewhere = Bio(IOOp.READ, 4096, first.end_sector, app)
        successor = Bio(IOOp.READ, 4096, first.end_sector, app)
        layers["vda"].submit(first)
        layers["vdb"].submit(elsewhere)
        layers["vda"].submit(successor)
        assert not first.sequential and not elsewhere.sequential
        assert successor.sequential  # vdb's bio did not move vda's cursor
        assert app.stats.device("8:0").next_sector == successor.end_sector
        assert app.stats.device("8:16").next_sector == elsewhere.end_sector
        sim.run(until=1.0)


class TestRemovalFolding:
    def test_folding_preserves_device_attribution(self):
        sim, tree, layers = two_device_machine()
        iostat = IOStat(tree)
        tree.create("workload.slice")
        dying = tree.create("workload.slice/dying")
        layers["vda"].submit(Bio(IOOp.READ, 4096, 8, dying))
        layers["vdb"].submit(Bio(IOOp.WRITE, 65536, 8, dying))
        sim.run(until=1.0)

        tree.remove("workload.slice/dying")
        entry = iostat.device_snapshot()["workload.slice"]
        assert "workload.slice/dying" not in iostat.device_snapshot()
        assert entry["8:0"]["rbytes"] == 4096
        assert entry["8:0"]["wbytes"] == 0
        assert entry["8:16"]["wbytes"] == 65536
        # The root sees the same per-device split.
        root = iostat.device_snapshot()[""]
        assert root["8:0"]["rbytes"] == 4096
        assert root["8:16"]["wbytes"] == 65536

    def test_cascading_removal_carries_device_records(self):
        sim, tree, layers = two_device_machine()
        tree.create("a")
        tree.create("a/b")
        grandchild = tree.create("a/b/c")
        layers["vdb"].submit(Bio(IOOp.READ, 4096, 8, grandchild))
        sim.run(until=1.0)

        tree.remove("a/b/c")
        tree.remove("a/b")
        entry = IOStat(tree).device_snapshot()["a"]  # built after the removals
        assert entry["8:16"]["rbytes"] == 4096
        assert "8:0" not in entry


class TestCostKeysPerDevice:
    def test_cost_keys_only_on_iocost_managed_devices(self):
        bed = Testbed(
            devices={"vda": QUIET, "vdb": QUIET},
            controllers={"vda": "iocost", "vdb": "none"},
            seed=3,
        )
        app = bed.add_cgroup("workload.slice/app")
        bed.saturate(app, device="vda", depth=8, stop_at=0.3)
        bed.sim.run(until=0.4)
        bed.detach()

        iostat = IOStat(bed.cgroups, {
            layer.dev: layer.controller for layer in bed.devices.values()
        })
        entry = iostat.device_snapshot()["workload.slice/app"]
        iocost_keys = {k for k in entry["8:0"] if k.startswith("cost.")}
        assert {"cost.vrate", "cost.usage", "cost.ios", "cost.wait"} <= iocost_keys
        assert not any(k.startswith("cost.") for k in entry["8:16"])
        # Both managed devices carry the shared throttle counter.
        assert "throttled" in entry["8:0"] and "throttled" in entry["8:16"]

        rendered = iostat.render("workload.slice/app")
        vda_line, vdb_line = rendered.splitlines()
        assert vda_line.startswith("8:0 ") and "cost.vrate=" in vda_line
        assert vdb_line.startswith("8:16 ") and "cost." not in vdb_line

    def test_cost_wait_is_this_devices_wait(self):
        """cost.wait on a device's line is the wait on that device, not the
        cgroup's wait summed over every device."""
        bed = Testbed(
            devices={"vda": QUIET, "vdb": QUIET},
            controllers={"vda": "iocost", "vdb": "iocost"},
            seed=3,
        )
        app = bed.add_cgroup("workload.slice/app")
        rival = bed.add_cgroup("workload.slice/rival")
        bed.saturate(app, device="vda", depth=1, stop_at=0.3)
        bed.saturate(app, device="vdb", depth=64, stop_at=0.3)
        bed.saturate(rival, device="vdb", depth=64, stop_at=0.3)
        bed.sim.run(until=0.4)
        bed.detach()

        iostat = IOStat(bed.cgroups, {
            layer.dev: layer.controller for layer in bed.devices.values()
        })
        entry = iostat.device_snapshot()["workload.slice/app"]
        assert entry["8:16"]["wait_usec"] > 100 * entry["8:0"]["wait_usec"]
        for dev in ("8:0", "8:16"):
            assert entry[dev]["cost.wait"] * 1e6 == pytest.approx(entry[dev]["wait_usec"])
        # Reading an untouched cgroup's cost keys makes no record on it.
        assert bed.cgroups.lookup("system.slice").stats.per_device == {}

    def test_render_counters_are_integers(self):
        sim, tree, layers = two_device_machine()
        app = tree.create("a")
        layers["vda"].submit(Bio(IOOp.READ, 4096, 8, app))
        sim.run(until=1.0)
        line = IOStat(tree).render("a")
        for token in line.split()[1:]:
            key, value = token.split("=")
            assert "." not in value, (key, value)
