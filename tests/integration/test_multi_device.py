"""Acceptance tests for multi-device machines.

One cgroup tree, several block devices, one controller instance per device
— the kernel's per-device iocost instantiation.  Covers the PR's
acceptance criteria: independent per-device controllers, per-device
io.stat, swap routed to a second device, unchanged single-device API, and
topology-stable determinism (adding an idle device never perturbs the
streams of existing ones).
"""

import pytest

from repro.block.device import DeviceSpec
from repro.block.device_models import SSD_NEW
from repro.core.qos import QoSParams
from repro.obs.iostat import IOStat
from repro.testbed import Testbed
from repro.tools.monitor import Monitor

MB = 1024 * 1024

FIXED_QOS = QoSParams(
    read_lat_target=None,
    write_lat_target=None,
    vrate_min=1.0,
    vrate_max=1.0,
    period=0.025,
)

FAST = DeviceSpec(
    name="mdev",
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


def run_op(bed, gen):
    proc = bed.sim.process(gen)
    while not proc.done:
        if not bed.sim.step():
            raise AssertionError("simulation drained before operation finished")
    return proc


class TestConstruction:
    def test_single_device_api_unchanged(self):
        bed = Testbed(device=FAST, controller="iocost", qos=FIXED_QOS)
        assert type(bed.devices) is dict
        assert list(bed.devices) == ["vda"]
        assert bed.devices["vda"] is bed.layer
        assert bed.layer.dev == "8:0"
        assert bed.controller is bed.layer.controller
        assert bed.device is bed.layer.device
        assert bed.spec is bed.device.spec
        bed.detach()

    def test_two_devices_get_stable_devnos(self):
        bed = Testbed(
            devices={"vda": FAST, "vdb": SSD_NEW.scaled(0.1)},
            controllers={"vda": "iocost", "vdb": "iocost"},
            qos=FIXED_QOS,
        )
        assert list(bed.devices) == ["vda", "vdb"]
        assert bed.devices["vda"].dev == "8:0"
        assert bed.devices["vdb"].dev == "8:16"
        # Distinct controller instances over one shared cgroup tree / clock.
        vda, vdb = bed.devices["vda"].controller, bed.devices["vdb"].controller
        assert vda is not vdb
        assert bed.devices["vda"].sim is bed.devices["vdb"].sim
        assert bed.layer_of("vdb").device.spec.name == "ssd_new-x0.1"
        # The aliases point at the first (data) device.
        assert bed.layer is bed.devices["vda"]
        bed.detach()

    def test_shared_controller_instance_rejected(self):
        from repro.controllers.noop import NoopController

        with pytest.raises(ValueError):
            Testbed(
                devices={"vda": FAST, "vdb": FAST},
                controller=NoopController(),
            )

    def test_swap_device_requires_memory(self):
        with pytest.raises(ValueError):
            Testbed(
                devices={"vda": FAST, "vdb": FAST},
                controllers={"vda": "none", "vdb": "none"},
                swap_device="vdb",
            )


class TestIndependentControllers:
    def test_load_on_one_device_leaves_the_other_idle(self):
        bed = Testbed(
            devices={"vda": FAST, "vdb": FAST},
            controllers={"vda": "iocost", "vdb": "iocost"},
            qos=FIXED_QOS,
            seed=5,
        )
        app = bed.add_cgroup("workload.slice/app")
        bed.saturate(app, device="vda", depth=8, stop_at=0.5)
        bed.run(0.5)

        assert bed.iops(app, device="vda") > 0
        assert bed.iops(app, device="vdb") == 0
        # Each device's iocost accumulated its own per-cgroup state.
        assert bed.devices["vda"].controller.cost_stat(app)["cost.usage"] > 0
        assert bed.devices["vdb"].controller.cost_stat(app)["cost.usage"] == 0
        bed.detach()

    def test_per_device_vrates_move_independently(self):
        bed = Testbed(
            devices={"vda": SSD_NEW.scaled(0.1), "vdb": SSD_NEW.scaled(0.1)},
            controllers={"vda": "iocost", "vdb": "iocost"},
            seed=9,
        )
        app = bed.add_cgroup("workload.slice/app")
        bed.saturate(app, device="vda", depth=32, stop_at=1.0)
        bed.run(1.0)

        vda_series = bed.devices["vda"].controller.vrate_ctl.vrate_series.values
        vdb_series = bed.devices["vdb"].controller.vrate_ctl.vrate_series.values
        # vda's QoS reacted to its own load and left 1.0; idle vdb did not.
        assert set(vda_series) != {1.0}
        assert set(vdb_series) <= {1.0}
        assert bed.devices["vda"].controller.vrate != bed.devices["vdb"].controller.vrate
        bed.detach()


class TestPerDeviceIOStat:
    def test_one_line_per_device_per_cgroup(self):
        bed = Testbed(
            devices={"vda": FAST, "vdb": FAST},
            controllers={"vda": "iocost", "vdb": "iocost"},
            qos=FIXED_QOS,
            seed=1,
        )
        a = bed.add_cgroup("workload.slice/a")
        b = bed.add_cgroup("workload.slice/b")
        bed.saturate(a, device="vda", depth=4, stop_at=0.3)
        bed.saturate(b, device="vdb", depth=4, stop_at=0.3)
        bed.run(0.4)
        bed.detach()

        iostat = IOStat(bed.cgroups, {
            layer.dev: layer.controller for layer in bed.devices.values()
        })
        for path in ("workload.slice/a", "workload.slice/b", "workload.slice"):
            lines = iostat.render(path).splitlines()
            assert [line.split()[0] for line in lines] == ["8:0", "8:16"]
        entry_a = iostat.device_snapshot()["workload.slice/a"]
        entry_b = iostat.device_snapshot()["workload.slice/b"]
        assert entry_a["8:0"]["rios"] > 0 and entry_a["8:16"]["rios"] == 0
        assert entry_b["8:16"]["rios"] > 0 and entry_b["8:0"]["rios"] == 0


class TestSwapOnSecondDevice:
    def test_swap_io_lands_only_on_the_swap_device(self):
        bed = Testbed(
            devices={"vda": FAST, "vdb": FAST},
            controllers={"vda": "none", "vdb": "none"},
            mem_bytes=64 * MB,
            swap_bytes=256 * MB,
            swap_device="vdb",
            seed=2,
        )
        assert bed.mm.swap_layer is bed.devices["vdb"]
        leaker = bed.add_cgroup("workload.slice/leaker")
        app = bed.add_cgroup("workload.slice/app")
        run_op(bed, bed.mm.alloc(leaker, 60 * MB))
        run_op(bed, bed.mm.alloc(app, 10 * MB))  # forces reclaim -> swap-out

        assert bed.mm.state_of(leaker).swapped_out_total > 0
        # Under an mm-unaware controller swap writes are charged to root
        # (the reclaim context); either way they land on the swap device's
        # per-device record only — never on the data device.
        root = bed.cgroups.root
        assert root.stats.device("8:16").wbytes >= bed.mm.state_of(leaker).swapped_out_total
        assert root.stats.device("8:0").wbytes == 0
        assert root.stats.device("8:0").rbytes == 0
        bed.detach()

    def test_swap_charged_to_owner_on_swap_device_under_iocost(self):
        bed = Testbed(
            devices={"vda": FAST, "vdb": FAST},
            controllers={"vda": "iocost", "vdb": "iocost"},
            qos=FIXED_QOS,
            mem_bytes=64 * MB,
            swap_bytes=256 * MB,
            swap_device="vdb",
            seed=2,
        )
        leaker = bed.add_cgroup("workload.slice/leaker")
        app = bed.add_cgroup("workload.slice/app")
        run_op(bed, bed.mm.alloc(leaker, 60 * MB))
        run_op(bed, bed.mm.alloc(app, 10 * MB))  # forces reclaim -> swap-out

        # iocost is mm-aware: swap writes are charged to the page owner,
        # and they appear only in the swap device's per-device record.
        assert leaker.stats.device("8:16").wbytes > 0
        assert leaker.stats.device("8:0").wbytes == 0
        assert leaker.stats.device("8:0").rbytes == 0
        bed.detach()


class TestTopologyDeterminism:
    @staticmethod
    def fingerprint(bed, cgroup):
        bed.saturate(cgroup, device="vda", depth=8, stop_at=0.5)
        bed.run(0.5)
        layer = bed.devices["vda"]
        record = cgroup.stats.device(layer.dev)
        result = (cgroup.path, record.done_ios, record.done_bytes)
        assert record.done_ios > 0
        bed.detach()
        return result

    def test_idle_second_device_does_not_perturb_the_first(self):
        single = Testbed(
            devices={"vda": FAST}, controllers={"vda": "iocost"},
            qos=FIXED_QOS, seed=7,
        )
        dual = Testbed(
            devices={"vda": FAST, "vdb": FAST},
            controllers={"vda": "iocost", "vdb": "iocost"},
            qos=FIXED_QOS, seed=7,
        )
        fp_single = self.fingerprint(single, single.add_cgroup("workload.slice/app"))
        fp_dual = self.fingerprint(dual, dual.add_cgroup("workload.slice/app"))
        assert fp_single == fp_dual

    def test_legacy_constructor_matches_explicit_vda(self):
        legacy = Testbed(device=FAST, controller="iocost", qos=FIXED_QOS, seed=7)
        explicit = Testbed(
            devices={"vda": FAST}, controllers={"vda": "iocost"},
            qos=FIXED_QOS, seed=7,
        )
        fp_legacy = self.fingerprint(legacy, legacy.add_cgroup("workload.slice/app"))
        fp_explicit = self.fingerprint(
            explicit, explicit.add_cgroup("workload.slice/app")
        )
        assert fp_legacy == fp_explicit


class TestMonitorStreams:
    def test_one_stream_per_device(self):
        bed = Testbed(
            devices={"vda": FAST, "vdb": FAST},
            controllers={"vda": "iocost", "vdb": "iocost"},
            qos=FIXED_QOS,
            seed=3,
        )
        app = bed.add_cgroup("workload.slice/app")
        bed.saturate(app, device="vda", depth=4, stop_at=0.3)
        mon = Monitor(bed).start()
        bed.sim.run(until=0.4)
        mon.stop()
        bed.detach()

        vda_snaps = mon.snapshots_for("vda")
        vdb_snaps = mon.snapshots_for("vdb")
        assert len(vda_snaps) == len(vdb_snaps) > 0
        assert len(mon.snapshots) == len(vda_snaps) + len(vdb_snaps)
        assert {snap.dev for snap in vda_snaps} == {"8:0"}
        assert {snap.dev for snap in vdb_snaps} == {"8:16"}
        # The loaded device saw the app's IO; the idle one did not.
        last = vda_snaps[-1].groups["workload.slice/app"]
        assert last["rios"] > 0
        assert vdb_snaps[-1].groups["workload.slice/app"]["rios"] == 0

    def test_device_restricted_monitor(self):
        bed = Testbed(
            devices={"vda": FAST, "vdb": FAST},
            controllers={"vda": "iocost", "vdb": "iocost"},
            qos=FIXED_QOS,
            seed=4,
        )
        app = bed.add_cgroup("workload.slice/app")
        bed.saturate(app, device="vdb", depth=4, stop_at=0.2)
        mon = Monitor(bed, device="vdb").start()
        bed.sim.run(until=0.3)
        mon.stop()
        bed.detach()
        assert mon.snapshots
        assert {snap.dev for snap in mon.snapshots} == {"8:16"}
