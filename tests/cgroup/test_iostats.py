"""Per-device IOStats records and the wait_total/wait_usec unit contract."""

import pytest

from repro.cgroup import CgroupIOStats, CgroupTree, IOStats, UNATTRIBUTED_DEV
from repro.obs.iostat import IOStat


class TestPerDeviceRecords:
    def test_account_keys_by_device(self):
        stats = CgroupIOStats()
        stats.account(False, 4096, "8:0")
        stats.account(True, 8192, "8:16")
        stats.account(True, 4096, "8:16")
        assert stats.device("8:0").rbytes == 4096
        assert stats.device("8:0").wbytes == 0
        assert stats.device("8:16").wbytes == 12288
        assert stats.device("8:16").wios == 2
        assert dict(stats.devices()).keys() == {"8:0", "8:16"}

    def test_unattributed_default_device(self):
        stats = CgroupIOStats()
        stats.account(False, 4096)
        assert stats.device(UNATTRIBUTED_DEV).rios == 1

    def test_aggregates_sum_over_devices(self):
        """The one cross-device sum is IOStat.snapshot()."""
        tree = CgroupTree()
        stats = tree.create("a").stats
        stats.account(False, 4096, "8:0")
        stats.account(True, 8192, "8:16")
        stats.device("8:0").wait_total += 0.25
        stats.device("8:16").wait_total += 0.75
        entry = IOStat(tree).of("a")
        assert entry["rbytes"] == 4096
        assert entry["wbytes"] == 8192
        assert entry["rios"] == 1
        assert entry["wios"] == 1
        assert entry["dbytes"] == 0
        assert entry["dios"] == 0
        assert entry["wait_usec"] == pytest.approx(1.0e6)
        assert not any(
            isinstance(member, property) for member in vars(CgroupIOStats).values()
        ), "CgroupIOStats must not grow cross-device aggregate properties"

    def test_cgroup_carries_per_device_stats(self):
        tree = CgroupTree()
        group = tree.create("a")
        assert isinstance(group.stats, CgroupIOStats)
        group.stats.account(True, 4096, "8:0")
        assert group.stats.device("8:0").wios == 1


class TestWaitUnitContract:
    """Satellite: wait_total is seconds; wait_usec is the one conversion."""

    def test_iostats_wait_usec_is_seconds_times_1e6(self):
        record = IOStats()
        record.wait_total = 0.001234  # seconds
        assert record.wait_usec == pytest.approx(1234.0)

    def test_aggregate_wait_usec_matches_sum_of_records(self):
        tree = CgroupTree()
        stats = tree.create("a").stats
        stats.device("8:0").wait_total = 0.5
        stats.device("8:16").wait_total = 0.25
        wait_usec = IOStat(tree).of("a")["wait_usec"]
        assert wait_usec == pytest.approx(0.75e6)
        assert wait_usec == pytest.approx(
            sum(record.wait_total for _, record in stats.devices()) * 1e6
        )

    def test_iostat_surface_uses_the_property(self):
        """obs.iostat must not re-implement the conversion inline."""
        import inspect

        from repro.obs import iostat as iostat_mod

        source = inspect.getsource(iostat_mod._flat)
        assert "wait_usec" in source
        assert "1e6" not in source
