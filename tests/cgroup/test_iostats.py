"""Per-device IOStats records and the wait_total/wait_usec unit contract."""

import pytest

from repro.cgroup import CgroupIOStats, CgroupTree, IOStats, UNATTRIBUTED_DEV


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
        assert not any(
            isinstance(member, property) for member in vars(CgroupIOStats).values()
        ), "CgroupIOStats must not grow cross-device aggregate properties"

    def test_unattributed_default_device(self):
        stats = CgroupIOStats()
        stats.account(False, 4096)
        assert stats.device(UNATTRIBUTED_DEV).rios == 1

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

    def test_iostat_surface_uses_the_property(self):
        """obs.iostat must not re-implement the conversion inline."""
        import inspect

        from repro.obs import iostat as iostat_mod

        source = inspect.getsource(iostat_mod._flat)
        assert "wait_usec" in source
        assert "1e6" not in source
        tree = CgroupTree()
        stats = tree.create("a").stats
        stats.device("8:0").wait_total = 0.5
        stats.device("8:16").wait_total = 0.25
        entry = iostat_mod.IOStat(tree).device_snapshot()["a"]
        for dev, record in stats.devices():
            assert entry[dev]["wait_usec"] == record.wait_usec
