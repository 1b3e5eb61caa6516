"""Tests for the ZooKeeper ensemble workload on a multi-device testbed."""

import pytest

from repro.block.device import DeviceSpec
from repro.testbed import Testbed
from repro.workloads.zookeeper import ZooKeeperEnsemble

ZK_SPEC = DeviceSpec(
    name="zk",
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
HOSTS = [f"m{i}" for i in range(5)]


def make_cluster(controller="none", **specs):
    """Five hosts, the devices ``m0``..``m4`` of one testbed; ``specs``
    replaces a host's device."""
    return Testbed(
        devices={name: specs.get(name, ZK_SPEC) for name in HOSTS},
        controllers={name: controller for name in HOSTS},
    )


def test_reads_and_writes_complete():
    bed = make_cluster()
    ensemble = ZooKeeperEnsemble(
        bed, HOSTS, "ens0", read_rps=200, write_rps=20,
        payload=100 * 1024, stop_at=2.0, seed=1,
    ).start()
    bed.run(2.5)
    reads = [op for op in ensemble.ops if not op.is_write]
    writes = [op for op in ensemble.ops if op.is_write]
    assert len(reads) == pytest.approx(400, rel=0.2)
    assert len(writes) == pytest.approx(40, rel=0.3)


def test_write_commits_at_quorum_not_all():
    # With one artificially slow host, quorum (3/5) commits must not
    # wait for the straggler.
    slow_spec = DeviceSpec(
        name="slowzk",
        parallelism=1,
        srv_rand_read=50e-3,
        srv_seq_read=50e-3,
        srv_rand_write=50e-3,
        srv_seq_write=50e-3,
        read_bw=10e6,
        write_bw=10e6,
        sigma=0.0,
        nr_slots=64,
    )
    bed = make_cluster(m4=slow_spec)
    ensemble = ZooKeeperEnsemble(
        bed, HOSTS, "ens0", read_rps=0, write_rps=50,
        payload=100 * 1024, stop_at=1.0, seed=1,
    ).start()
    bed.run(1.5)
    writes = [op for op in ensemble.ops if op.is_write]
    assert writes
    p50 = sorted(op.latency for op in writes)[len(writes) // 2]
    assert p50 < 10e-3  # far below the straggler's 50ms service time


def test_snapshot_triggers_on_txn_count():
    bed = make_cluster()
    ensemble = ZooKeeperEnsemble(
        bed, HOSTS, "ens0", read_rps=0, write_rps=100,
        payload=10 * 1024, snapshot_every=50,
        snapshot_bytes=4 * 1024 * 1024, stop_at=2.0, seed=1,
    ).start()
    bed.run(2.5)
    assert ensemble.snapshots_taken >= 3
    assert ensemble.txn_count > 150


def test_a_participant_on_every_host():
    bed = make_cluster()
    ensemble = ZooKeeperEnsemble(
        bed, HOSTS, "ens0", read_rps=0, write_rps=20,
        payload=1024, stop_at=0.5, seed=1,
    ).start()
    bed.run(0.6)
    assert ensemble.cgroup.path == "workload.slice/ens0"
    # Every write is journaled on all five hosts, under the one cgroup.
    assert ensemble.cgroup.stats.per_device.keys() == {
        bed.layer_of(name).dev for name in HOSTS
    }
    done = {record.done_ios for record in ensemble.cgroup.stats.per_device.values()}
    assert done == {ensemble.txn_count}


def test_a_shared_cgroup_tree_couples_no_hosts():
    # One ensemble on m0 alone, another on every host: the first one's
    # cgroup has a record and controller state on m0's device only.
    bed = make_cluster(controller="iocost")
    alone = ZooKeeperEnsemble(
        bed, ["m0"], "alone", read_rps=200, write_rps=20,
        payload=10 * 1024, stop_at=0.5, seed=1,
    ).start()
    ZooKeeperEnsemble(
        bed, HOSTS, "everywhere", read_rps=200, write_rps=20,
        payload=10 * 1024, stop_at=0.5, seed=2,
    ).start()
    bed.run(0.6)
    bed.detach()
    m0 = bed.layer_of("m0").dev
    assert alone.cgroup.stats.per_device.keys() == {m0}
    assert alone.cgroup.stats.per_device[m0].done_ios > 100
    holders = {
        name for name in HOSTS
        if any(state.cgroup is alone.cgroup for state in bed.devices[name].controller.groups)
    }
    assert holders == {"m0"}


def test_slo_violation_detection():
    bed = make_cluster()
    ensemble = ZooKeeperEnsemble(
        bed, HOSTS, "ens0", read_rps=100, write_rps=10,
        payload=10 * 1024, stop_at=5.0, seed=1,
    ).start()
    bed.run(5.5)
    # Uncontended: no violations of a 1s SLO.
    assert ensemble.slo_violations(slo=1.0) == []
    # Absurdly tight SLO: everything violates.
    tight = ensemble.slo_violations(slo=1e-9)
    assert tight
    total_duration = sum(duration for _, duration, _ in tight)
    assert total_duration > 0


def test_stop_halts_arrivals():
    bed = make_cluster()
    ensemble = ZooKeeperEnsemble(
        bed, HOSTS, "ens0", read_rps=100, write_rps=10,
        payload=1024, stop_at=None, seed=1,
    ).start()
    bed.run(0.5)
    ensemble.stop()
    count = len(ensemble.ops)
    bed.run(0.5)
    assert len(ensemble.ops) <= count + 20  # only in-flight stragglers
