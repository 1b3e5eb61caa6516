"""Per-cgroup block accounting across cgroup removal.

The block layer keeps no per-cgroup state: everything lives on the
cgroup's per-device :class:`~repro.cgroup.IOStats` record, and
:meth:`CgroupTree.remove` folds a dying cgroup's counters into its
parent's record for the same device (rstat flush-on-release).  The latency
window and the sequential cursor are measurements of the dead cgroup, not
history, and go with it.
"""

import numpy as np

from repro.analysis.stats import keyed_percentiles
from repro.block.bio import Bio, IOOp
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.cgroup import CgroupTree
from repro.controllers.noop import NoopController
from repro.sim import Simulator

SPEC = DeviceSpec(
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


def make_stack():
    sim = Simulator()
    tree = CgroupTree()
    device = Device(sim, SPEC, np.random.default_rng(0))
    layer = BlockLayer(sim, device, NoopController())
    return sim, tree, layer


def samples_of(layer, key, now):
    """How many of the last second's samples in the layer's logs are ``key``'s."""
    logs = layer.read_latency, layer.write_latency
    return sum(int((log._columns(now, 1.0)[1] == key).sum()) for log in logs)


class TestPruneOnRemoval:
    def test_counters_fold_into_parent(self):
        sim, tree, layer = make_stack()
        parent = tree.create("workload.slice")
        child = tree.create("workload.slice/job")
        for i in range(3):
            layer.submit(Bio(IOOp.READ, 4096, 8 * i, child))
        sim.run(until=1.0)
        record = child.stats.device(layer.dev)
        assert (record.done_ios, record.done_bytes) == (3, 3 * 4096)
        assert record.latency is not None and record.next_sector is not None
        assert layer.dev not in parent.stats.per_device

        tree.remove("workload.slice/job")

        assert "workload.slice/job" not in tree
        # History survives on the parent, rstat-style ...
        folded = parent.stats.device(layer.dev)
        assert (folded.done_ios, folded.done_bytes) == (3, 3 * 4096)
        assert (folded.rios, folded.rbytes) == (3, 3 * 4096)
        assert folded.wait_total == record.wait_total
        assert layer.iops_of(parent) == 3
        # ... the latency key and the cursor do not.
        assert folded.latency is None and folded.next_sector is None

    def test_fold_accumulates_onto_parent_counts(self):
        sim, tree, layer = make_stack()
        parent = tree.create("workload.slice")
        child = tree.create("workload.slice/job")
        layer.submit(Bio(IOOp.READ, 4096, 8, parent))
        layer.submit(Bio(IOOp.WRITE, 8192, 16, child))
        sim.run(until=1.0)
        record = parent.stats.device(layer.dev)
        key, cursor = record.latency, record.next_sector

        tree.remove("workload.slice/job")

        assert parent.stats.device(layer.dev) is record
        assert (record.done_ios, record.done_bytes) == (2, 4096 + 8192)
        assert (record.rios, record.wios) == (1, 1)
        # The parent's own latency key and cursor are untouched by the fold.
        assert record.latency == key and samples_of(layer, key, sim.now) == 1
        assert record.next_sector == cursor

    def test_a_cgroup_recreated_at_its_path_starts_with_an_empty_window(self):
        """The dead cgroup's samples stay in the layer's logs until they
        age out, under a key the new record does not get."""
        sim, tree, layer = make_stack()
        first = tree.create("job")
        layer.submit(Bio(IOOp.READ, 4096, 8, first))
        sim.run(until=0.1)
        old = first.stats.device(layer.dev).latency
        tree.remove("job")
        again = tree.create("job")
        assert again.stats.per_device == {}
        layer.submit(Bio(IOOp.WRITE, 4096, 64, again))
        sim.run(until=0.2)
        new = again.stats.device(layer.dev).latency
        assert new != old
        assert samples_of(layer, new, sim.now) == 1
        assert keyed_percentiles((layer.read_latency,), sim.now, [new], (50,)) == [[None]]
        assert samples_of(layer, old, sim.now) == 1 and len(layer.read_latency) == 1

    def test_removing_idle_cgroup_is_a_noop(self):
        sim, tree, layer = make_stack()
        tree.create("idle")
        tree.remove("idle")
        assert tree.root.stats.per_device == {}
        assert layer.iops_of(tree.root) == 0
        assert tree.root.stats.per_device == {}  # reading made no record

    def test_cascaded_removal_reaches_grandparent(self):
        sim, tree, layer = make_stack()
        top = tree.create("a")
        middle = tree.create("a/b")
        grandchild = tree.create("a/b/c")
        layer.submit(Bio(IOOp.READ, 4096, 8, grandchild))
        sim.run(until=1.0)

        tree.remove("a/b/c")
        assert layer.iops_of(middle) == 1
        assert layer.iops_of(top) == 0
        tree.remove("a/b")
        assert layer.iops_of(top) == 1
        assert top.stats.device(layer.dev).done_bytes == 4096

    def test_every_observing_layer_prunes(self):
        """Two devices stay separately attributed through the fold."""
        sim = Simulator()
        tree = CgroupTree()
        layers = []
        for index in range(2):
            device = Device(
                sim, SPEC, np.random.default_rng(index), devno=f"8:{16 * index}"
            )
            layers.append(BlockLayer(sim, device, NoopController()))
        parent = tree.create("p")
        child = tree.create("p/c")
        layers[0].submit(Bio(IOOp.READ, 4096, 8, child))
        layers[1].submit(Bio(IOOp.WRITE, 8192, 8, child))
        sim.run(until=1.0)

        tree.remove("p/c")

        assert set(parent.stats.per_device) == {"8:0", "8:16"}
        first, second = (parent.stats.device(layer.dev) for layer in layers)
        assert (first.done_ios, first.done_bytes, first.wbytes) == (1, 4096, 0)
        assert (second.done_ios, second.done_bytes, second.rbytes) == (1, 8192, 0)
