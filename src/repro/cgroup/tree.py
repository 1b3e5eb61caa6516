"""Cgroup tree with weights and IO statistics.

Mirrors the pieces of cgroup v2 that IO controllers consume: a rooted tree
of named groups, a per-group ``weight`` in [1, 10000] (default 100)
interpreted proportionally among siblings, and one :class:`IOStats` record
per (cgroup, device) — the kernel's ``blkg`` — that is the only home of
per-cgroup block state: the layer's accounting and, in ``pd``, the device
controller's.  :meth:`CgroupTree.remove` folds a dying group's counters
into its parent's records (rstat flush-on-release) and marks its records
offline, so nothing that reads them needs to watch removals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

MIN_WEIGHT = 1
MAX_WEIGHT = 10000
DEFAULT_WEIGHT = 100


class CgroupError(ValueError):
    """Raised for invalid cgroup operations (bad weight, duplicate child...)."""


#: Device id used when IO is accounted without naming a device (direct
#: ``stats.account(...)`` calls outside any block layer).  Mirrors the
#: kernel's 0:0 pseudo-device.
UNATTRIBUTED_DEV = "0:0"


@dataclass
class IOStats:
    """One device's cumulative IO accounting for one cgroup.

    ``rbytes``/``wbytes``/``rios``/``wios`` count at submission, as the
    kernel does (``blk_cgroup_bio_start``).  ``dbytes``/``dios`` exist for
    io.stat format parity (the simulation issues no discards).
    ``wait_total`` accumulates, at completion, the wall **seconds** each bio
    spent above the device (throttling + issue-path CPU); the io.stat
    surface reports it in microseconds via :attr:`wait_usec` — the single
    place that conversion happens.  ``errors`` counts bios that completed
    with a terminal non-OK status and ``requeues`` block-layer retry
    requeues (docs/FAULTS.md); ``done_ios``/``done_bytes`` count successful
    completions (``BlockLayer.iops_of``).  All are filled in by the block
    layer's completion path, which also owns two of the non-counters:
    ``next_sector``, where a sequential successor of the cgroup's last bio
    on this device would start, and ``latency``, the key of the cgroup's
    samples in the layer's latency logs (both directions; None until its
    first completion, which is given a key never given before, so a
    re-created cgroup starts with no samples).  The
    device's controller owns the rest: ``throttled`` counts the bios it held,
    ``pd`` (the kernel's ``blkg->pd``) is its per-group state, reached
    through the bio (``bio.blkg.pd``), and ``online``, cleared by
    :meth:`CgroupTree.remove`, tells it when to let that state go
    (:meth:`~repro.controllers.base.IOController.retire_offline`).
    """

    rbytes: int = 0
    wbytes: int = 0
    rios: int = 0
    wios: int = 0
    dbytes: int = 0
    dios: int = 0
    wait_total: float = 0.0
    errors: int = 0
    requeues: int = 0
    done_ios: int = 0
    done_bytes: int = 0
    throttled: int = 0
    next_sector: Optional[int] = None
    latency: Optional[float] = None
    pd: Any = None
    online: bool = True

    def account(self, is_write: bool, nbytes: int) -> None:
        if is_write:
            self.wbytes += nbytes
            self.wios += 1
        else:
            self.rbytes += nbytes
            self.rios += 1

    def fold(self, child: IOStats) -> None:
        """Add a removed child's counters (everything else dies with it)."""
        self.rbytes += child.rbytes
        self.wbytes += child.wbytes
        self.rios += child.rios
        self.wios += child.wios
        self.dbytes += child.dbytes
        self.dios += child.dios
        self.wait_total += child.wait_total
        self.errors += child.errors
        self.requeues += child.requeues
        self.done_ios += child.done_ios
        self.done_bytes += child.done_bytes
        self.throttled += child.throttled

    @property
    def wait_usec(self) -> float:
        """``wait_total`` (seconds) in io.stat's microsecond unit."""
        return self.wait_total * 1e6

    @property
    def total_bytes(self) -> int:
        return self.rbytes + self.wbytes

    @property
    def total_ios(self) -> int:
        return self.rios + self.wios


class CgroupIOStats:
    """Per-device IO accounting for one cgroup (``Cgroup.stats``).

    Holds one :class:`IOStats` record per device id (``maj:min`` string),
    matching the kernel where ``io.stat`` reports one line per device.
    Nothing here sums over devices, and neither does
    :meth:`repro.obs.iostat.IOStat.device_snapshot`.
    """

    __slots__ = ("per_device",)

    def __init__(self) -> None:
        self.per_device: Dict[str, IOStats] = {}

    def device(self, dev: str) -> IOStats:
        """The record for one device id (created on first use)."""
        stats = self.per_device.get(dev)
        if stats is None:
            stats = IOStats()
            self.per_device[dev] = stats
        return stats

    def devices(self) -> Iterator[Tuple[str, IOStats]]:
        """Iterate ``(dev_id, IOStats)`` pairs."""
        return iter(self.per_device.items())

    def account(self, is_write: bool, nbytes: int, dev: str = UNATTRIBUTED_DEV) -> None:
        self.device(dev).account(is_write, nbytes)


class Cgroup:
    """One node in the hierarchy.

    Use :meth:`CgroupTree.create` rather than instantiating directly so the
    tree index stays consistent.
    """

    def __init__(self, name: str, parent: Optional["Cgroup"], weight: int = DEFAULT_WEIGHT):
        if parent is not None and not name:
            raise CgroupError("non-root cgroup needs a name")
        if "/" in name:
            raise CgroupError("cgroup name must not contain '/'")
        self.name = name
        self.parent = parent
        #: Slash-joined path from the root, '' for the root itself (fixed:
        #: neither ``name`` nor ``parent`` changes after construction).
        self.path = name if parent is None or parent.is_root else f"{parent.path}/{name}"
        self.children: Dict[str, Cgroup] = {}
        self._weight = DEFAULT_WEIGHT
        self.weight = weight
        self.stats = CgroupIOStats()

    # -- weight -----------------------------------------------------------

    @property
    def weight(self) -> int:
        return self._weight

    @weight.setter
    def weight(self, value: int) -> None:
        if not (MIN_WEIGHT <= value <= MAX_WEIGHT):
            raise CgroupError(
                f"weight {value} out of range [{MIN_WEIGHT}, {MAX_WEIGHT}]"
            )
        self._weight = int(value)

    # -- topology ---------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def walk(self) -> Iterator["Cgroup"]:
        """Depth-first pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cgroup({self.path or '/'}, weight={self.weight})"


class CgroupTree:
    """The hierarchy: a root plus a path index."""

    def __init__(self) -> None:
        self.root = Cgroup("", None)
        self._index: Dict[str, Cgroup] = {"": self.root}

    def create(self, path: str, weight: int = DEFAULT_WEIGHT) -> Cgroup:
        """Create a cgroup at ``path``, creating intermediate groups as needed.

        Intermediate groups get the default weight; the leaf gets ``weight``.
        Creating an existing path is an error (use :meth:`lookup`).
        """
        if not path:
            raise CgroupError("cannot re-create the root")
        if path in self._index:
            raise CgroupError(f"cgroup {path!r} already exists")
        parent = self.root
        parts = path.split("/")
        for depth, part in enumerate(parts):
            prefix = "/".join(parts[: depth + 1])
            node = self._index.get(prefix)
            if node is None:
                is_leaf = depth == len(parts) - 1
                node = Cgroup(part, parent, weight if is_leaf else DEFAULT_WEIGHT)
                parent.children[part] = node
                self._index[prefix] = node
            parent = node
        return parent

    def lookup(self, path: str) -> Cgroup:
        """Return the cgroup at ``path`` (raises :class:`CgroupError` if absent)."""
        try:
            return self._index[path]
        except KeyError:
            raise CgroupError(f"no cgroup at {path!r}") from None

    def get_or_create(self, path: str, weight: int = DEFAULT_WEIGHT) -> Cgroup:
        if path in self._index:
            return self._index[path]
        return self.create(path, weight)

    def remove(self, path: str) -> None:
        """Remove a leaf cgroup (children must be removed first).

        Its counters fold into the parent's records device by device, so
        history is neither lost nor smeared across devices (the kernel's
        ``cgroup_rstat`` flush-on-release), and its records go offline for
        the controllers to retire once the bios carrying them have drained.
        """
        node = self.lookup(path)
        if node.parent is None:  # is_root, spelled so the check narrows
            raise CgroupError("cannot remove the root")
        if node.children:
            raise CgroupError(f"cgroup {path!r} still has children")
        for dev, record in node.stats.devices():
            node.parent.stats.device(dev).fold(record)
            record.online = False
        del node.parent.children[node.name]
        del self._index[path]

    def __contains__(self, path: str) -> bool:
        return path in self._index

    def __iter__(self) -> Iterator[Cgroup]:
        return self.root.walk()

    def __len__(self) -> int:
        return len(self._index)


def make_meta_hierarchy(
    tree: Optional[CgroupTree] = None,
    workloads: Optional[Dict[str, int]] = None,
) -> CgroupTree:
    """Build the production hierarchy from the paper's Figure 1.

    ``system`` (auxiliary services like chef), ``hostcritical`` (sshd, the
    container agent) and ``workload`` (application containers) slices, with
    ``workloads`` mapping child-container name -> weight under the workload
    slice.
    """
    tree = tree or CgroupTree()
    tree.get_or_create("system.slice", weight=25)
    tree.get_or_create("hostcritical.slice", weight=100)
    tree.get_or_create("workload.slice", weight=500)
    for name, weight in (workloads or {}).items():
        tree.get_or_create(f"workload.slice/{name}", weight=weight)
    return tree
