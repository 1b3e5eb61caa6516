"""The cgroup2 ``io.stat`` surface, aggregated hierarchically, per device.

Kernel semantics reproduced here:

* ``io.stat`` reports **one line per block device** per cgroup
  (``8:16 rbytes=... wbytes=...``); counters are kept per device id;
* every cgroup reports cumulative ``rbytes``/``wbytes``/``rios``/``wios``/
  ``dbytes``/``dios`` for itself **plus all descendants** (cgroup2 stats are
  recursive);
* removing a cgroup folds its counters into the parent — per device, so
  history is never lost nor smeared across devices (the kernel's
  ``cgroup_rstat`` flush-on-release behaviour).  :meth:`CgroupTree.remove
  <repro.cgroup.tree.CgroupTree.remove>` does the folding on the records
  themselves; this collector only reads them, so one built after a removal
  reports the same history as one built before it;
* each device's controller annotates its own line — IOCost adds
  ``cost.vrate``, ``cost.usage``, ``cost.wait``, ``cost.indebt``,
  ``cost.indelay`` (see :meth:`repro.core.controller.IOCost.cost_stat`) on
  the devices it manages, and only on those.

There is no cross-device line, as there is none in the kernel: a
machine-wide figure is a sum the reader makes over the device entries.

Usage::

    controllers = {layer.dev: layer.controller for layer in bed.devices.values()}
    iostat = IOStat(tree, controllers)
    per_dev = iostat.device_snapshot()        # path -> devno -> counters
    per_dev["workload.slice"]["8:0"]["rbytes"]  # includes all children
    print(iostat.render("workload.slice"))    # kernel io.stat text
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.cgroup import Cgroup, CgroupTree, IOStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controllers.base import IOController

#: The flat per-cgroup counters that aggregate up the hierarchy.
#: ``errors``/``requeues`` are the fault-path counters (docs/FAULTS.md).
FLAT_KEYS = (
    "rbytes", "wbytes", "rios", "wios", "dbytes", "dios", "wait_usec",
    "errors", "requeues",
)

#: Keys printed as integers in :meth:`IOStat.render` (cgroup2 parity).
_INT_KEYS = frozenset(FLAT_KEYS)


def _flat(stats: IOStats) -> Dict[str, float]:
    return {
        "rbytes": stats.rbytes,
        "wbytes": stats.wbytes,
        "rios": stats.rios,
        "wios": stats.wios,
        "dbytes": stats.dbytes,
        "dios": stats.dios,
        # The seconds->usec conversion lives on IOStats.wait_usec alone.
        "wait_usec": stats.wait_usec,
        "errors": stats.errors,
        "requeues": stats.requeues,
    }


def _zero() -> Dict[str, float]:
    return {key: 0 for key in FLAT_KEYS}


def _devno_sort_key(devno: str) -> Tuple[int, int]:
    major, _, minor = devno.partition(":")
    try:
        return (int(major), int(minor))
    except ValueError:  # non-numeric id: sort after real devices
        return (1 << 30, 0)


class IOStat:
    """Per-cgroup, per-device io.stat collector over one :class:`CgroupTree`.

    Stateless: every snapshot is computed from the tree's records.

    ``controllers`` maps device ids (``maj:min``) to the
    :class:`~repro.controllers.base.IOController` managing that device, so
    per-device entries carry that controller's keys.
    """

    def __init__(
        self,
        tree: CgroupTree,
        controllers: Optional[Dict[str, "IOController"]] = None,
    ):
        self.tree = tree
        self.controllers: Dict[str, "IOController"] = dict(controllers or {})

    def device_snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Recursive per-device io.stat for every live cgroup.

        ``result[path][devno]`` holds the hierarchically-summed flat
        counters for that device, plus the managing controller's keys
        (``cost.*`` on iocost-managed devices, ``throttled`` on all managed
        devices).
        """
        result: Dict[str, Dict[str, Dict[str, float]]] = {}

        def visit(cgroup: Cgroup) -> Dict[str, Dict[str, float]]:
            agg: Dict[str, Dict[str, float]] = {
                dev: _flat(stats) for dev, stats in cgroup.stats.devices()
            }
            for child in cgroup.children.values():
                for dev, counters in visit(child).items():
                    acc = agg.get(dev)
                    if acc is None:
                        agg[dev] = dict(counters)
                    else:
                        for key in FLAT_KEYS:
                            acc[key] += counters[key]
            entry = {dev: dict(counters) for dev, counters in agg.items()}
            for dev, controller in self.controllers.items():
                entry.setdefault(dev, _zero()).update(controller.cost_stat(cgroup))
            result[cgroup.path] = entry
            return agg

        visit(self.tree.root)
        return result

    # -- kernel-format rendering -----------------------------------------------

    def render(self, path: str) -> str:
        """One cgroup's ``io.stat`` file contents, cgroup2-faithful.

        One line per device in ``maj:min`` order, the six cgroup2 counters
        first (integers, kernel order), then ``wait_usec`` and the device
        controller's keys::

            8:0 rbytes=4096 wbytes=0 rios=1 wios=0 dbytes=0 dios=0 ...
            8:16 rbytes=0 wbytes=65536 ... cost.vrate=1.00 cost.usage=...
        """
        entry = self.device_snapshot()[path]
        lines = []
        for dev in sorted(entry, key=_devno_sort_key):
            parts = [dev]
            counters = entry[dev]
            for key in FLAT_KEYS:
                parts.append(f"{key}={int(round(counters.get(key, 0)))}")
            for key in sorted(k for k in counters if k not in _INT_KEYS):
                value = counters[key]
                if isinstance(value, bool):
                    rendered = str(int(value))
                elif isinstance(value, int):
                    rendered = str(value)
                else:
                    rendered = f"{value:.2f}"
                parts.append(f"{key}={rendered}")
            lines.append(" ".join(parts))
        return "\n".join(lines)
