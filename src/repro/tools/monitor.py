"""Live per-period monitor — the simulation's ``iocost_monitor.py``.

The kernel ships ``iocost_monitor.py``, a drgn script that walks live kernel
memory once per period and prints device state (vrate%, busy level) plus one
row per cgroup (hweight, usage, debt, delay).  :class:`Monitor` is the
simulation equivalent: it registers a periodic simulator callback and, each
interval, captures one :class:`~repro.obs.snapshot.MonitorSnapshot` **per
monitored device** from that device's controller introspection surface and
its per-device :class:`~repro.obs.iostat.IOStat` counters, optionally
streaming them as JSONL, and renders them in the same tabular style.

Library use::

    bed = Testbed(devices={"vda": "ssd_new", "vdb": "ebs_gp3"})
    with open("run.jsonl", "w") as out:
        monitor = Monitor(bed, stream=out).start()
        bed.sim.run(until=30.0)
        monitor.stop()
    print(monitor.render(device="vdb"))      # one stream per device

``Monitor(bed, device="vdb")`` restricts the monitor to one named device.
Snapshots name their device as the machine does (``vda``), as
``iocost_monitor`` prints ``nvme0n1``.

CLI use (re-render a saved stream)::

    python -m repro.tools.monitor run.jsonl --last 3 [--device vdb|8:16] [--json]

The monitor is strictly read-only: attaching it never changes simulation
results (guarded by ``tests/integration/test_monitor.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, TextIO, Tuple

from repro.obs.iostat import IOStat
from repro.obs.snapshot import MonitorSnapshot, load_snapshots, render_snapshots

#: Fallback sampling interval when no controller has a planning period.
DEFAULT_INTERVAL = 0.05


class Monitor:
    """Periodic observer over a testbed.

    ``bed`` needs ``sim``, ``cgroups`` and a ``devices`` dict of block
    layers by name — a :class:`repro.testbed.Testbed` or anything shaped
    like one.  Every device is monitored, or just ``device`` when named, and
    each snapshot names its device the way the machine does (``vda``).
    The sampling ``interval`` is the shortest QoS period among the
    monitored controllers, else :data:`DEFAULT_INTERVAL` (so snapshots land
    once per planning period, right after the plan tick, which the event
    heap orders first at equal timestamps).
    """

    def __init__(
        self,
        bed,
        stream: Optional[TextIO] = None,
        device: Optional[str] = None,
    ) -> None:
        self.sim = bed.sim
        self.cgroups = bed.cgroups
        names = list(bed.devices) if device is None else [device]
        #: (name, layer) pairs under observation.
        self._targets: List[Tuple[str, object]] = [
            (name, bed.devices[name]) for name in names
        ]

        periods = [
            layer.controller.qos.period
            for _, layer in self._targets
            if getattr(layer.controller, "qos", None) is not None
        ]
        self.interval = min(periods) if periods else DEFAULT_INTERVAL
        self.stream = stream
        self.iostat = IOStat(
            self.cgroups, {layer.dev: layer.controller for _, layer in self._targets}
        )
        self.snapshots: List[MonitorSnapshot] = []
        self._timer = None
        # Previous cumulative counters, for per-interval deltas, keyed by
        # (device id, cgroup path).
        self._prev: Dict[Tuple[str, str], Dict[str, float]] = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Monitor":
        if self._timer is None:
            self._timer = self.sim.schedule(self.interval, self._tick)
        return self

    def stop(self) -> "Monitor":
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        return self

    # -- capture ------------------------------------------------------------

    def _tick(self) -> None:
        for snapshot in self.capture_all():
            self.snapshots.append(snapshot)
            if self.stream is not None:
                self.stream.write(snapshot.to_json() + "\n")
        self._timer = self.sim.schedule(self.interval, self._tick)

    def capture_all(self) -> List[MonitorSnapshot]:
        """One snapshot per monitored device, right now."""
        per_device = self.iostat.device_snapshot()
        return [
            self._capture_device(name, layer, per_device)
            for name, layer in self._targets
        ]

    def _capture_device(self, name, layer, per_device) -> MonitorSnapshot:
        controller = layer.controller
        dev = layer.dev
        vrate = getattr(controller, "vrate", 1.0)
        vrate_ctl = getattr(controller, "vrate_ctl", None)
        busy = vrate_ctl.busy_level if vrate_ctl is not None else 0

        groups: Dict[str, Dict[str, float]] = {}
        for path, devices in per_device.items():
            entry = devices.get(dev)
            if entry is None:
                continue
            row = dict(entry)
            cgroup = self.cgroups.lookup(path) if path in self.cgroups else None
            stat = getattr(controller, "stat", None)
            if stat is not None and cgroup is not None:
                ctl = stat(cgroup)
                row["active"] = 1.0 if ctl.get("active") else 0.0
                row["weight"] = float(ctl.get("weight", cgroup.weight))
                row["hweight"] = float(ctl.get("hweight", 0.0))
                row["queued"] = float(ctl.get("queued", 0))
                row["debt_ms"] = float(ctl.get("debt_walltime", 0.0)) * 1e3
            else:
                row["weight"] = float(cgroup.weight) if cgroup is not None else 0.0
            prev = self._prev.get((dev, path), {})
            usage_delta = row.get("cost.usage", 0.0) - prev.get("cost.usage", 0.0)
            row["usage_delta"] = usage_delta
            # Usage as percent of device time over the sampling interval.
            row["usage_pct"] = usage_delta / self.interval * 100.0
            row["wait_ms"] = (
                row.get("wait_usec", 0.0) - prev.get("wait_usec", 0.0)
            ) / 1e3
            row["delay_ms"] = (
                row.get("cost.indelay", 0.0) - prev.get("cost.indelay", 0.0)
            ) * 1e3
            groups[path] = row
        for path, row in groups.items():
            self._prev[(dev, path)] = dict(row)

        return MonitorSnapshot(
            time=self.sim.now,
            device=name,
            controller=controller.name,
            period=self.interval,
            vrate=vrate,
            busy_level=busy,
            groups=groups,
            dev=dev,
        )

    # -- selection & rendering ----------------------------------------------

    def snapshots_for(self, device: str) -> List[MonitorSnapshot]:
        """This device's snapshot stream (by machine name or devno)."""
        return select(self.snapshots, device=device)

    def render(self, last: Optional[int] = None, device: Optional[str] = None) -> str:
        """Render captured snapshots ``iocost_monitor``-style."""
        return render_snapshots(select(self.snapshots, device=device, last=last))


def select(
    snapshots: List[MonitorSnapshot],
    device: Optional[str] = None,
    last: Optional[int] = None,
) -> List[MonitorSnapshot]:
    """The snapshots of ``device`` (machine name or ``maj:min`` id), and
    of those the last ``last`` (0 selects none)."""
    if device is not None:
        snapshots = [snap for snap in snapshots if device in (snap.device, snap.dev)]
    if last is not None:
        if last < 0:
            raise ValueError(f"last must be >= 0, got {last}")
        snapshots = snapshots[max(len(snapshots) - last, 0):]
    return snapshots


def main(argv: Optional[List[str]] = None) -> int:
    """Re-render a saved JSONL snapshot stream."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.monitor",
        description="Render monitor JSONL in iocost_monitor style.",
    )
    parser.add_argument("trace", help="JSONL file written by Monitor(stream=...)")
    parser.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only render the last N snapshots",
    )
    parser.add_argument(
        "--device", default=None, metavar="DEV",
        help="only render snapshots of this device (name such as vda, or maj:min id)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the selected snapshots as JSONL instead of tables "
        "(machine-readable; composes with --last/--device)",
    )
    args = parser.parse_args(argv)
    if args.last is not None and args.last < 0:
        print(f"--last must be >= 0, got {args.last}", file=sys.stderr)
        return 2
    try:
        with open(args.trace) as stream:
            snapshots = load_snapshots(stream)
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc.strerror}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"{args.trace}: not a monitor JSONL stream ({exc})", file=sys.stderr)
        return 1
    snapshots = select(snapshots, device=args.device, last=args.last)
    if not snapshots:
        print("(no snapshots)", file=sys.stderr)
        return 1
    if args.json:
        for snap in snapshots:
            print(snap.to_json())
    else:
        print(render_snapshots(snapshots))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
