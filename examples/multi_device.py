#!/usr/bin/env python
"""A two-device machine: data on a local SSD, swap on a cloud volume.

The kernel instantiates one iocost per block device; this example builds
the simulation equivalent — one machine, two devices (``vda`` = local SSD,
``vdb`` = EBS-style network volume), each with its own iocost instance,
sharing one cgroup tree:

* a latency-governed workload reads from ``vda``;
* a paced log writer targets ``vdb``;
* memory is overcommitted and swap is placed on ``vdb``, so reclaim
  writeback competes with the log writer on the cloud volume while the
  SSD workload stays untouched;
* a monitor rides the run, producing one snapshot stream per device, and
  per-cgroup ``io.stat`` comes out with one ``maj:min`` line per device.

Run it:

    python examples/multi_device.py
    python -m repro.tools.monitor multi_device.jsonl --device 8:16 --last 2
"""

from repro.block.bio import IOOp
from repro.obs.iostat import IOStat
from repro.testbed import Testbed
from repro.tools.monitor import Monitor

MB = 1 << 20
OUT = "multi_device.jsonl"
RUNTIME = 4.0


def main() -> None:
    bed = Testbed(
        devices={"vda": "ssd_old", "vdb": "ebs_gp3"},
        controllers={"vda": "iocost", "vdb": "iocost"},
        mem_bytes=256 * MB,
        swap_bytes=1024 * MB,
        swap_device="vdb",
        seed=7,
    )
    app = bed.add_cgroup("workload.slice/app", weight=200)
    logger = bed.add_cgroup("system.slice/logger", weight=100)

    # Data IO on the SSD; log shipping on the cloud volume.
    bed.latency_governed(app, device="vda", latency_target=200e-6, stop_at=RUNTIME)
    bed.paced(logger, rate=400, device="vdb", op=IOOp.WRITE, size=64 * 1024,
              stop_at=RUNTIME)

    # Overcommit memory so reclaim swaps the app's cold pages out to vdb.
    def hog(cgroup, nbytes):
        yield from bed.mm.alloc(cgroup, nbytes)

    bed.sim.process(hog(app, 200 * MB))
    bed.sim.process(hog(logger, 120 * MB))

    with open(OUT, "w") as stream:
        monitor = Monitor(bed, stream=stream).start()
        bed.run(RUNTIME)
        monitor.stop()
    bed.detach()

    for name, layer in bed.devices.items():
        snaps = monitor.snapshots_for(name)
        print(
            f"{name} ({layer.dev}, {layer.device.spec.name}): "
            f"vrate={layer.controller.vrate:.2f} "
            f"snapshots={len(snaps)}"
        )

    controllers = {layer.dev: layer.controller for layer in bed.devices.values()}
    iostat = IOStat(bed.cgroups, controllers)
    for path in ("workload.slice/app", "system.slice/logger"):
        print(f"\nio.stat of {path}:")
        print(iostat.render(path))

    swapped = bed.mm.state_of(app).swapped_out_total
    print(f"\napp bytes swapped out to vdb: {swapped / MB:.1f} MB")
    print(f"snapshot stream written to {OUT}")


if __name__ == "__main__":
    main()
