"""A one-machine experiment testbed — the library's convenience facade.

Bundles a simulator, one **or several** catalogued devices (each with its
own block layer and controller instance), the Figure 1 cgroup hierarchy,
and (optionally) the memory-management substrate, with helpers to attach
workloads and measure per-cgroup throughput over run windows.  Examples and
the benchmark harness are written against this API.

Single-device construction is unchanged::

    bed = Testbed(device="ssd_new", controller="iocost")

Multi-device machines name their devices (``vda``-style) and may mix
controllers, reproducing the kernel's per-device iocost instantiation::

    bed = Testbed(
        devices={"vda": "ssd_new", "vdb": "ebs_gp3"},
        controllers={"vda": "iocost", "vdb": "iocost"},
        mem_bytes=1 << 30,
        swap_device="vdb",          # swap IO targets the cloud volume
    )
    bed.saturate(group, device="vda")

All devices share one cgroup tree and one simulator clock; every per-device
RNG stream is derived from the machine seed by component label, so adding a
device never perturbs the streams of existing ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.block.bio import reset_bio_ids
from repro.block.device import Device, DeviceSpec
from repro.block.layer import BlockLayer
from repro.block.device_models import get_device_spec
from repro.block.registry import DeviceRegistry
from repro.cgroup import Cgroup, CgroupTree, make_meta_hierarchy
from repro.controllers.base import IOController
from repro.controllers.bfq import BFQController
from repro.controllers.blk_throttle import BlkThrottleController
from repro.controllers.iolatency import IOLatencyController
from repro.controllers.kyber import KyberController
from repro.controllers.mq_deadline import MQDeadlineController
from repro.controllers.noop import NoopController
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.qos import QoSParams
from repro.faults import FaultPlan
from repro.mm.memory import MemoryManager
from repro.sim import Simulator, labeled_seed
from repro.workloads.synthetic import (
    ClosedLoopWorkload,
    LatencyGovernedWorkload,
    PacedWorkload,
    ThinkTimeWorkload,
)

GB = 1024 ** 3

#: Name given to the device of single-device constructions.
DEFAULT_DEVICE_NAME = "vda"


#: The controller roster: every mechanism by name, none first.
CONTROLLERS: Dict[str, Type[IOController]] = {
    cls.name: cls
    for cls in (
        NoopController,
        MQDeadlineController,
        KyberController,
        BlkThrottleController,
        BFQController,
        IOLatencyController,
        IOCost,
    )
}


def make_controller(
    name: str,
    spec: DeviceSpec,
    qos: Optional[QoSParams] = None,
    **kwargs,
) -> IOController:
    """Build a controller by Table 1 name.

    For ``iocost`` the cost model is the oracle parameters of the simulated
    device (production flows would use
    :func:`repro.core.profiler.profile_device` instead; pass a configured
    :class:`IOCost` to :class:`Testbed` for any other model) and ``qos``
    defaults to :class:`~repro.core.qos.QoSParams`'s defaults.
    """
    if name not in CONTROLLERS:
        raise ValueError(f"unknown controller {name!r}")
    if name == "iocost":
        params = ModelParams.from_device_spec(spec)
        return IOCost(LinearCostModel(params), qos=qos or QoSParams(), **kwargs)
    return CONTROLLERS[name](**kwargs)


class Testbed:
    """One simulated machine: device(s) + controller(s) + cgroups (+ memory)."""

    __test__ = False  # not a pytest collection target despite the name

    def __init__(
        self,
        device: Union[str, DeviceSpec] = "ssd_new",
        controller: Union[str, IOController] = "iocost",
        seed: int = 0,
        mem_bytes: Optional[int] = None,
        swap_bytes: Optional[int] = None,
        qos: Optional[QoSParams] = None,
        protected: Optional[Dict[str, int]] = None,
        devices: Optional[Dict[str, Union[str, DeviceSpec]]] = None,
        controllers: Optional[Dict[str, Union[str, IOController]]] = None,
        swap_device: Optional[str] = None,
        faults: Optional[Union[FaultPlan, Dict[str, FaultPlan]]] = None,
        io_timeout: Optional[float] = None,
        max_retries: int = 3,
        **controller_kwargs,
    ):
        # Fresh bio ids per machine: trace bytes must not depend on what
        # else ran earlier in this process (see repro.block.bio).
        reset_bio_ids()
        self.sim = Simulator()
        self._seed = seed
        self._workload_count = 0
        self.cgroups: CgroupTree = make_meta_hierarchy()
        self.devices = DeviceRegistry()

        if devices is None:
            devices = {DEFAULT_DEVICE_NAME: device}
            if controllers is None:
                controllers = {DEFAULT_DEVICE_NAME: controller}
        if controllers is None:
            controllers = {}
        if isinstance(controller, IOController) and len(devices) > 1:
            missing = [name for name in devices if name not in controllers]
            if missing:
                raise ValueError(
                    "a shared IOController instance cannot serve several "
                    f"devices ({missing}); pass per-device instances via "
                    "controllers={...}"
                )

        # Per-device fault plans (repro.faults).  A bare FaultPlan is the
        # single-device shorthand for {first device name: plan}.
        if isinstance(faults, FaultPlan):
            faults = {next(iter(devices)): faults}
        fault_plans: Dict[str, FaultPlan] = dict(faults or {})
        unknown_fault_devs = set(fault_plans) - set(devices)
        if unknown_fault_devs:
            raise ValueError(
                f"faults name unknown device(s) {sorted(unknown_fault_devs)}"
            )

        for name, spec_like in devices.items():
            spec = spec_like if isinstance(spec_like, DeviceSpec) else get_device_spec(spec_like)
            ctl_like = controllers.get(name, controller)
            if isinstance(ctl_like, IOController):
                ctl = ctl_like
            else:
                ctl = make_controller(ctl_like, spec, qos=qos, **controller_kwargs)
            plan = fault_plans.get(name)
            if plan is not None:
                # Error draws get their own label-keyed stream, so a fault
                # plan never perturbs the device's service-noise sequence.
                plan.bind(self.rng_for(f"faults:{name}"))
            dev = Device(
                self.sim, spec, self.rng_for(f"device:{name}"),
                name=name, devno=self.devices.next_devno(), faults=plan,
            )
            layer = BlockLayer(
                self.sim, dev, ctl,
                io_timeout=io_timeout, max_retries=max_retries,
            )
            self.devices.add(name, layer)

        # Single-device aliases: the machine's first (data) device.
        self.layer = self.devices.default
        self.device = self.layer.device
        self.controller = self.layer.controller
        self.spec = self.device.spec

        self.mm: Optional[MemoryManager] = None
        if mem_bytes is not None:
            swap_layer = (
                self.devices.layer(swap_device) if swap_device is not None else self.layer
            )
            self.mm = MemoryManager(
                self.sim,
                self.layer,
                total_bytes=mem_bytes,
                swap_bytes=swap_bytes if swap_bytes is not None else 16 * mem_bytes,
                protected=protected,
                seed=labeled_seed(self._seed, "mm"),
                swap_layer=swap_layer,
            )
        elif swap_device is not None:
            raise ValueError("swap_device requires mem_bytes")
        self._window_start = 0.0
        #: ``done_ios`` per (cgroup, devno) at the start of the run window.
        self._window_snapshot: Dict[Tuple[Cgroup, str], int] = {}

    # -- RNG streams ---------------------------------------------------------

    def rng_for(self, label: str) -> np.random.Generator:
        """A dedicated RNG stream for one named component.

        Streams are children of one ``SeedSequence`` rooted at the machine
        seed, keyed by a hash of ``label`` — not by spawn order — so the
        stream for ``device:vda`` is identical whether or not ``vdb``
        exists (determinism across topology changes).
        """
        return np.random.default_rng(labeled_seed(self._seed, label))

    def _next_seed(self) -> np.random.SeedSequence:
        """Seed material for the next attached workload (stable per ordinal)."""
        self._workload_count += 1
        return labeled_seed(self._seed, f"workload:{self._workload_count}")

    # -- device lookup -------------------------------------------------------

    def layer_of(self, device: Optional[str] = None) -> BlockLayer:
        """The block layer of a named device (default: the data device)."""
        if device is None:
            return self.layer
        return self.devices.layer(device)

    def controller_of(self, device: Optional[str] = None) -> IOController:
        return self.layer_of(device).controller

    # -- cgroups ------------------------------------------------------------

    def add_cgroup(self, path: str, weight: int = 100) -> Cgroup:
        return self.cgroups.get_or_create(path, weight=weight)

    def set_weight(self, cgroup: Cgroup, weight: int) -> None:
        cgroup.weight = weight
        for layer in self.devices.layers():
            if isinstance(layer.controller, IOCost):
                layer.controller.set_weight(cgroup, weight)

    # -- workload attachment ----------------------------------------------------

    def saturate(
        self, cgroup: Cgroup, device: Optional[str] = None, **kwargs
    ) -> ClosedLoopWorkload:
        kwargs.setdefault("seed", self._next_seed())
        return ClosedLoopWorkload(
            self.sim, self.layer_of(device), cgroup, **kwargs
        ).start()

    def paced(
        self, cgroup: Cgroup, rate: float, device: Optional[str] = None, **kwargs
    ) -> PacedWorkload:
        kwargs.setdefault("seed", self._next_seed())
        return PacedWorkload(
            self.sim, self.layer_of(device), cgroup, rate, **kwargs
        ).start()

    def think_time(
        self, cgroup: Cgroup, device: Optional[str] = None, **kwargs
    ) -> ThinkTimeWorkload:
        kwargs.setdefault("seed", self._next_seed())
        return ThinkTimeWorkload(
            self.sim, self.layer_of(device), cgroup, **kwargs
        ).start()

    def latency_governed(
        self, cgroup: Cgroup, device: Optional[str] = None, **kwargs
    ) -> LatencyGovernedWorkload:
        kwargs.setdefault("seed", self._next_seed())
        return LatencyGovernedWorkload(
            self.sim, self.layer_of(device), cgroup, **kwargs
        ).start()

    # -- execution & measurement ---------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation; starts a fresh measurement window."""
        self._window_start = self.sim.now
        self._window_snapshot = {
            (cgroup, dev): record.done_ios
            for cgroup in self.cgroups
            for dev, record in cgroup.stats.devices()
        }
        self.sim.run(until=self.sim.now + duration)

    @property
    def window_duration(self) -> float:
        return self.sim.now - self._window_start

    def iops(self, cgroup: Cgroup, device: Optional[str] = None) -> float:
        """Completed IO/s for the cgroup over the last ``run`` window.

        Sums over every device unless ``device`` names one.
        """
        duration = self.window_duration
        if duration <= 0:
            raise ValueError("no completed run window")
        names = [device] if device is not None else list(self.devices)
        done = 0
        for name in names:
            layer = self.devices.layer(name)
            done += layer.iops_of(cgroup) - self._window_snapshot.get((cgroup, layer.dev), 0)
        return done / duration

    def latency_percentile(
        self, cgroup: Cgroup, pct: float, device: Optional[str] = None
    ) -> Optional[float]:
        """The cgroup's *read* latency percentile (None: no read finished)."""
        return self.latency_percentiles(cgroup, (pct,), device)[0]

    def latency_percentiles(
        self, cgroup: Cgroup, pcts: Sequence[float], device: Optional[str] = None
    ) -> List[Optional[float]]:
        """:meth:`latency_percentile` at each of ``pcts``, by one selection."""
        window = self.layer_of(device).cgroup_window(cgroup)
        if window is None:
            return [None] * len(pcts)
        return window.percentiles(self.sim.now, pcts, reads_only=True)

    def detach(self) -> None:
        """Tear down every controller's timers (end of experiment)."""
        for layer in self.devices.layers():
            layer.controller.detach()
