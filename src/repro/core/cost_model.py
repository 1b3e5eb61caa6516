"""Device cost modelling (paper §3.2).

The cost of an IO is an *occupancy* estimate in seconds: a cost of 20 ms
means the device can service 50 such requests per second, independent of how
long any one of them takes.  IOCost natively supports the linear model of
Equation (1):

    io_cost = base_cost + size_cost_rate * bio_size

with one of four base costs picked by (read/write × random/sequential) and
one of two size rates picked by read/write.

Configuration uses the same convenient parameter format as the kernel
(Figure 6): read/write bytes-per-second plus sequential and random 4 KiB
IOPS, translated internally via Equations (2)–(3):

    size_cost_rate = 1 / Bps
    base_cost      = 1 / IOPS_4k  -  size_cost_rate * 4096

The kernel's eBPF escape hatch is the :class:`CostModel` protocol itself:
any object with a ``cost(bio) -> float`` (seconds) plugs into
:class:`~repro.core.controller.IOCost`, which only ever calls ``cost(bio)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.bio import Bio
    from repro.block.device import DeviceSpec

PAGE = 4096


@runtime_checkable
class CostModel(Protocol):
    """Anything that can price a bio in seconds of device occupancy."""

    def cost(self, bio: "Bio") -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class ModelParams:
    """The six linear-model parameters in kernel configuration format.

    Attributes mirror the ``io.cost.model`` keys: ``rbps``/``wbps`` are
    sustained sequential bytes per second; ``rseqiops``/``rrandiops`` and
    ``wseqiops``/``wrandiops`` are 4 KiB IOPS.
    """

    rbps: float
    rseqiops: float
    rrandiops: float
    wbps: float
    wseqiops: float
    wrandiops: float

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    # -- Equation (2)/(3) translations -------------------------------------

    @property
    def r_size_rate(self) -> float:
        """Read size cost rate, seconds per byte."""
        return 1.0 / self.rbps

    @property
    def w_size_rate(self) -> float:
        return 1.0 / self.wbps

    def _base(self, iops: float, size_rate: float) -> float:
        base = 1.0 / iops - size_rate * PAGE
        # A device whose 4k IOPS is transfer-bound can give a non-positive
        # base; clamp like the kernel does rather than produce negative cost.
        return max(base, 0.0)

    @property
    def r_seq_base(self) -> float:
        return self._base(self.rseqiops, self.r_size_rate)

    @property
    def r_rand_base(self) -> float:
        return self._base(self.rrandiops, self.r_size_rate)

    @property
    def w_seq_base(self) -> float:
        return self._base(self.wseqiops, self.w_size_rate)

    @property
    def w_rand_base(self) -> float:
        return self._base(self.wrandiops, self.w_size_rate)

    def scaled(self, factor: float) -> "ModelParams":
        """Params claiming the device is ``factor``× as capable.

        Used by the Figure 13 experiment, which halves and doubles the model
        online to show vrate compensating for model error.
        """
        return ModelParams(
            rbps=self.rbps * factor,
            rseqiops=self.rseqiops * factor,
            rrandiops=self.rrandiops * factor,
            wbps=self.wbps * factor,
            wseqiops=self.wseqiops * factor,
            wrandiops=self.wrandiops * factor,
        )

    @classmethod
    def from_device_spec(cls, spec: "DeviceSpec") -> "ModelParams":
        """Exact parameters for a simulated device (oracle calibration).

        Production flows derive params with :func:`repro.core.profiler.profile_device`;
        this shortcut exists for tests and for experiments that *want* a
        perfect model as the starting point (e.g. Figure 13).
        """
        return cls(
            rbps=spec.read_bw,
            rseqiops=spec.peak_seq_read_iops,
            rrandiops=spec.peak_rand_read_iops,
            wbps=spec.write_bw,
            wseqiops=spec.peak_seq_write_iops,
            wrandiops=spec.peak_rand_write_iops,
        )


class LinearCostModel:
    """Equation (1) over :class:`ModelParams`, with live replacement.

    ``replace_params`` supports the kernel's online model updates (used by
    the Figure 13 experiment); the controller need not be restarted.
    """

    def __init__(self, params: ModelParams) -> None:
        self.params = params
        self._load(params)

    def _load(self, params: ModelParams) -> None:
        self._r_rate = params.r_size_rate
        self._w_rate = params.w_size_rate
        self._bases = {
            (False, False): params.r_rand_base,
            (False, True): params.r_seq_base,
            (True, False): params.w_rand_base,
            (True, True): params.w_seq_base,
        }

    def replace_params(self, params: ModelParams) -> None:
        """Swap the model parameters online."""
        self.params = params
        self._load(params)

    def cost(self, bio: "Bio") -> float:
        """Absolute occupancy cost of ``bio`` in seconds."""
        base = self._bases[(bio.is_write, bio.sequential)]
        rate = self._w_rate if bio.is_write else self._r_rate
        return base + rate * bio.nbytes
