"""The machine's table of named block devices.

A real machine exposes several block devices side by side (``/dev/vda``,
``/dev/vdb``, ...), each with its own request queue and IO-control policy,
all visible under one cgroup tree.  :class:`DeviceRegistry` is that table
for the simulation: it maps machine-local device names to
:class:`~repro.block.layer.BlockLayer` instances and hands out stable
``maj:min`` device numbers (``8:0``, ``8:16``, ... — the SCSI-disk
convention of 16 minors per disk), which key every per-device surface:
per-cgroup :class:`~repro.cgroup.tree.IOStats` records, ``io.stat`` lines,
tracepoint ``dev`` fields, and monitor snapshot streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.block.layer import BlockLayer


class DeviceRegistryError(KeyError):
    """Raised for unknown device names or duplicate registrations."""


#: Linux SCSI-disk numbering: major 8, one disk every 16 minors.
SCSI_MAJOR = 8
MINORS_PER_DISK = 16


def devno_for_index(index: int) -> str:
    """The ``maj:min`` id of the ``index``-th disk (``8:0``, ``8:16``, ...)."""
    if index < 0:
        raise ValueError("device index must be >= 0")
    return f"{SCSI_MAJOR}:{index * MINORS_PER_DISK}"


class DeviceRegistry:
    """Named block layers of one simulated machine, in registration order."""

    def __init__(self) -> None:
        self._layers: Dict[str, "BlockLayer"] = {}

    # -- registration -------------------------------------------------------

    def next_devno(self) -> str:
        """The devno the next registered device should be created with."""
        return devno_for_index(len(self._layers))

    def add(self, name: str, layer: "BlockLayer") -> "BlockLayer":
        """Register ``layer`` under the machine-local ``name`` (``vda``...)."""
        if not name or "/" in name:
            raise DeviceRegistryError(f"invalid device name {name!r}")
        if name in self._layers:
            raise DeviceRegistryError(f"device {name!r} already registered")
        devno = layer.dev
        if any(existing.dev == devno for existing in self._layers.values()):
            raise DeviceRegistryError(f"devno {devno!r} already registered")
        self._layers[name] = layer
        return layer

    # -- lookup -------------------------------------------------------------

    def layer(self, name: str) -> "BlockLayer":
        try:
            return self._layers[name]
        except KeyError:
            raise DeviceRegistryError(
                f"no device {name!r} (have {sorted(self._layers)})"
            ) from None

    def __getitem__(self, name: str) -> "BlockLayer":
        return self.layer(name)

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def names(self) -> List[str]:
        return list(self._layers)

    def items(self) -> Iterator[Tuple[str, "BlockLayer"]]:
        return iter(self._layers.items())

    def layers(self) -> List["BlockLayer"]:
        return list(self._layers.values())

    @property
    def default(self) -> "BlockLayer":
        """The first-registered device's layer (the machine's data device)."""
        if not self._layers:
            raise DeviceRegistryError("registry is empty")
        return next(iter(self._layers.values()))

    def controllers_by_devno(self) -> Dict[str, object]:
        """``devno -> controller`` for every registered device."""
        return {layer.dev: layer.controller for layer in self._layers.values()}
