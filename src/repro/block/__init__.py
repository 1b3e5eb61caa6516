"""Block layer substrate: bios, simulated devices, and the dispatch layer."""

from repro.block.bio import Bio, BioFlags, BioStatus, IOOp, SECTOR_SIZE
from repro.block.device import DEFAULT_DEVNO, Device, DeviceSpec, devno_for_index
from repro.block.device_models import DEVICE_CATALOG, get_device_spec
from repro.block.layer import BlockLayer
from repro.block.trace import TraceReplayer

__all__ = [
    "Bio",
    "BioFlags",
    "BioStatus",
    "BlockLayer",
    "DEFAULT_DEVNO",
    "DEVICE_CATALOG",
    "Device",
    "DeviceSpec",
    "IOOp",
    "SECTOR_SIZE",
    "TraceReplayer",
    "devno_for_index",
    "get_device_spec",
]
