"""IO control mechanisms: IOCost plus the Table 1 baselines.

``IOCost`` itself lives in :mod:`repro.core.controller`; it is re-exported
here lazily (module ``__getattr__``) to keep the package import graph
acyclic — ``repro.core`` imports controller base classes from this package.
"""

from repro.controllers.base import IOController
from repro.controllers.noop import NoopController
from repro.controllers.mq_deadline import MQDeadlineController
from repro.controllers.kyber import KyberController
from repro.controllers.blk_throttle import BlkThrottleController, ThrottleLimits
from repro.controllers.bfq import BFQController
from repro.controllers.iolatency import IOLatencyController
from repro.controllers.stacked import StackedController

__all__ = [
    "BFQController",
    "BlkThrottleController",
    "IOController",
    "IOCost",
    "IOLatencyController",
    "KyberController",
    "MQDeadlineController",
    "NoopController",
    "StackedController",
    "ThrottleLimits",
]


def __getattr__(name: str):
    if name == "IOCost":
        from repro.core.controller import IOCost

        return IOCost
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
