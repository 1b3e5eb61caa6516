"""Worker-importable experiment functions for the runner tests.

These live in a real module (not a test body) so the runner can resolve
them by dotted path inside pool workers.
"""

from __future__ import annotations

from typing import Any, Dict

#: Per-tag attempt counters for the flaky kind (reset by tests).
CALLS: Dict[str, int] = {}


def quick(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Cheap deterministic kind: echoes params and the derived seed."""
    return {"value": params.get("value", 0), "seed": seed}


def always_fail(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    raise RuntimeError(f"boom-{params.get('tag', '')}")


def hang_forever(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Never returns: exercises the runner's wall-clock timeout kill path."""
    import time

    while True:  # pragma: no cover - the worker is terminated from outside
        time.sleep(0.1)


def fail_once_then_ok(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Fails on the first attempt for each tag, succeeds on the retry.

    Only meaningful with ``workers=1`` (the counter lives in-process).
    """
    tag = str(params.get("tag", ""))
    CALLS[tag] = CALLS.get(tag, 0) + 1
    if CALLS[tag] == 1:
        raise ValueError(f"transient-{tag}")
    return {"recovered": True, "attempts_seen": CALLS[tag]}


def die_on(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Kills its worker process outright when ``params["value"]`` equals
    ``params["die"]`` (no exception, no verdict); else :func:`quick`."""
    import os

    if params.get("value") == params.get("die"):
        os._exit(3)
    return quick(params, seed)


def nap_then_die_on(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A slow cell: sleeps ``params["nap"]`` seconds, then :func:`die_on`."""
    import time

    time.sleep(params["nap"])
    return die_on(params, seed)


def worker_pid(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Reports which process ran the cell."""
    import os

    return {"value": params.get("value", 0), "pid": os.getpid()}
