"""Boundary spans: wall-clock intervals around the benchmark's own calls.

A span is ``{run, id, parent, name, start, end}`` in host seconds
(``time.perf_counter``).  Spans of one repeat share a ``run`` id; ``parent``
is the id of the enclosing span (None at the top).  They are kept in
memory and written out once, when the benchmark ends.  Spans are recorded
from ``bench/`` only, around calls into ``repro`` — the library itself is
not instrumented by this PR.

A *slice* is a span that is one piece of a timed section: the same work on
every repeat.  With ``calibrate`` on, a slice also carries ``spin``: how
long a fixed 3-5 ms interpreter loop took right beside it (the faster of one
run before the slice and one after).  The machine this was built on shares
its cores: for seconds at a time everything runs at about 0.6 of full
speed, and the loop says how fast the machine was while the slice ran
(``stats.undisturbed`` uses it; README, "Noise protocol").
"""

from __future__ import annotations

import heapq
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


def spin(rounds: int = 8000) -> float:
    """Host seconds of a fixed loop of the simulator's staple operations
    (heap push/pop of tuples, dict stores, float adds): 3-5 ms."""
    heap: List[Any] = []
    seen: Dict[int, float] = {}
    push, pop = heapq.heappush, heapq.heappop
    clock = 0.0
    start = time.perf_counter()
    for index in range(rounds):
        push(heap, (clock + index * 1e-6, index))
        seen[index & 255] = clock
        if len(heap) > 64:
            clock = pop(heap)[0]
    return time.perf_counter() - start


class SpanLog:
    """An in-memory list of nested wall-clock spans."""

    def __init__(self, calibrate: bool = False) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.run_id = ""
        self.calibrate = calibrate
        #: The spin after the last slice and when it ended: it serves as
        #: the spin before the next slice if that starts at once.
        self._last_spin = (0.0, -1.0)

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def slice(self, name: str) -> Iterator[Dict[str, Any]]:
        """A span that is one slice of a timed section (module docstring)."""
        before = None
        if self.calibrate:
            before, taken = self._last_spin
            if time.perf_counter() - taken > 1e-3:
                before = spin()
        with self.span(name) as record:
            record["slice"] = True
            record["spin"] = None
            yield record
        if self.calibrate:
            after = spin()
            self._last_spin = (after, time.perf_counter())
            record["spin"] = min(before, after)

    def mark(self) -> Tuple[float, Optional[float], float]:
        """An instant that bounds a slice which cannot be wrapped in
        :meth:`slice`: ``(before, spin, after)``, with the calibration loop
        run in between when calibrating, so it lands in neither neighbour."""
        before = time.perf_counter()
        if not self.calibrate:
            return before, None, before
        loop = spin()
        return before, loop, time.perf_counter()

    def add_slices(
        self,
        parent: Dict[str, Any],
        names: Sequence[str],
        marks: Sequence[Tuple[float, Optional[float], float]],
    ) -> None:
        """Slices read off afterwards: consecutive ``marks`` cut ``parent``
        into ``names``."""
        for name, (_, spin_before, start), (end, spin_after, _) in zip(names, marks, marks[1:]):
            self.spans.append({
                "run": self.run_id, "id": len(self.spans), "parent": parent["id"],
                "name": name, "start": start, "end": end, "slice": True,
                "spin": None if spin_before is None else min(spin_before, spin_after),
            })

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            for record in self.spans:
                stream.write(json.dumps(record, separators=(",", ":")) + "\n")


def duration(record: Dict[str, Any]) -> float:
    """Host seconds a closed span covered."""
    return float(record["end"]) - float(record["start"])
