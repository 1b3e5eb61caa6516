"""Deterministic discrete-event simulation engine.

The engine is a classic event-heap simulator.  Time is a float in seconds.
Three primitives cover everything the reproduction needs:

* :meth:`Simulator.schedule` — run a callback after a delay (returns an
  :class:`Event` handle that can be cancelled, used for timers such as the
  IOCost planning period).
* :class:`Signal` — a one-shot waitable event used for IO completions and
  request/response rendezvous.
* :class:`Process` — a cooperative task written as a generator.  A process
  may ``yield`` a number (sleep that many seconds) or a :class:`Signal`
  (wait until it fires); its :attr:`~Process.done` turns true when the
  generator returns.

Determinism: ties in the event heap are broken by insertion order, so two
runs with the same seeds produce identical traces.

Hot-path layout (docs/PERF.md): heap entries are ``(time, seq, event)``
tuples, not bare :class:`Event` objects, so every heap sift compares in C
without ever calling back into Python — the ``seq`` tiebreaker is unique,
so comparison never reaches the (non-comparable) event in slot 2.
Cancellation stays on the :class:`Event` handle; a cancelled entry is left
in the heap and discarded when popped.  :meth:`Simulator.run` is the one
dispatch loop — inlined, with the profiler and sanitizer hooks hoisted to
locals that are ``None`` while disabled — and :meth:`Simulator.step` is
the public single-event API; :meth:`Simulator.schedule_bulk` amortises
batched timer creation into a single heap restore.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.obs.prof import PROF
from repro.sanitize import SANITIZE


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. bad yield values)."""


class Event:
    """Handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`; supports cancellation, which is
    how periodic timers and latency-governed workloads stand down.  The
    handle is *not* the heap entry (see the module docstring): it only
    carries what dispatch and cancellation need.
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True


class Signal:
    """A one-shot waitable event carrying an optional value.

    Processes wait on a signal by yielding it; plain callbacks can subscribe
    with :meth:`wait`.  Firing an already-fired signal is an error; waiting
    on a fired signal resumes the waiter immediately.
    """

    __slots__ = ("sim", "fired", "value", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        """Fire the signal, resuming all waiters in subscription order."""
        if self.fired:
            raise SimulationError("signal fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the signal fires (now if already fired)."""
        if self.fired:
            callback(self.value)
        else:
            self._waiters.append(callback)


class Process:
    """A generator-based cooperative task.

    The wrapped generator drives the process; see the module docstring for
    the yield protocol.  :attr:`done` turns true when the generator returns.
    """

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = False

    def _step(self, send_value: Any = None) -> None:
        try:
            yielded = self.gen.send(send_value)
        except StopIteration:
            self.done = True
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(f"process {self.name!r} yielded negative delay")
            self.sim.schedule(float(yielded), self._step, None)
        elif isinstance(yielded, Signal):
            yielded.wait(self._step)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )


#: Type of a heap entry: ``(time, seq, event)``.
HeapEntry = Tuple[float, int, Event]


class Simulator:
    """Event-heap simulator with a float clock in seconds."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[HeapEntry] = []
        self._seq = 0
        #: Callbacks dispatched so far.
        self.events_processed = 0
        # Cached self-profiler (same zero-cost guard pattern as tracepoints).
        self._prof = PROF
        # Cached sanitizer (repro.sanitize), same guard pattern.
        self._san = SANITIZE

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds; returns a handle."""
        # ``not (delay >= 0)`` also catches NaN, which compares False both
        # ways and would otherwise slip past a ``delay < 0`` check and
        # corrupt the heap invariant.
        if not delay >= 0.0 or delay == math.inf:
            raise SimulationError(f"cannot schedule with delay {delay!r}")
        event = Event(self.now + delay, callback, args)
        if self._prof.enabled:
            self._prof.heap_pushes += 1
        self._seq += 1
        heapq.heappush(self._heap, (event.time, self._seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``: that float
        itself, where ``schedule(time - now)`` can land an ulp away."""
        if not time >= self.now or time == math.inf:
            raise SimulationError(f"cannot schedule at time {time!r} (now {self.now!r})")
        event = Event(time, callback, args)
        if self._prof.enabled:
            self._prof.heap_pushes += 1
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        return event

    def schedule_bulk(
        self, entries: Iterable[Tuple[float, Callable[..., Any], tuple]]
    ) -> List[Event]:
        """Schedule many ``(delay, callback, args)`` timers in one heap restore.

        Semantically identical to calling :meth:`schedule` per entry (same
        tie-break order: entries receive consecutive sequence numbers in
        iteration order); the heap invariant is restored once at the end
        with ``heapify`` — O(heap + batch) instead of O(batch · log heap) —
        so batched completions or timer fan-outs cost one heap operation
        per batch.
        """
        heap = self._heap
        now = self.now
        events: List[Event] = []
        seq = self._seq
        prof = self._prof
        # The restore runs in a finally: a bad delay mid-batch must not
        # leave earlier entries appended un-heapified (and their sequence
        # numbers unclaimed), or the next sift could compare two entries
        # down to the non-comparable Event in slot 2.
        try:
            for delay, callback, args in entries:
                if not delay >= 0.0 or delay == math.inf:
                    raise SimulationError(f"cannot schedule with delay {delay!r}")
                event = Event(now + delay, callback, args)
                seq += 1
                heap.append((event.time, seq, event))
                events.append(event)
        finally:
            self._seq = seq
            if events:
                heapq.heapify(heap)
                if prof.enabled:
                    prof.heap_pushes += len(events)
                if self._san.enabled:
                    self._san.check_heap(heap, now)
        return events

    def signal(self) -> Signal:
        """Create a fresh one-shot :class:`Signal` bound to this simulator."""
        return Signal(self)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a :class:`Process` (first step runs at ``now``)."""
        proc = Process(self, gen, name)
        self.schedule(0.0, proc._step, None)
        return proc

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the heap is empty."""
        prof = self._prof
        san = self._san
        heap = self._heap
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if prof.enabled:
                prof.heap_pops += 1
            if event.cancelled:
                continue
            if san.enabled:
                san.check_monotonic(self.now, time)
            self.now = time
            self.events_processed += 1
            if prof.enabled:
                prof.events_dispatched += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the heap drains or the clock passes ``until``.

        With ``until`` set, the clock is advanced to exactly ``until`` at the
        end even if no event lands there, so back-to-back ``run`` calls tile
        the timeline.

        One inlined dispatch loop serves every configuration: the profiler
        and sanitizer are hoisted to locals that are ``None`` while
        disabled, so an uninstrumented event costs one head-time compare,
        one heap pop, one cancelled check, three local ``None`` tests and
        the callback.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run backwards")
        limit = math.inf if until is None else until
        prof = self._prof if self._prof.enabled else None
        san = self._san if self._san.enabled else None
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        # ``events_processed`` is batched back in a finally so a raising
        # callback cannot lose the events dispatched before it.
        try:
            while heap:
                head = heap[0]
                # A cancelled head is discarded even past ``until``.
                if head[0] > limit and not head[2].cancelled:
                    break
                time, _seq, event = pop(heap)
                if prof is not None:
                    prof.heap_pops += 1
                if event.cancelled:
                    continue
                if san is not None:
                    san.check_monotonic(self.now, time)
                self.now = time
                dispatched += 1
                if prof is not None:
                    prof.events_dispatched += 1
                event.callback(*event.args)
            if until is not None:
                self.now = until
        finally:
            self.events_processed += dispatched
