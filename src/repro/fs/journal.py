"""A shared filesystem journal with batched commits.

Models the jbd2-style machinery that makes journaling a priority-inversion
hazard (paper §3.5):

* every cgroup's metadata updates append *records* to the single running
  transaction batch;
* the batch commits when ``fsync`` forces it or the commit interval
  expires;
* a commit writes **all** pending records — each as a JOURNAL-flagged
  sequential write bio charged to the cgroup that logged it — and an
  ``fsync`` caller blocks until the whole commit is durable.

So cgroup B's fsync waits on cgroup A's journal writes.  If the IO
controller throttles A's writes in place (the origin-throttle ablation),
B is blocked by A's debt — the inversion.  Under the production debt
protocol, journal writes are issued immediately and A repays later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.block.bio import Bio, BioFlags, IOOp
from repro.block.layer import BlockLayer
from repro.cgroup import Cgroup
from repro.sim import Signal, Simulator


class JournalError(RuntimeError):
    """Raised on journal protocol violations (internal invariant breaks)."""


@dataclass
class JournalStats:
    commits: int = 0
    records_written: int = 0
    bytes_written: int = 0
    forced_commits: int = 0  # commits triggered by fsync rather than timer


class Journal:
    """One device's shared metadata journal."""

    def __init__(
        self,
        sim: Simulator,
        layer: BlockLayer,
        commit_interval: float = 0.1,
        record_size: int = 4096,
        journal_sector: int = 1 << 30,
    ):
        if commit_interval <= 0:
            raise ValueError("commit_interval must be positive")
        self.sim = sim
        self.layer = layer
        self.commit_interval = commit_interval
        self.record_size = record_size
        self.stats = JournalStats()
        # The running transaction: (owner cgroup, bytes) records.
        self._pending: List[Tuple[Cgroup, int]] = []
        # Fired when the *current* batch becomes durable.
        self._commit_done: Optional[Signal] = None
        self._commit_in_progress = False
        self._head_sector = journal_sector
        self._timer = sim.schedule(commit_interval, self._periodic_commit)

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- public API -----------------------------------------------------------

    def log(self, cgroup: Cgroup, nbytes: int) -> None:
        """Append a metadata record to the running transaction."""
        if nbytes <= 0:
            raise ValueError("record bytes must be positive")
        self._pending.append((cgroup, nbytes))

    def fsync(self, cgroup: Cgroup) -> Generator:
        """Commit until the caller's records are durable.

        Joins any in-flight commit first; if the caller still has records
        in the (next) running transaction afterwards, forces a commit of
        that batch too.  Either way the caller waits for *every* record in
        its batch — including other cgroups' — which is exactly the §3.5
        journaling entanglement.
        """
        if self._commit_in_progress:
            signal = self._commit_done
            if signal is None:
                raise JournalError("commit in progress without a done signal")
            if not signal.fired:
                yield signal
        if any(owner is cgroup for owner, _ in self._pending):
            self.stats.forced_commits += 1
            yield from self._commit()

    @property
    def pending_records(self) -> int:
        return len(self._pending)

    # -- commit machinery --------------------------------------------------------

    def _periodic_commit(self) -> None:
        self._timer = self.sim.schedule(self.commit_interval, self._periodic_commit)
        if self._pending and not self._commit_in_progress:
            self.sim.process(self._commit(), name="journal-commit")

    def _commit(self) -> Generator:
        self._commit_in_progress = True
        self._commit_done = self.sim.signal()
        batch, self._pending = self._pending, []
        signals = []
        for owner, nbytes in batch:
            # Round up to whole journal records.
            size = max(self.record_size, nbytes)
            bio = Bio(
                IOOp.WRITE, size, self._head_sector, owner, flags=BioFlags.JOURNAL
            )
            self._head_sector += bio.end_sector - bio.sector
            signal = self.sim.signal()
            self.layer.submit(bio, on_done=signal.fire)
            signals.append(signal)
            self.stats.records_written += 1
            self.stats.bytes_written += size
        for signal in signals:
            if not signal.fired:
                yield signal
        self.stats.commits += 1
        self._commit_in_progress = False
        self._commit_done.fire()
