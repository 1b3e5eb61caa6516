"""Unit tests for the Bio data structure."""

import pytest

from repro.block.bio import Bio, BioFlags, IOOp, SECTOR_SIZE
from repro.cgroup import CgroupTree


@pytest.fixture
def cgroup():
    return CgroupTree().create("a")


def test_bio_fields(cgroup):
    bio = Bio(IOOp.READ, 4096, 100, cgroup)
    assert not bio.is_write
    assert bio.nbytes == 4096
    assert bio.sector == 100
    assert bio.flags is BioFlags.NONE


def test_write_flag(cgroup):
    bio = Bio(IOOp.WRITE, 4096, 0, cgroup)
    assert bio.is_write


def test_end_sector_rounds_up(cgroup):
    bio = Bio(IOOp.READ, 4096, 10, cgroup)
    assert bio.end_sector == 10 + 4096 // SECTOR_SIZE
    odd = Bio(IOOp.READ, 4097, 10, cgroup)
    assert odd.end_sector == 10 + 4096 // SECTOR_SIZE + 1


def test_ids_are_unique(cgroup):
    first = Bio(IOOp.READ, 4096, 0, cgroup)
    second = Bio(IOOp.READ, 4096, 0, cgroup)
    assert first.id != second.id


def test_invalid_size_rejected(cgroup):
    with pytest.raises(ValueError):
        Bio(IOOp.READ, 0, 0, cgroup)
    with pytest.raises(ValueError):
        Bio(IOOp.READ, -4096, 0, cgroup)


def test_negative_sector_rejected(cgroup):
    with pytest.raises(ValueError):
        Bio(IOOp.READ, 4096, -1, cgroup)


def test_latency_requires_completion(cgroup):
    bio = Bio(IOOp.READ, 4096, 0, cgroup)
    with pytest.raises(ValueError):
        _ = bio.latency
    bio.submit_time = 1.0
    bio.issue_time = 1.5
    bio.complete_time = 2.0
    assert bio.latency == pytest.approx(1.0)
    assert bio.device_latency == pytest.approx(0.5)
    assert bio.wait_time == pytest.approx(0.5)


def test_swap_flag_combination(cgroup):
    bio = Bio(IOOp.WRITE, 4096, 0, cgroup, flags=BioFlags.SWAP | BioFlags.JOURNAL)
    assert bio.flags & BioFlags.SWAP
    assert bio.flags & BioFlags.JOURNAL
    # A traced bio's ``flags`` is this value.
    assert list(BioFlags) == [BioFlags.SWAP, BioFlags.JOURNAL]
    assert (BioFlags.SWAP.value, BioFlags.JOURNAL.value) == (1, 2)
