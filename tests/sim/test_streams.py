"""``labeled_seed`` is the one derivation of label-keyed seed material.

The property is the contract the whole tree leans on — one label is one
stream, distinct labels are distinct streams, and neither depends on which
other streams exist.  The golden values pin the derivation itself: every
committed digest and golden result was produced by these exact streams, so
``Testbed.rng_for``, workload seeds, ``noise_stream``'s nested key and its
seedless fallback must keep reproducing them bit for bit.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.block.device import noise_stream
from repro.sim import labeled_seed
from repro.testbed import Testbed
from repro.workloads.fleet import rng_for

DRAWS = 8


def draws(seed_seq):
    return tuple(np.random.default_rng(seed_seq).integers(0, 1 << 63, size=DRAWS))


@given(
    entropy=st.integers(min_value=0, max_value=(1 << 64) - 1),
    labels=st.lists(st.text(max_size=12), min_size=1, max_size=8, unique=True),
    parent_key=st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1), max_size=2),
)
def test_one_label_one_stream_distinct_labels_distinct_streams(entropy, labels, parent_key):
    streams = {label: draws(labeled_seed(entropy, label, parent_key)) for label in labels}
    assert len(set(streams.values())) == len(labels)
    # Asked again, alone and in the opposite order: the same streams.
    for label in reversed(labels):
        assert draws(labeled_seed(entropy, label, parent_key)) == streams[label]
    # A nested stream is not its parent's sibling of the same name.
    assert draws(labeled_seed(entropy, labels[0], [*parent_key, 1])) != streams[labels[0]]


class SeedlessGenerator:
    """A generator whose bit generator carries no ``SeedSequence``."""

    bit_generator = object()

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, *args):
        return self._rng.integers(*args)


def test_every_caller_reproduces_its_stream():
    def first(rng):
        return int(rng.integers(1 << 62))

    bed = Testbed(seed=7)
    device_rng = bed.rng_for("device:vda")
    # The noise stream extends the device stream's own spawn key ...
    assert first(noise_stream(device_rng, "noise:sigma")) == 4264623717889699975
    assert first(device_rng) == 3160566880884035462  # ... and consumed nothing.
    assert first(np.random.default_rng(bed._next_seed())) == 869131696683913418
    assert first(rng_for("fleet:task", 7)) == 1521458073900846570
    # Without seed material to extend it draws one seed from the parent.
    seedless = SeedlessGenerator(5)
    expected = np.random.default_rng(int(np.random.default_rng(5).integers(0, 2 ** 63)))
    assert first(noise_stream(seedless, "noise:tail")) == first(expected)
