"""Label-keyed RNG seed material.

Every random consumer in the reproduction draws from its own stream, named
by a string label (``device:vda``, ``workload:3``, ``fleet:mc:<week>``).
:func:`labeled_seed` is the one place a label becomes seed material, so
the contract holds by construction rather than by audit: one (entropy,
parent key, label) is one stream, distinct labels are distinct streams,
and a stream never depends on which other streams exist or on the order
they were asked for (adding a device or a workload perturbs nobody else's
draws — the property that keeps golden results stable).
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Union

import numpy as np


def labeled_seed(
    entropy: Union[int, Sequence[int]],
    label: str,
    parent_key: Sequence[int] = (),
) -> np.random.SeedSequence:
    """Seed material for the stream named ``label`` under ``entropy``.

    The spawn key is ``parent_key`` extended by the first eight bytes of
    ``sha256(label)`` — keyed by name, never by spawn order.  ``parent_key``
    nests streams: a device's noise sub-streams extend the device stream's
    own key, so they are a pure function of (machine seed, device label,
    noise label).
    """
    key = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return np.random.SeedSequence(entropy=entropy, spawn_key=(*parent_key, key))
