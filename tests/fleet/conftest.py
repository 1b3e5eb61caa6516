"""Shared fixtures for the fleet tests: small, fast cluster documents."""

from typing import Any, Dict

import pytest

#: The Figures 18/19 fleet device as an inline spec table (fast: high
#: parallelism, flat 100us service times).  Matches benchmarks/test_fig18.
FLEETDEV: Dict[str, Any] = {
    "parallelism": 4,
    "read_bw": 500e6,
    "write_bw": 500e6,
    "srv_seq_read": 100e-6,
    "srv_rand_read": 100e-6,
    "srv_seq_write": 100e-6,
    "srv_rand_write": 100e-6,
    "sigma": 0.1,
    "nr_slots": 64,
}


def fleet_doc(**overrides: Any) -> Dict[str, Any]:
    """A small, valid fleet document; keyword args override top-level keys."""
    doc: Dict[str, Any] = {
        "name": "test-fleet",
        "seed": 5,
        "policy": "best_fit",
        "capacity": "rated",
        "duration": 0.05,
        "hosts": {
            "web": {"count": 4, "device": "ssd_new", "device_scale": 0.05},
        },
        "workloads": [
            {
                "name": "fe",
                "count": 6,
                "cgroup": "workload.slice/fe",
                "weight": 200,
                "type": "paced",
                "rate": 300,
            },
        ],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"
