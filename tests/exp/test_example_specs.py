"""The sweeps that stand in for single-purpose CLIs: the every-mechanism
comparison spec under examples/specs/, and scaled device profiling as one
``profile_device`` cell."""

import dataclasses
from pathlib import Path

from repro.exp import ArtifactStore, ExperimentSpec, load_spec, run_sweep
from repro.testbed import CONTROLLERS

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


def test_compare_mechanisms_runs_every_mechanism(tmp_path):
    spec = load_spec(SPECS / "compare_mechanisms.toml")
    assert list(spec.grid["mechanism"]) == list(CONTROLLERS)
    spec = dataclasses.replace(
        spec, base={**spec.base, "device_scale": 0.2, "duration": 0.5}
    )
    report = run_sweep(spec, ArtifactStore(tmp_path))
    assert [outcome.status for outcome in report.outcomes] == ["ok"] * 7
    assert [outcome.run.axes["mechanism"] for outcome in report.outcomes] == list(
        CONTROLLERS
    )
    for outcome in report.outcomes:
        assert outcome.result["ratio"] is not None


def test_profile_device_cell_profiles_the_scaled_device(tmp_path):
    spec = ExperimentSpec(
        name="profile-hdd",
        kind="profile_device",
        base={
            "device": "hdd", "device_scale": 10,
            "read_duration": 0.05, "write_duration": 0.1,
        },
    )
    (outcome,) = run_sweep(spec, ArtifactStore(tmp_path)).outcomes
    assert outcome.ok
    assert outcome.result["device"] == "hdd-x10"
    assert outcome.result["rrandiops"] > 0
