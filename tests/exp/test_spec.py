"""Spec parsing, validation, canonicalisation, and content hashing."""

import json
import math

import pytest

from repro.exp.spec import (
    ExperimentSpec,
    SpecError,
    canonical_json,
    content_hash,
    load_spec,
    seed_entropy,
)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1, 2], "a": None}) == '{"a":null,"b":[1,2]}'

    def test_nan_rejected(self):
        with pytest.raises(SpecError):
            canonical_json({"x": math.nan})

    def test_unserialisable_rejected(self):
        with pytest.raises(SpecError):
            canonical_json({"x": object()})

    def test_content_hash_is_short_hex(self):
        digest = content_hash({"a": 1})
        assert len(digest) == 16
        int(digest, 16)  # parses as hex

    def test_seed_entropy_deterministic(self):
        assert seed_entropy({"a": 1}) == seed_entropy({"a": 1})
        assert seed_entropy({"a": 1}) != seed_entropy({"a": 2})


class TestExperimentSpec:
    def test_minimal(self):
        spec = ExperimentSpec(name="s")
        assert spec.kind == "testbed"
        assert spec.seed == 0

    def test_from_dict_roundtrip(self):
        doc = {
            "name": "sweep",
            "kind": "profile_device",
            "base": {"read_duration": 0.1},
            "grid": {"device": ["a", "b"]},
            "zip": {"x": [1, 2], "y": [3, 4]},
            "seed": 7,
        }
        spec = ExperimentSpec.from_dict(doc)
        assert spec.to_dict() == doc

    def test_missing_name(self):
        with pytest.raises(SpecError, match="name"):
            ExperimentSpec.from_dict({"kind": "testbed"})

    def test_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            ExperimentSpec.from_dict({"name": "s", "axes": {}})

    def test_empty_axis_values(self):
        with pytest.raises(SpecError, match="non-empty list"):
            ExperimentSpec(name="s", grid={"device": []})

    def test_zip_length_mismatch(self):
        with pytest.raises(SpecError, match="same length"):
            ExperimentSpec(name="s", zip_axes={"x": [1, 2], "y": [1]})

    def test_axis_in_both_families(self):
        with pytest.raises(SpecError, match="both grid and zip"):
            ExperimentSpec(name="s", grid={"x": [1]}, zip_axes={"x": [2]})

    def test_name_excluded_from_hash(self):
        a = ExperimentSpec(name="alpha", grid={"x": (1, 2)})
        b = ExperimentSpec(name="beta", grid={"x": (1, 2)})
        assert a.sweep_hash == b.sweep_hash

    def test_hash_sensitive_to_content(self):
        a = ExperimentSpec(name="s", grid={"x": (1, 2)})
        b = ExperimentSpec(name="s", grid={"x": (1, 3)})
        c = ExperimentSpec(name="s", grid={"x": (1, 2)}, seed=1)
        assert a.sweep_hash != b.sweep_hash
        assert a.sweep_hash != c.sweep_hash


class TestLoadSpec:
    def test_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"name": "s", "grid": {"x": [1, 2]}}))
        spec = load_spec(path)
        assert spec.grid["x"] == (1, 2)

    def test_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "sweep.toml"
        path.write_text(
            'name = "s"\nseed = 3\n[base]\nduration = 0.5\n'
            '[grid]\ndevice = ["a", "b"]\n'
        )
        spec = load_spec(path)
        assert spec.seed == 3
        assert spec.base["duration"] == 0.5
        assert spec.grid["device"] == ("a", "b")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="no such spec file"):
            load_spec(tmp_path / "nope.toml")

    def test_bad_extension(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text("name: s")
        with pytest.raises(SpecError, match="unsupported spec extension"):
            load_spec(path)

    def test_repo_smoke_spec_parses(self):
        pytest.importorskip("tomllib")
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        spec = load_spec(repo_root / "examples" / "specs" / "smoke_sweep.toml")
        assert spec.kind == "testbed"
        assert len(spec.grid) == 2
