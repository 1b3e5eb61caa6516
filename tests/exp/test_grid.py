"""Sweep expansion: ordering, overrides, hashing, per-run seeds."""

import pytest

from repro.exp.grid import RunSpec, expand, set_by_path
from repro.exp.spec import ExperimentSpec, SpecError, content_hash, seed_entropy


class TestSetByPath:
    def test_top_level(self):
        tree = {"a": 1}
        set_by_path(tree, "a", 2)
        assert tree == {"a": 2}

    def test_nested_creates_intermediates(self):
        tree = {}
        set_by_path(tree, "qos.read_lat_target", 0.005)
        assert tree == {"qos": {"read_lat_target": 0.005}}

    def test_list_index(self):
        tree = {"workloads": [{"depth": 8}, {"depth": 16}]}
        set_by_path(tree, "workloads.1.depth", 64)
        assert tree["workloads"][1]["depth"] == 64
        assert tree["workloads"][0]["depth"] == 8

    def test_bad_list_index(self):
        with pytest.raises(SpecError, match="out of range"):
            set_by_path({"w": [1]}, "w.3", 0)
        with pytest.raises(SpecError, match="not an index"):
            set_by_path({"w": [1]}, "w.x", 0)

    def test_scalar_traversal_rejected(self):
        with pytest.raises(SpecError, match="traverses"):
            set_by_path({"a": 5}, "a.b.c", 1)


class TestExpand:
    def test_no_axes_single_run(self):
        runs = expand(ExperimentSpec(name="s", base={"x": 1}))
        assert len(runs) == 1
        assert runs[0].params == {"x": 1}
        assert runs[0].axes == {}

    def test_grid_product_order(self):
        spec = ExperimentSpec(
            name="s", grid={"b": ("x", "y"), "a": (1, 2)}
        )
        runs = expand(spec)
        # Sorted axis names: 'a' outermost, values in given order.
        assert [run.axes for run in runs] == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_zip_lockstep(self):
        spec = ExperimentSpec(name="s", zip_axes={"x": (1, 2), "y": (3, 4)})
        runs = expand(spec)
        assert [run.axes for run in runs] == [{"x": 1, "y": 3}, {"x": 2, "y": 4}]

    def test_grid_times_zip(self):
        spec = ExperimentSpec(
            name="s", grid={"g": ("a", "b")}, zip_axes={"x": (1, 2), "y": (3, 4)}
        )
        runs = expand(spec)
        assert len(runs) == 4
        assert runs[0].axes == {"g": "a", "x": 1, "y": 3}
        assert runs[3].axes == {"g": "b", "x": 2, "y": 4}

    def test_overrides_applied_to_params(self):
        spec = ExperimentSpec(
            name="s",
            base={"qos": {"period": 0.05}, "device": "ssd_new"},
            grid={"qos.read_lat_target": (0.001, 0.002)},
        )
        runs = expand(spec)
        assert runs[0].params["qos"] == {"period": 0.05, "read_lat_target": 0.001}
        assert runs[1].params["qos"]["read_lat_target"] == 0.002
        # base untouched
        assert "read_lat_target" not in spec.base["qos"]

    def test_cells_do_not_share_structure(self):
        spec = ExperimentSpec(
            name="s", base={"nested": {"k": []}}, grid={"x": (1, 2)}
        )
        runs = expand(spec)
        runs[0].params["nested"]["k"].append("mutated")
        assert runs[1].params["nested"]["k"] == []

    def test_run_hash_changes_only_for_edited_cell(self):
        spec = ExperimentSpec(name="s", grid={"x": (1, 2, 3)})
        edited = ExperimentSpec(name="s", grid={"x": (1, 2, 99)})
        before = {run.axes["x"]: run.run_hash for run in expand(spec)}
        after = {run.axes["x"]: run.run_hash for run in expand(edited)}
        assert before[1] == after[1]
        assert before[2] == after[2]
        assert 3 in before and 99 in after

    def test_derived_seed_content_addressed(self):
        spec = ExperimentSpec(name="s", grid={"x": (1, 2)}, seed=5)
        runs = expand(spec)
        # Distinct per cell, stable across expansions, independent of name.
        assert runs[0].derived_seed != runs[1].derived_seed
        renamed = ExperimentSpec(
            name="other", grid={"x": (1, 2)}, seed=5
        )
        assert [r.derived_seed for r in expand(renamed)] == [
            r.derived_seed for r in runs
        ]
        reseeded = expand(ExperimentSpec(name="s", grid={"x": (1, 2)}, seed=6))
        assert runs[0].derived_seed != reseeded[0].derived_seed

    def test_describe(self):
        run = RunSpec(name="s", kind="k", params={}, axes={"b": 2, "a": 1})
        assert run.describe() == "a=1 b=2"
        bare = RunSpec(name="s", kind="k", params={})
        assert bare.describe() == bare.run_hash


#: Specs whose cells differ in every way a canonical rendering can.
IDENTITY_SPECS = [
    ExperimentSpec(name="bare"),
    ExperimentSpec(name="seeded", kind="testbed", base={"x": 1}, seed=2**40 + 7),
    ExperimentSpec(
        name="nested",
        base={"qos": {"read_lat_target": 0.005}, "workloads": [{"depth": 8}]},
        grid={"qos.read_lat_target": (0.001, 0.25), "workloads.0.depth": (1, 64)},
    ),
    ExperimentSpec(
        name="zipped", base={"tag": "héllo", "none": None, "flag": True},
        zip_axes={"a": ([1, 2], [3]), "b": ({"k": -1.5}, {"k": 1e300})},
    ),
]


class TestIdentity:
    @pytest.mark.parametrize("spec", IDENTITY_SPECS, ids=lambda spec: spec.name)
    def test_hash_and_seed_are_one_digest(self, spec):
        for run in expand(spec):
            canonical = run.canonical()
            assert run.run_hash == content_hash(canonical)
            assert run.derived_seed == seed_entropy(canonical) == int(run.run_hash, 16)
