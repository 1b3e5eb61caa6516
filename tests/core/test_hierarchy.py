"""Tests for hweight compounding, caching, and activity tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgroup import CgroupTree
from repro.core.hierarchy import WeightTree


def build(weights):
    """Build a cgroup tree + weight tree from {path: weight}."""
    cgroups = CgroupTree()
    tree = WeightTree()
    states = {}
    for path, weight in weights.items():
        group = cgroups.get_or_create(path, weight=weight)
        group.weight = weight
        states[path] = tree.state_of(group)
    return cgroups, tree, states


class TestHweight:
    def test_single_active_group_gets_everything(self):
        _, tree, states = build({"a": 100})
        tree.activate(states["a"])
        assert tree.hweight(states["a"]) == pytest.approx(1.0)

    def test_siblings_split_by_weight(self):
        _, tree, states = build({"a": 200, "b": 100})
        tree.activate(states["a"])
        tree.activate(states["b"])
        assert tree.hweight(states["a"]) == pytest.approx(2 / 3)
        assert tree.hweight(states["b"]) == pytest.approx(1 / 3)

    def test_hweight_compounds_down_hierarchy(self):
        _, tree, states = build(
            {"top": 100, "other": 100, "top/x": 300, "top/y": 100}
        )
        for path in ("other", "top/x", "top/y"):
            tree.activate(states[path])
        # top and other split 50/50; inside top, x:y = 3:1.
        assert tree.hweight(states["top/x"]) == pytest.approx(0.5 * 0.75)
        assert tree.hweight(states["top/y"]) == pytest.approx(0.5 * 0.25)

    def test_inactive_sibling_excluded(self):
        _, tree, states = build({"a": 100, "b": 100})
        tree.activate(states["a"])
        # b never activated: a has the whole device.
        assert tree.hweight(states["a"]) == pytest.approx(1.0)
        tree.activate(states["b"])
        assert tree.hweight(states["a"]) == pytest.approx(0.5)

    def test_deactivation_redistributes(self):
        _, tree, states = build({"a": 100, "b": 100})
        tree.activate(states["a"])
        tree.activate(states["b"])
        tree.deactivate(states["b"])
        assert tree.hweight(states["a"]) == pytest.approx(1.0)

    def test_inactive_group_sees_prospective_share(self):
        _, tree, states = build({"a": 100, "b": 300})
        tree.activate(states["a"])
        # b is inactive, but its hweight answers "what would I get if I
        # issued an IO right now" — counted alongside the active set.
        assert tree.hweight(states["b"]) == pytest.approx(0.75)

    def test_root_hweight_is_one(self):
        _, tree, states = build({"a": 100})
        tree.activate(states["a"])
        assert tree.hweight(states["a"].parent) == pytest.approx(1.0)

    @given(
        weights=st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=6)
    )
    @settings(max_examples=50)
    def test_active_sibling_hweights_sum_to_one(self, weights):
        spec = {f"g{i}": w for i, w in enumerate(weights)}
        _, tree, states = build(spec)
        for state in states.values():
            tree.activate(state)
        total = sum(tree.hweight(state) for state in states.values())
        assert total == pytest.approx(1.0)

    @given(
        top=st.integers(min_value=1, max_value=1000),
        child_weights=st.lists(
            st.integers(min_value=1, max_value=1000), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=50)
    def test_children_partition_parent_hweight(self, top, child_weights):
        spec = {"p": top, "q": 100}
        spec.update({f"p/c{i}": w for i, w in enumerate(child_weights)})
        _, tree, states = build(spec)
        tree.activate(states["q"])
        for i in range(len(child_weights)):
            tree.activate(states[f"p/c{i}"])
        parent_h = tree.hweight(states["p"])
        children_h = sum(
            tree.hweight(states[f"p/c{i}"]) for i in range(len(child_weights))
        )
        assert children_h == pytest.approx(parent_h)


class TestCaching:
    def test_cache_hit_until_generation_bumps(self):
        _, tree, states = build({"a": 100, "b": 100})
        tree.activate(states["a"])
        tree.activate(states["b"])
        first = tree.hweight(states["a"])
        # Mutate effective weight *without* bumping: cached value returned.
        states["b"].weight_eff = 9999.0
        assert tree.hweight(states["a"]) == first
        tree.bump()
        assert tree.hweight(states["a"]) != first

    def test_activation_invalidates_cache(self):
        _, tree, states = build({"a": 100, "b": 100})
        tree.activate(states["a"])
        assert tree.hweight(states["a"]) == pytest.approx(1.0)
        tree.activate(states["b"])
        assert tree.hweight(states["a"]) == pytest.approx(0.5)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["activate", "deactivate", "weight", "rescind"]),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=1000),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_hweight_inv_is_the_reciprocal_after_any_sequence(self, ops):
        _, tree, states = build(
            {"p": 100, "p/a": 100, "p/b": 200, "q": 50, "q/c": 100, "q/c/d": 1}
        )
        states = list(states.values())
        for op, index, weight, inv_first in ops:
            state = states[index]
            if op == "activate":
                tree.activate(state)
            elif op == "deactivate":
                tree.deactivate(state)
            elif op == "rescind":
                tree.rescind(state)
            else:  # a donation-style weight write (0 starves the subtree)
                state.weight_eff = float(weight)
                tree.bump()
            for state in states:
                # Either method may be the one that refills the cache.
                inverse = tree.hweight_inv(state) if inv_first else None
                hweight = tree.hweight(state)
                expected = 1.0 / hweight if hweight > 0 else float("inf")
                assert tree.hweight_inv(state) == expected
                assert inverse in (None, expected)


class TestActivity:
    def test_active_refs_propagate(self):
        _, tree, states = build({"p/c1": 100, "p/c2": 100})
        tree.activate(states["p/c1"])
        tree.activate(states["p/c2"])
        assert states["p/c1"].parent.active_refs == 2
        tree.deactivate(states["p/c1"])
        assert states["p/c1"].parent.active_refs == 1

    def test_double_activate_is_noop(self):
        _, tree, states = build({"a": 100})
        tree.activate(states["a"])
        tree.activate(states["a"])
        assert states["a"].active_refs == 1

    def test_deactivate_inactive_is_noop(self):
        _, tree, states = build({"a": 100})
        tree.deactivate(states["a"])
        assert states["a"].active_refs == 0

    def test_active_leaves_excludes_internal_nodes(self):
        _, tree, states = build({"p/c": 100})
        tree.activate(states["p/c"])
        # Activate the parent too (internal nodes can have their own IO).
        tree.activate(states["p/c"].parent)
        leaves = tree.active_leaves()
        assert states["p/c"] in leaves
        assert states["p/c"].parent not in leaves


class TestWeightRefresh:
    def test_refresh_restores_base_weights(self):
        _, tree, states = build({"a": 100, "b": 100})
        states["a"].weight_eff = 10.0
        states["a"].donating = True
        tree.refresh_base_weights()
        assert states["a"].weight_eff == 100.0
        assert not states["a"].donating

    def test_rescind_restores_path_to_root(self):
        _, tree, states = build({"p/c": 100})
        child = states["p/c"]
        parent = child.parent
        child.weight_eff = parent.weight_eff = 1.0
        child.donating = parent.donating = True
        tree.rescind(child)
        assert child.weight_eff == 100.0
        assert parent.weight_eff == float(parent.cgroup.weight)
        assert not child.donating
