"""Unit and property tests for the cgroup tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgroup import (
    Cgroup,
    CgroupError,
    CgroupTree,
    MAX_WEIGHT,
    MIN_WEIGHT,
    UNATTRIBUTED_DEV,
    make_meta_hierarchy,
)


class TestTopology:
    def test_root_exists(self):
        tree = CgroupTree()
        assert tree.root.is_root
        assert tree.root.path == ""
        assert len(tree) == 1

    def test_create_nested_path_creates_intermediates(self):
        tree = CgroupTree()
        leaf = tree.create("a/b/c")
        assert leaf.path == "a/b/c"
        assert "a" in tree and "a/b" in tree
        assert tree.lookup("a/b") is leaf.parent

    def test_create_duplicate_rejected(self):
        tree = CgroupTree()
        tree.create("a")
        with pytest.raises(CgroupError):
            tree.create("a")

    def test_create_root_rejected(self):
        tree = CgroupTree()
        with pytest.raises(CgroupError):
            tree.create("")

    def test_lookup_missing_raises(self):
        tree = CgroupTree()
        with pytest.raises(CgroupError):
            tree.lookup("ghost")

    def test_get_or_create_idempotent(self):
        tree = CgroupTree()
        a = tree.get_or_create("x", weight=42)
        b = tree.get_or_create("x", weight=99)
        assert a is b
        assert a.weight == 42

    def test_remove_leaf(self):
        tree = CgroupTree()
        tree.create("a/b")
        tree.remove("a/b")
        assert "a/b" not in tree
        assert "a" in tree

    def test_remove_nonleaf_rejected(self):
        tree = CgroupTree()
        tree.create("a/b")
        with pytest.raises(CgroupError):
            tree.remove("a")

    def test_remove_root_rejected(self):
        tree = CgroupTree()
        with pytest.raises(CgroupError):
            tree.remove("")

    def test_walk_is_preorder(self):
        tree = CgroupTree()
        tree.create("a/x")
        tree.create("a/y")
        tree.create("b")
        paths = [g.path for g in tree]
        assert paths == ["", "a", "a/x", "a/y", "b"]

    def test_name_with_slash_rejected(self):
        with pytest.raises(CgroupError):
            Cgroup("a/b", None)


class TestWeights:
    def test_default_weight(self):
        tree = CgroupTree()
        assert tree.create("a").weight == 100

    @pytest.mark.parametrize("weight", [MIN_WEIGHT, 100, MAX_WEIGHT])
    def test_valid_weights_accepted(self, weight):
        tree = CgroupTree()
        assert tree.create("a", weight=weight).weight == weight

    @pytest.mark.parametrize("weight", [0, -5, MAX_WEIGHT + 1])
    def test_invalid_weights_rejected(self, weight):
        tree = CgroupTree()
        with pytest.raises(CgroupError):
            tree.create("a", weight=weight)

    def test_weight_update_validated(self):
        tree = CgroupTree()
        group = tree.create("a")
        group.weight = 250
        assert group.weight == 250
        with pytest.raises(CgroupError):
            group.weight = 0

    @given(weight=st.integers(min_value=MIN_WEIGHT, max_value=MAX_WEIGHT))
    @settings(max_examples=30)
    def test_weight_roundtrip(self, weight):
        tree = CgroupTree()
        group = tree.create("a", weight=weight)
        assert group.weight == weight


class TestIOStats:
    def test_account_reads_and_writes(self):
        tree = CgroupTree()
        group = tree.create("a")
        group.stats.account(is_write=False, nbytes=4096)
        group.stats.account(is_write=True, nbytes=8192)
        record = group.stats.device(UNATTRIBUTED_DEV)
        assert record.rbytes == 4096
        assert record.wbytes == 8192
        assert record.rios == 1
        assert record.wios == 1
        assert record.total_bytes == 12288
        assert record.total_ios == 2


class TestMetaHierarchy:
    def test_standard_slices_present(self):
        tree = make_meta_hierarchy()
        assert "system.slice" in tree
        assert "hostcritical.slice" in tree
        assert "workload.slice" in tree

    def test_workload_children(self):
        tree = make_meta_hierarchy(workloads={"web": 200, "cache": 100})
        assert tree.lookup("workload.slice/web").weight == 200
        assert tree.lookup("workload.slice/cache").weight == 100

    def test_reuses_existing_tree(self):
        tree = CgroupTree()
        result = make_meta_hierarchy(tree)
        assert result is tree
