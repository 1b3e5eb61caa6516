"""Result-cache semantics: the (content hash, seed, version) key."""

import json
import os
import signal
import sys
from multiprocessing import get_context
from pathlib import Path

import pytest

import repro
from repro.exp.cache import (
    HIT,
    MISS_ABSENT,
    MISS_FAILED,
    MISS_FORCED,
    MISS_STALE,
    MISS_VERSION,
    ResultCache,
    _top_level_fingerprint,
    source_fingerprint,
)
from repro.exp.grid import RunSpec, expand
from repro.exp.runner import run_sweep
from repro.exp.spec import ExperimentSpec
from repro.exp.store import ArtifactStore


def make_run(value=1, seed=0):
    return RunSpec(
        name="s", kind="tests.exp.helpers.quick",
        params={"value": value}, axes={"value": value}, seed=seed,
    )


class TestResultCacheUnit:
    def test_absent_then_hit(self, tmp_path):
        cache = ResultCache(ArtifactStore(tmp_path))
        run = make_run()
        assert cache.decide([run])[0].reason == MISS_ABSENT
        cache.commit(run, status="ok", attempts=1, wall_sec=0.5, result={"v": 1})
        decision = cache.decide([run])[0]
        assert decision.hit and decision.reason == HIT
        assert decision.result == {"v": 1}
        assert decision.meta["wall_sec"] == 0.5

    def test_forced_miss(self, tmp_path):
        cache = ResultCache(ArtifactStore(tmp_path))
        run = make_run()
        cache.commit(run, status="ok", attempts=1, wall_sec=0.0, result={})
        assert cache.decide([run], force=True)[0].reason == MISS_FORCED

    def test_failed_runs_never_hit(self, tmp_path):
        cache = ResultCache(ArtifactStore(tmp_path))
        run = make_run()
        cache.commit(
            run, status="failed", attempts=2, wall_sec=0.1,
            error={"type": "RuntimeError", "message": "boom"},
        )
        assert cache.decide([run])[0].reason == MISS_FAILED
        # Even with a (tampered-in) result present, failed status blocks the hit.
        record = cache.store.read_json(run.run_hash)
        cache.store.write_json(run.run_hash, {**record, "result": {"v": 1}})
        assert not cache.decide([run])[0].hit

    def test_ok_meta_without_result_is_absent(self, tmp_path):
        # No commit writes an ok record without its result; one edited to
        # that state must read as a re-runnable miss, not a crash or a hit.
        store = ArtifactStore(tmp_path)
        cache = ResultCache(store)
        run = make_run()
        cache.commit(run, status="ok", attempts=1, wall_sec=0.0, result={"v": 1})
        record = store.read_json(run.run_hash)
        del record["result"]
        store.write_json(run.run_hash, record)
        assert cache.decide([run])[0].reason == MISS_ABSENT

    def test_version_mismatch(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run = make_run()
        ResultCache(store, version="1.0").commit(
            run, status="ok", attempts=1, wall_sec=0.0, result={"v": 1}
        )
        assert ResultCache(store, version="1.0").decide([run])[0].hit
        assert ResultCache(store, version="2.0").decide([run])[0].reason == MISS_VERSION

    def test_code_edit_is_a_version_change(self, tmp_path):
        # Two package trees one byte apart fingerprint apart, and the
        # default version carries the running package's fingerprint.
        trees = []
        for body in (b"RATE = 1\n", b"RATE = 2\n"):
            root = tmp_path / f"tree{len(trees)}"
            (root / "sub").mkdir(parents=True)
            (root / "__init__.py").write_bytes(b"")
            (root / "sub" / "model.py").write_bytes(body)
            trees.append(source_fingerprint(root))
        assert trees[0] != trees[1]
        package = source_fingerprint(Path(repro.__file__).parent)
        assert ResultCache(ArtifactStore(tmp_path)).version == f"{repro.__version__}+{package}"

    def test_only_kinds_outside_repro_carry_their_own_code(self, tmp_path):
        cache = ResultCache(ArtifactStore(tmp_path))
        for kind in ("testbed", "repro.fleet.experiments.run_fleet_host"):
            assert cache.version_for(kind) == cache.version
        tests_package = source_fingerprint(Path(__file__).resolve().parents[1])
        assert cache.version_for("tests.exp.helpers.quick") == f"{cache.version}+{tests_package}"

    def test_stale_metadata(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = ResultCache(store)
        run = make_run()
        cache.commit(run, status="ok", attempts=1, wall_sec=0.0, result={"v": 1})
        record = store.read_json(run.run_hash)
        record["meta"]["seed"] = 999
        store.write_json(run.run_hash, record)
        assert cache.decide([run])[0].reason == MISS_STALE

    def test_commit_writes_one_record(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run = make_run()
        meta = ResultCache(store).commit(
            run, status="ok", attempts=1, wall_sec=0.5, result={"v": 1}
        )
        assert [p.name for p in store.runs_root.iterdir()] == [f"{run.run_hash}.json"]
        record = store.read_json(run.run_hash)
        assert sorted(record) == ["meta", "result", "spec"]
        assert record["meta"] == meta
        assert record["result"] == {"v": 1}
        assert record["spec"]["run_hash"] == run.run_hash
        assert record["spec"]["derived_seed"] == run.derived_seed


def _truncate(store, runs):
    path = store.path(runs[0].run_hash)
    path.write_bytes(path.read_bytes()[:-10])


def _other_version(store, runs):
    ResultCache(store, version="0.0.0").commit(
        runs[0], status="ok", attempts=1, wall_sec=0.0, result={"v": "old"}
    )


def _copied_under_another_hash(store, runs):
    store.path(runs[0].run_hash).write_bytes(store.path(runs[1].run_hash).read_bytes())


def _leftover_temp_file(store, runs):
    path = store.path(runs[0].run_hash)
    path.with_name(f".{path.name}.0123456789ab.tmp").write_bytes(
        store.path(runs[1].run_hash).read_bytes()
    )
    path.unlink()


def _parent_layout_directory(store, runs):
    run_dir = store.runs_root / runs[0].run_hash
    run_dir.mkdir()
    record = store.read_json(runs[0].run_hash)
    for name, document in record.items():
        (run_dir / f"{name}.json").write_text(json.dumps(document))
    store.path(runs[0].run_hash).unlink()


def _sweep_killed_before_replace(spec, store):
    """A sweep SIGKILLed inside its first record's ``write_json``, after
    the temp file is written and before ``os.replace``."""
    os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)
    run_sweep(spec, store, workers=1)


class TestHostileStore:
    """Whatever is left in the store, the damaged cell is a miss that
    re-runs, never a hit and never a traceback; the next sweep hits."""

    SPEC = ExperimentSpec(
        name="hostile", kind="tests.exp.helpers.quick", grid={"value": (1, 2)}
    )

    @pytest.mark.parametrize("damage, reason", [
        (_truncate, MISS_ABSENT),
        (_other_version, MISS_VERSION),
        (_copied_under_another_hash, MISS_STALE),
        (_leftover_temp_file, MISS_ABSENT),
        (_parent_layout_directory, MISS_ABSENT),
    ], ids=["truncated", "other-version", "stale", "temp-file", "parent-layout"])
    def test_damaged_record_is_a_miss_that_reruns(self, tmp_path, damage, reason):
        store = ArtifactStore(tmp_path)
        first = run_sweep(self.SPEC, store, workers=1)
        runs = [outcome.run for outcome in first.outcomes]
        damage(store, runs)
        assert ResultCache(store).decide(runs[:1])[0].reason == reason
        again = run_sweep(self.SPEC, store, workers=1)
        assert [o.cached for o in again.outcomes] == [False, True]
        assert again.outcomes[0].cache_reason == reason
        assert [o.result for o in again.outcomes] == [o.result for o in first.outcomes]
        assert store.list_runs() == sorted(run.run_hash for run in runs)
        assert run_sweep(self.SPEC, store, workers=1).hit_rate == 1.0

    def test_writer_killed_between_temp_file_and_replace(self, tmp_path):
        store = ArtifactStore(tmp_path)
        writer = get_context("fork").Process(
            target=_sweep_killed_before_replace, args=(self.SPEC, store)
        )
        writer.start()
        writer.join(timeout=60)
        assert writer.exitcode == -signal.SIGKILL
        assert len(list(store.runs_root.glob(".*.tmp"))) == 1  # left behind

        runs = expand(self.SPEC)
        assert ResultCache(store).decide(runs[:1])[0].reason == MISS_ABSENT
        assert store.list_runs() == [] and store.collect() == []
        again = run_sweep(self.SPEC, store, workers=1)
        assert [o.cached for o in again.outcomes] == [False, False]
        assert again.outcomes[0].cache_reason == MISS_ABSENT
        assert store.list_runs() == sorted(run.run_hash for run in runs)
        assert run_sweep(self.SPEC, store, workers=1).hit_rate == 1.0


class TestCacheThroughSweeps:
    SPEC = ExperimentSpec(
        name="cache-sweep",
        kind="tests.exp.helpers.quick",
        grid={"value": (1, 2, 3)},
    )

    def test_same_spec_and_seed_hits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_sweep(self.SPEC, store, workers=1)
        assert first.cache_hits == 0 and first.failures == 0
        second = run_sweep(self.SPEC, store, workers=1)
        assert second.cache_hits == 3
        assert second.hit_rate == 1.0
        assert [o.result for o in second.outcomes] == [o.result for o in first.outcomes]

    def test_changed_axis_value_is_single_cell_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_sweep(self.SPEC, store, workers=1)
        edited = self.SPEC.replace_axis("value", [1, 2, 99])
        report = run_sweep(edited, store, workers=1)
        assert report.cache_hits == 2
        assert report.executed == 1
        missed = [o for o in report.outcomes if not o.cached]
        assert missed[0].run.axes == {"value": 99}

    def test_changed_seed_is_full_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_sweep(self.SPEC, store, workers=1)
        reseeded = ExperimentSpec.from_dict({**self.SPEC.to_dict(), "seed": 9})
        report = run_sweep(reseeded, store, workers=1)
        assert report.cache_hits == 0

    def test_version_bump_is_full_miss(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        run_sweep(self.SPEC, store, workers=1)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        report = run_sweep(self.SPEC, store, workers=1)
        assert report.cache_hits == 0
        assert all(o.cache_reason == "version-changed" for o in report.outcomes)
        # And the re-run results are now cached under the new version.
        again = run_sweep(self.SPEC, store, workers=1)
        assert again.cache_hits == 3

    def test_force_reexecutes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_sweep(self.SPEC, store, workers=1)
        report = run_sweep(self.SPEC, store, workers=1, force=True)
        assert report.cache_hits == 0
        assert report.executed == 3


def test_a_record_committed_after_the_listing_runs_again(tmp_path, monkeypatch):
    # Another sweep commits every cell between this sweep's listing and its
    # lookups: all are misses, and running them again writes the same bytes.
    spec = ExperimentSpec(
        name="s", kind="tests.exp.helpers.quick", grid={"value": (1, 2, 3)}
    )
    store = ArtifactStore(tmp_path)
    listing = ArtifactStore.run_hashes
    other = {}

    def listed_then_another_sweep_commits(self):
        hashes = listing(self)
        if not other:
            other["records"] = None  # the other sweep lists without interleaving
            other["committed"] = run_sweep(spec, ArtifactStore(tmp_path))
            other["records"] = {
                h: (store.read_json(h)["spec"], store.result_bytes(h))
                for h in store.list_runs()
            }
        return hashes

    monkeypatch.setattr(ArtifactStore, "run_hashes", listed_then_another_sweep_commits)
    report = run_sweep(spec, store)
    assert other["committed"].executed == 3
    assert [o.cache_reason for o in report.outcomes] == [MISS_ABSENT] * 3
    assert {
        h: (store.read_json(h)["spec"], store.result_bytes(h)) for h in store.list_runs()
    } == other["records"]


def test_an_edited_kind_outside_repro_is_a_version_change(tmp_path, monkeypatch):
    # The kind's own module is part of the key: an edit re-runs its cells
    # instead of serving the old result as a hit.
    module = tmp_path / "userkind.py"
    module.write_text("def run(params, seed):\n    return {'value': 1}\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = ExperimentSpec(name="user", kind="userkind.run")
    store = ArtifactStore(tmp_path / "store")
    try:
        assert run_sweep(spec, store).outcomes[0].result == {"value": 1}
        module.write_text("def run(params, seed):\n    return {'value': 2}\n")
        _top_level_fingerprint.cache_clear()  # what a new process sees
        monkeypatch.delitem(sys.modules, "userkind")
        (outcome,) = run_sweep(spec, store).outcomes
    finally:
        _top_level_fingerprint.cache_clear()
    assert not outcome.cached and outcome.cache_reason == MISS_VERSION
    assert outcome.result == {"value": 2}
