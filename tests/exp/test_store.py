"""Artifact store: one record per run, atomic writes, collection."""

import json
import os

import pytest

from repro.exp.spec import canonical_json
from repro.exp.store import ArtifactStore, StoreError, write_json

OK_RECORD = {"spec": {"kind": "k"}, "meta": {"status": "ok"}, "result": {"b": 1, "a": 2}}
FAILED_RECORD = {"spec": {"kind": "k"}, "meta": {"status": "failed"}}


class TestArtifactStore:
    def test_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.write_json("abc123", OK_RECORD)
        assert path == tmp_path / "runs" / "abc123.json"
        assert store.path("abc123").is_file()
        assert store.read_json("abc123") == OK_RECORD

    def test_canonical_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write_json("h1", OK_RECORD)
        assert store.read_json("h1") == OK_RECORD
        assert store.path("h1").read_text() == json.dumps(
            OK_RECORD, sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert store.result_bytes("h1") == b'{"a":2,"b":1}'

    def test_no_tmp_residue(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write_json("h1", OK_RECORD)
        assert [p.name for p in (tmp_path / "runs").iterdir()] == ["h1.json"]

    def test_try_read_corrupt_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write_json("h1", OK_RECORD)
        text = store.path("h1").read_text()
        store.path("h1").write_text(text[: len(text) // 2])
        assert store.try_read_json("h1") is None

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"meta": {"status": "ok"}, "result": {}},
        {"spec": {}, "meta": "ok", "result": {}},
        {"spec": {}, "meta": {"status": "ok"}},
        {"spec": {}, "meta": {"status": "failed"}, "result": {}},
    ], ids=["not-an-object", "no-spec", "meta-not-an-object", "ok-without-result",
            "failed-with-result"])
    def test_what_is_not_a_record_reads_as_none(self, tmp_path, payload):
        store = ArtifactStore(tmp_path)
        store.path("h1").parent.mkdir(parents=True)
        store.path("h1").write_text(json.dumps(payload))
        assert store.try_read_json("h1") is None

    def test_read_json_missing_raises(self, tmp_path):
        with pytest.raises(StoreError, match="missing or unreadable record for h1"):
            ArtifactStore(tmp_path).read_json("h1")

    def test_result_bytes_missing_raises(self, tmp_path):
        with pytest.raises(StoreError, match="missing or unreadable"):
            ArtifactStore(tmp_path).result_bytes("h1")

    def test_result_bytes_of_a_failed_run_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write_json("h1", FAILED_RECORD)
        with pytest.raises(StoreError, match="no result for h1"):
            store.result_bytes("h1")

    def test_invalid_hash_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(StoreError, match="invalid run hash"):
                store.path(bad)
            with pytest.raises(StoreError, match="invalid run hash"):
                store.trace_path(bad)

    def test_write_lines(self, tmp_path):
        """A trace is written line by line beside its run's record."""
        store = ArtifactStore(tmp_path)
        path = store.write_trace("h1", ['{"a":1}', '{"b":2}'])
        assert path == tmp_path / "runs" / "h1.trace.jsonl"
        assert path.read_text() == '{"a":1}\n{"b":2}\n'
        assert not store.path("h1").exists()

    def test_list_runs_sorted(self, tmp_path):
        """Records only: no trace, temp file or directory is a run."""
        store = ArtifactStore(tmp_path)
        assert store.list_runs() == []
        for run_hash in ("bbb", "aaa"):
            store.write_json(run_hash, OK_RECORD)
        store.write_trace("aaa", ["{}"])
        (tmp_path / "runs" / ".ccc.json.0123456789ab.tmp").write_text("{")
        (tmp_path / "runs" / "ddd").mkdir()  # a run directory of the old layout
        (tmp_path / "runs" / "ddd" / "result.json").write_text("{}")
        assert store.list_runs() == ["aaa", "bbb"]

    def test_collect(self, tmp_path):
        """Records only; a record that does not read has ``None`` documents."""
        store = ArtifactStore(tmp_path)
        store.write_json("h1", OK_RECORD)
        store.write_json("h2", FAILED_RECORD)
        store.write_trace("h1", ["{}"])
        (tmp_path / "runs" / ".h3.json.0123456789ab.tmp").write_text("{")
        (tmp_path / "runs" / "h4").mkdir()
        (tmp_path / "runs" / "h5.json").write_text('{"spec": {}, "me')
        collected = store.collect()
        assert [entry["run"] for entry in collected] == ["h1", "h2", "h5"]
        assert collected[0] == {"run": "h1", **OK_RECORD}
        assert collected[1] == {"run": "h2", **FAILED_RECORD, "result": None}
        assert collected[2] == {"run": "h5", "spec": None, "meta": None, "result": None}


class TestAtomicWrites:
    def test_two_writers_of_one_path(self, tmp_path, monkeypatch):
        """A second writer opens its temp file between the first writer's
        write and its replace.  With one temp name for both, the second
        writer overwrites the first one's temp file and renames it away,
        and the first writer's replace finds nothing to move."""
        path = tmp_path / "runs" / "h1.json"
        path.parent.mkdir()
        replace = os.replace
        interleaved = []

        def second_writer_interleaves(src, dst):
            if not interleaved:
                interleaved.append(True)
                write_json(path, {"writer": 2})
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_writer_interleaves)
        write_json(path, {"writer": 1})
        assert json.loads(path.read_text()) == {"writer": 1}
        assert [p.name for p in path.parent.iterdir()] == ["h1.json"]

    def test_a_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "h1.json"

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_json(path, {"a": 1})
        assert list(tmp_path.iterdir()) == []

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:1])))
        path = write_json(tmp_path / "h1.json", OK_RECORD)
        monkeypatch.undo()
        assert path.read_bytes() == (canonical_json(OK_RECORD) + "\n").encode()
        assert [p.name for p in tmp_path.iterdir()] == ["h1.json"]

    def test_an_interrupted_write_leaves_no_temp_file_and_no_record(
        self, tmp_path, monkeypatch
    ):
        write = os.write
        written = []

        def interrupted(fd, data):
            if len(written) == 3:
                raise KeyboardInterrupt
            written.append(fd)
            return write(fd, bytes(data[:1]))

        monkeypatch.setattr(os, "write", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ArtifactStore(tmp_path).write_json("h1", OK_RECORD)
        monkeypatch.undo()
        assert len(written) == 3
        assert list((tmp_path / "runs").iterdir()) == []
