"""Integration tests for the live monitor over a fig13-style vrate run."""

import io
import json

import pytest

from repro.block.device_models import SSD_NEW
from repro.obs.snapshot import MonitorSnapshot, load_snapshots, render_snapshot
from repro.testbed import Testbed
from repro.tools import monitor as monitor_cli
from repro.tools.monitor import Monitor

DURATION = 1.5


def run_monitored(stream=None, with_monitor=True, seed=9):
    bed = Testbed(SSD_NEW.scaled(0.1), "iocost", seed=seed)
    high = bed.add_cgroup("workload.slice/high", weight=200)
    low = bed.add_cgroup("workload.slice/low", weight=100)
    bed.saturate(high, depth=32, stop_at=DURATION)
    bed.saturate(low, depth=32, stop_at=DURATION)
    mon = Monitor(bed, stream=stream).start() if with_monitor else None
    bed.sim.run(until=DURATION + 0.1)
    if mon is not None:
        mon.stop()
    bed.controller.detach()
    return bed, mon


class TestCapture:
    def test_per_period_snapshots(self):
        bed, mon = run_monitored()
        # One snapshot per planning period over the run.
        expected = (DURATION + 0.1) / bed.controller.qos.period
        assert len(mon.snapshots) == pytest.approx(expected, abs=2)
        snap = mon.snapshots[-1]
        assert snap.controller == "iocost"
        assert snap.device == "vda"  # the machine's name, not the model's
        assert snap.period == bed.controller.qos.period
        assert snap.vrate > 0
        assert -16 <= snap.busy_level <= 16

    def test_group_rows_have_required_keys(self):
        _, mon = run_monitored()
        # Mid-run: the workloads are still active (they stop at DURATION and
        # idle groups are deactivated after a full quiet period).
        mid = mon.snapshots[len(mon.snapshots) // 2].groups["workload.slice/high"]
        for key in ("hweight", "weight", "usage_pct", "usage_delta", "debt_ms",
                    "wait_ms", "delay_ms", "queued", "active",
                    "rbytes", "rios", "cost.usage", "cost.vrate"):
            assert key in mid, key
        assert mid["active"] == 1.0
        assert mid["weight"] == 200
        assert 0 < mid["hweight"] <= 1.0
        # The saturating group actually used device time this period.
        assert mid["usage_pct"] > 0

    def test_jsonl_stream_and_reload(self):
        stream = io.StringIO()
        _, mon = run_monitored(stream=stream)
        stream.seek(0)
        loaded = load_snapshots(stream)
        assert len(loaded) == len(mon.snapshots)
        assert loaded[-1] == mon.snapshots[-1]
        # Every line is standalone JSON with the headline fields.
        stream.seek(0)
        first = json.loads(stream.readline())
        assert {"time", "vrate", "busy_level", "groups"} <= set(first)

    def test_monitor_does_not_change_results(self):
        """Attaching the monitor must leave the simulation byte-identical."""

        def fingerprint(with_monitor):
            bed, _ = run_monitored(with_monitor=with_monitor)
            return json.dumps(
                {
                    "completed": {
                        cg.path: [[dev, r.done_ios, r.done_bytes] for dev, r in cg.stats.devices()]
                        for cg in bed.cgroups
                    },
                    "vrate": bed.controller.vrate,
                },
                sort_keys=True,
            ).encode()

        assert fingerprint(False) == fingerprint(True)


class TestRendering:
    def test_render_snapshot_format(self):
        _, mon = run_monitored()
        text = render_snapshot(mon.snapshots[-1])
        assert "vrate=" in text and "busy=" in text
        assert "workload.slice/high" in text
        assert "hweight%" in text
        assert mon.render(last=2).count("vrate=") == 2
        assert mon.render(last=0) == ""
        assert mon.render(last=len(mon.snapshots) + 5) == mon.render()
        with pytest.raises(ValueError):
            mon.render(last=-1)

    def test_cli_rerenders_saved_stream(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        with open(path, "w") as stream:
            run_monitored(stream=stream)
        assert monitor_cli.main([str(path), "--last", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("vrate=") == 3
        assert "workload.slice/low" in out

    def test_cli_last_zero_selects_nothing(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        with open(path, "w") as stream:
            run_monitored(stream=stream)
        assert monitor_cli.main([str(path), "--last", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "no snapshots" in captured.err
        # A negative count is a one-line usage error.
        assert monitor_cli.main([str(path), "--last", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--last" in captured.err

    def test_cli_empty_stream_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert monitor_cli.main([str(path)]) == 1

    def test_cli_json_mode_emits_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        with open(path, "w") as stream:
            run_monitored(stream=stream)
        assert monitor_cli.main([str(path), "--last", "2", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        assert all("vrate" in p and "groups" in p for p in payloads)
        # --json output is itself a loadable monitor stream (lossless).
        reparsed = tmp_path / "reparsed.jsonl"
        reparsed.write_text("\n".join(lines) + "\n")
        assert monitor_cli.main([str(reparsed)]) == 0


class TestSnapshotFormat:
    def test_roundtrip(self):
        snap = MonitorSnapshot(
            time=1.0, device="d", controller="iocost", period=0.05,
            vrate=1.2, busy_level=-3,
            groups={"a": {"hweight": 0.5, "usage_pct": 40.0}},
        )
        assert MonitorSnapshot.from_json(snap.to_json()) == snap


class TestDeviceNames:
    """Snapshots name a device the way the machine does (``vda``), and every
    selector accepts that name or the ``maj:min`` id — never the model."""

    def test_two_devices_of_one_model(self, tmp_path, capsys):
        bed = Testbed(
            devices={"vda": SSD_NEW.scaled(0.1), "vdb": SSD_NEW.scaled(0.1)}, seed=2
        )
        app = bed.add_cgroup("workload.slice/app")
        bed.saturate(app, device="vdb", depth=8, stop_at=0.2)
        path = tmp_path / "run.jsonl"
        with open(path, "w") as stream:
            mon = Monitor(bed, stream=stream).start()
            bed.sim.run(until=0.25)
            mon.stop()
        bed.detach()

        assert {snap.device for snap in mon.snapshots} == {"vda", "vdb"}
        vdb = mon.snapshots_for("vdb")
        assert vdb and {snap.dev for snap in vdb} == {"8:16"}
        assert mon.snapshots_for("8:16") == vdb
        assert mon.snapshots_for(SSD_NEW.scaled(0.1).name) == []

        assert monitor_cli.main([str(path), "--device", "vdb", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["dev"] for line in lines] == ["8:16"] * len(vdb)
        assert monitor_cli.main([str(path), "--device", SSD_NEW.scaled(0.1).name]) == 1
        assert "no snapshots" in capsys.readouterr().err
