"""Tests for the command-line tools."""

import pytest

from repro.tools import compare, profile, tune


def assert_unknown_device_is_one_line(tool, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main(["zipdrive"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    prog = tool.build_parser().prog
    assert captured.err.startswith(f"{prog}: unknown device 'zipdrive'; available: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


class TestProfileTool:
    def test_profiles_catalogued_device(self, capsys):
        code = profile.main(
            ["ssd_old", "--read-duration", "0.05", "--write-duration", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "io.cost.model configuration" in out
        assert "rbps=" in out
        assert "rrandiops=" in out

    def test_scale_flag(self, capsys):
        code = profile.main(
            ["hdd", "--scale", "10", "--read-duration", "0.05", "--write-duration", "0.1"]
        )
        assert code == 0
        assert "hdd-x10" in capsys.readouterr().out

    def test_unknown_device_raises(self, capsys):
        assert_unknown_device_is_one_line(profile, capsys)


class TestTuneTool:
    def test_sweeps_and_prints_bounds(self, capsys):
        code = tune.main(
            [
                "ssd_old", "--scale", "0.5",
                "--candidates", "0.5", "1.0",
                "--duration", "2.0", "--mem-mb", "48",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "io.cost.qos bounds" in out
        assert "vrate_min=" in out

    def test_unknown_device_raises(self, capsys):
        assert_unknown_device_is_one_line(tune, capsys)


class TestCompareTool:
    def test_compares_all_mechanisms(self, capsys):
        code = compare.main(["ssd_old", "--scale", "0.2", "--duration", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("none", "mq-deadline", "kyber", "blk-throttle", "bfq",
                      "iolatency", "iocost"):
            assert name in out
        assert "ratio" in out

    def test_unknown_device_raises(self, capsys):
        assert_unknown_device_is_one_line(compare, capsys)
