"""Tests for the command-line tools."""

import pytest

from repro.tools import tune


def assert_unknown_device_is_one_line(tool, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main(["zipdrive"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    prog = tool.build_parser().prog
    assert captured.err.startswith(f"{prog}: unknown device 'zipdrive'; available: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


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
