"""compare.py's verdicts: ok / regressed / unresolved, and the refusal."""

import json

from bench import compare


def document(walls, fingerprint=None, setup=0.30, drift=0.0, events=2.0):
    """A result file with one run per entry of ``walls``."""
    runs = []
    for wall in walls:
        runs.append({"seed": 1, "results": {"solo_randread": {
            "end_to_end": {
                "wall_s": {"value": wall},
                "bios_per_sec": {"value": 1000.0 / wall},
                "setup_s": {"value": setup},
                "peak_rss_mb": {"value": 80.0},
                "fail_share": {"value": 0.0},
                "sim_drift": {"value": drift},
            },
            "per_layer": {"sim.events_per_bio": events, "sim.calls_per_bio": 9.0},
        }}})
    return {"schema": compare.SCHEMA, "fingerprint": fingerprint or {"nproc": 2}, "runs": runs}


def verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b)}


def test_same_numbers_are_ok_even_from_a_single_run():
    a = document([2.00, 2.01, 2.02])
    assert set(verdicts(a, a).values()) == {"ok"}
    assert set(verdicts(document([2.0]), document([2.0])).values()) == {"ok"}


def test_a_slowdown_past_the_bound_regresses_and_a_speedup_does_not():
    a = document([2.00, 2.01, 2.02])
    slow = verdicts(a, document([3.00, 3.01, 3.02]))
    assert slow["wall_s"] == slow["bios_per_sec"] == "regressed"
    fast = verdicts(a, document([1.50, 1.51, 1.52]))
    assert fast["wall_s"] == fast["bios_per_sec"] == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    a = document([2.0, 2.6, 3.2, 3.8])
    assert verdicts(a, document([2.1, 2.7, 3.3, 3.9]))["wall_s"] == "unresolved"
    assert verdicts(a, document([1.0, 1.3, 1.6, 1.9]))["wall_s"] == "ok"


def test_setup_has_an_absolute_slack_and_zero_metrics_may_not_rise():
    a = document([2.0, 2.0, 2.0], setup=0.10)
    b = document([2.0, 2.0, 2.0], setup=0.14, drift=1.0)
    result = verdicts(a, b)
    assert result["setup_s"] == "ok"  # +40%, but inside 50 ms
    assert result["sim_drift"] == "regressed"
    assert verdicts(a, document([2.0, 2.0, 2.0], setup=0.16))["setup_s"] == "regressed"


def test_moved_counts_and_refusals(tmp_path, capsys):
    a = document([2.0, 2.0, 2.0])
    b = document([2.0, 2.0, 2.0], fingerprint={"nproc": 64}, events=1.5)
    assert compare.moved_counts(a, a) == []
    assert compare.moved_counts(a, b)[0] == "solo_randread: sim.events_per_bio 2 -> 1.5 (run 0)"
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(a))
    path_b.write_text(json.dumps(b))
    assert compare.main([str(path_a), str(path_b)]) == 1
    assert "refusing" in capsys.readouterr().out
    assert compare.main([str(path_a), str(path_b), "--force"]) == 0
    path_b.write_text(json.dumps({"schema": "something/1"}))
    assert compare.main([str(path_a), str(path_b)]) == 1
