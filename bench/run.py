"""The benchmark's one command.

Two ways to call it::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--repeats R] [--workload NAME] [--out FILE]

The first measures one workload one way (``--trace 0``: the end-to-end
metrics with everything observable off; ``--trace 1``: the per-layer
metrics from a traced run) and prints, as the last line of stdout, the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The
second runs every workload (or one) both ways and prints the table.  Both
append the run — values, per-repeat quartiles and sample counts, digests —
to the result file ``--out`` (default ``bench/out/result.json``), which
carries the machine fingerprint and is what ``bench/compare.py`` reads.

Each measurement runs in a fresh child process (bench/child.py), one
after the other, single-threaded.  A failed check prints which and why,
sets ``correct`` to false and makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import names  # noqa: E402
from bench.compare import SCHEMA, fingerprint  # noqa: E402
from bench.stats import summarize, undisturbed  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
CALIBRATION = OUT_DIR / "calibration.json"
#: Process starts sampled for ``setup_s``: the probes plus the timed child.
SETUP_SAMPLES = 5
DEFAULT_REPEATS = 5


def child_env() -> Dict[str, str]:
    """The child imports ``bench`` from the checkout and ``repro`` from its
    ``src``; anything already on PYTHONPATH stays behind them."""
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, mode: str, args: argparse.Namespace, extra: Sequence[str] = ()) -> Dict[str, Any]:
    """Start one child, wait for it, return the object on its last line."""
    command = [
        sys.executable, "-m", "bench.child",
        "--workload", workload, "--mode", mode,
        "--seed", str(args.seed), "--scale", repr(args.scale),
        # perf_counter is CLOCK_MONOTONIC here: one clock for both processes.
        "--t0", repr(time.perf_counter()), *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(
            f"bench: {mode} child for {workload} exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def fastest_known_spin(spins: Sequence[Sequence[Optional[float]]]) -> Optional[float]:
    """The fastest the calibration loop has run on this machine, this run
    included; remembered in ``bench/out/calibration.json``.

    A run can fall wholly inside a slow stretch (they last up to half a
    minute here); its own fastest loop is then slow too and would pass for
    full speed.  The loop cannot run faster than the machine allows, so
    the fastest ever seen is the full-speed reference.
    """
    taken = [spin for row in spins for spin in row if spin is not None]
    if not taken:
        return None
    fastest = min(taken)
    machine = fingerprint()
    if CALIBRATION.exists():
        known = json.loads(CALIBRATION.read_text())
        if known["fingerprint"] == machine:
            fastest = min(fastest, known["fastest_spin"])
    CALIBRATION.parent.mkdir(parents=True, exist_ok=True)
    CALIBRATION.write_text(
        json.dumps({"fingerprint": machine, "fastest_spin": fastest}, indent=1) + "\n"
    )
    return fastest


def measure_end_to_end(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """``--trace 0``: set-up probes, then the timed child."""
    setups = [
        run_child(workload, "probe", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]
    budget = (
        ["--repeats", str(args.repeats)] if args.repeats is not None
        else ["--seconds", repr(args.seconds)]
    )
    child = run_child(workload, "timed", args, budget)
    setups.append(child["setup_s"])
    repeats = child["repeats"]
    digests = sorted({repeat["digest"] for repeat in repeats})
    failures = sorted({line for repeat in repeats for line in repeat["check_failures"]})
    attempted = sum(repeat["attempted"] for repeat in repeats)
    failed = sum(repeat["failed"] for repeat in repeats)
    if len(digests) > 1:
        failures.append(
            f"{workload}: simulated statistics differ between repeats of one seed: {digests}"
        )
    # Host times are reported at the machine's undisturbed speed (stats.py):
    # slices scaled by the calibration loop beside them, then the fastest
    # repeat of each; the fastest process start.  What the repeats looked
    # like as they came is kept beside the value.
    spins = [repeat["spins"] for repeat in repeats]
    wall = undisturbed([repeat["slices"] for repeat in repeats], spins, fastest_known_spin(spins))
    bios = repeats[0]["bios"]
    return {
        "end_to_end": {
            "wall_s": {"value": wall, "repeats": summarize([r["wall_s"] for r in repeats])},
            "bios_per_sec": {
                "value": bios / wall,
                "repeats": summarize([r["bios"] / r["wall_s"] for r in repeats]),
            },
            "setup_s": {"value": min(setups), "repeats": summarize(setups)},
            "peak_rss_mb": {"value": child["peak_rss_mb"]},
            "fail_share": {"value": 1.0 if failures else failed / attempted},
            "sim_drift": {"value": 0.0 if len(digests) == 1 else 1.0},
        },
        "bios": bios,
        "digest": digests[0] if len(digests) == 1 else None,
        "attempted": attempted,
        "failed": failed,
        "check_failures": failures,
    }


def measure_per_layer(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """``--trace 1``: the traced child; spans land beside the result."""
    spans_out = OUT_DIR / f"{workload}.spans.jsonl"
    child = run_child(workload, "traced", args, ["--spans-out", str(spans_out)])
    known = {name for name, _unit, _better in names.per_layer()}
    unknown = sorted(set(child["metrics"]) - known)
    if unknown:
        raise SystemExit(f"bench: child reported metrics BENCHMARK.json does not list: {unknown}")
    # A metric that does not apply to this workload (the ladder anywhere but
    # solo_randread, the fleet numbers anywhere but fleet_region) reads 0.
    metrics = {name: float(child["metrics"].get(name, 0.0)) for name in sorted(known)}
    return {
        "per_layer": metrics,
        "traced": child["traced"],
        "spans": str(spans_out.relative_to(ROOT)),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "check_failures": child["check_failures"],
    }


def print_workload(workload: str, result: Dict[str, Any]) -> None:
    units = {name: unit for name, unit, _better, _bound in names.END_TO_END}
    units.update(dict(names.ZERO_METRICS))
    print(f"== {workload}")
    for name, entry in result.get("end_to_end", {}).items():
        line = f"  {name:<14} {entry['value']:>14.6g} {units[name]:<5}"
        if "repeats" in entry:
            seen = entry["repeats"]
            line += (f" (as it came: median {seen['median']:.6g}, "
                     f"q1 {seen['q1']:.6g}, q3 {seen['q3']:.6g}, n={seen['n']})")
        print(line)
    if result.get("digest"):
        print(f"  {'digest':<14} {result['digest']:>14}")
    layer_units = {name: unit for name, unit, _better in names.per_layer()}
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<36} {value:>14.6g} {layer_units[name]}")
    if "ladder_vs_solo" in result.get("traced", {}):
        print(f"  ladder rungs b-e sum to {result['traced']['ladder_vs_solo']:.2f} of this workload's us/bio")
    for line in result.get("check_failures", ()):
        print(f"  CHECK FAILED: {line}")


def result_line(result: Dict[str, Any], trace: int) -> Dict[str, Any]:
    """The object the contract wants on the last line of stdout."""
    if trace == 0:
        metrics = {
            name: {"value": result["end_to_end"][name]["value"], "unit": unit}
            for name, unit, _better, _bound in names.END_TO_END
        }
    else:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit, _better in names.per_layer()
        }
    failures = result["check_failures"]
    return {
        "correct": not failures,
        "attempted": result["attempted"],
        # A failed check fails the run even when every bio completed.
        "failed": result["attempted"] if failures else result["failed"],
        "metrics": metrics,
    }


def append_run(path: Path, run: Dict[str, Any]) -> None:
    """Add one run to the result file; runs from another machine do not mix."""
    document = {"schema": SCHEMA, "fingerprint": fingerprint(), "runs": []}
    if path.exists():
        existing = json.loads(path.read_text())
        if existing.get("schema") != SCHEMA or existing.get("fingerprint") != document["fingerprint"]:
            raise SystemExit(
                f"bench: {path} holds runs of another machine or schema; "
                "move it away or pass another --out"
            )
        document = existing
    document["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def build_parser() -> argparse.ArgumentParser:
    workload_names = [name for name, _why in names.WORKLOADS]
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names, default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only (default: both)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced: keep repeating while another repeat fits in this many seconds")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"untraced: exactly this many timed repeats (default {DEFAULT_REPEATS})")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the simulated durations (smoke tests); skips the paper-shape checks")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json",
                        help="result file the run is appended to")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds is not None and args.repeats is not None:
        raise SystemExit("bench: give --seconds or --repeats, not both")
    if args.seconds is None and args.repeats is None:
        args.repeats = DEFAULT_REPEATS
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"bench: no src/repro under {ROOT}: nothing to measure")
    selected = [args.workload] if args.workload else [name for name, _why in names.WORKLOADS]
    traces = [args.trace] if args.trace is not None else [0, 1]

    results: Dict[str, Dict[str, Any]] = {}
    for workload in selected:
        merged: Dict[str, Any] = {"attempted": 0, "failed": 0, "check_failures": []}
        for trace in traces:
            part = measure_end_to_end(workload, args) if trace == 0 else measure_per_layer(workload, args)
            for key in ("attempted", "failed", "check_failures"):
                merged[key] += part.pop(key)
            merged.update(part)
        if workload == "solo_randread" and len(traces) == 2 and args.scale == 1.0:
            # Rungs b-e add up to the path this workload takes through
            # Testbed; the two should agree within 15% (README, the ladder).
            rungs = sum(merged["per_layer"][f"{layer}.rung_us_per_bio"]
                        for layer in ("block.device", "block.layer", "core", "workloads"))
            solo = merged["end_to_end"]["wall_s"]["value"] / merged["bios"] * 1e6
            merged["traced"]["ladder_vs_solo"] = rungs / solo
        results[workload] = merged
        print_workload(workload, merged)

    append_run(args.out, {"seed": args.seed, "scale": args.scale, "results": results})
    print(f"appended the run to {args.out}")

    failed_checks: List[str] = [
        line for result in results.values() for line in result["check_failures"]
    ]
    if len(selected) == 1 and len(traces) == 1:
        print(json.dumps(result_line(results[selected[0]], traces[0])))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    raise SystemExit(main())
