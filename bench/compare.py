"""``python3 bench/compare.py A.json B.json`` — did B regress against A?

A and B are result files ``bench/run.py --out`` appended runs to: A the
parent commit's runs, B the change's (or two sets of runs of one commit, to
see the noise).  For every workload and end-to-end metric this prints the
median over each file's runs, the run-to-run quartile spread
(inter-quartile distance over median; 0 for a single run), B's change in
the metric's worse direction as a share of A's median, the bound, and one
verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — a side's spread is wider than the bound, so the runs
  cannot tell (reported as unresolved, not as unchanged) — unless every
  run of B reads better than every run of A, which is ``ok``.

``fail_share`` and ``sim_drift`` have no bound: any increase is a
regression.  Counts that repeat exactly for a seed (events, heap pushes,
``calls_per_bio``, ...) are listed when they differ: a change that only
speeds the simulator up must not move them.

Results from different machines do not compare: the files carry a
fingerprint (``nproc``, CPU model, Python, numpy) and a mismatch is
refused without ``--force``.  Exit code 1 on any regression or refusal.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import names  # noqa: E402
from bench.stats import quartiles, spread  # noqa: E402

#: Result-file schema: ``{"schema", "fingerprint", "runs": [run, ...]}``.
SCHEMA = "bench.result/2"


def fingerprint() -> Dict[str, Any]:
    """What has to match before two result files may be compared."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def worsening(metric_better: str, a: float, b: float) -> float:
    """B's move in the worse direction, as a share of A (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if metric_better == "lower" else -change


def all_better(metric_better: str, a: Sequence[float], b: Sequence[float]) -> bool:
    """Every run of B reads better than every run of A."""
    if metric_better == "lower":
        return max(b) < min(a)
    return min(b) > max(a)


def verdict(name: str, better: str, bound: float, a: Sequence[float], b: Sequence[float]) -> Dict[str, Any]:
    """One row: medians over each file's runs, their spreads, the verdict."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    spread_a, spread_b = spread(a), spread(b)
    worse = worsening(better, median_a, median_b)
    within = worse <= bound or abs(median_b - median_a) <= names.ABSOLUTE_SLACK.get(name, 0.0)
    if bound == 0:
        word = "ok" if worse <= 0 else "regressed"
    elif max(spread_a, spread_b) > bound and not all_better(better, a, b):
        word = "unresolved"
    else:
        word = "ok" if within else "regressed"
    return {
        "a": median_a, "b": median_b, "runs_a": len(a), "runs_b": len(b),
        "spread_a": spread_a, "spread_b": spread_b,
        "worse_by": worse, "bound": bound, "verdict": word,
    }


def values_of(document: Dict[str, Any], workload: str, section: str, name: str) -> List[float]:
    """A metric's value in every run of the file that measured it."""
    found = []
    for run in document["runs"]:
        entry = run["results"].get(workload, {}).get(section, {}).get(name)
        if entry is not None:
            found.append(entry["value"] if section == "end_to_end" else entry)
    return found


def workloads_of(document: Dict[str, Any]) -> List[str]:
    seen = {workload for run in document["runs"] for workload in run["results"]}
    return [name for name, _why in names.WORKLOADS if name in seen]


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric measured in both files."""
    metrics = list(names.END_TO_END) + [
        (name, unit, "lower", 0.0) for name, unit in names.ZERO_METRICS
    ]
    rows: List[Dict[str, Any]] = []
    for workload in workloads_of(a):
        for name, _unit, better, bound in metrics:
            side_a = values_of(a, workload, "end_to_end", name)
            side_b = values_of(b, workload, "end_to_end", name)
            if side_a and side_b:
                rows.append({
                    "workload": workload, "metric": name,
                    **verdict(name, better, bound, side_a, side_b),
                })
    return rows


def moved_counts(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Exactly-repeating per-layer counts that differ between the files.

    Compared run against run, first with first: counts repeat per seed, so
    the two files should have been run with the same seeds in the same order.
    """
    exact = {name for name, _unit, _better in names.WORK_COUNTS}
    exact |= {name for name, _unit, _better in names.per_layer() if name.endswith(".calls_per_bio")}
    lines = []
    for workload in workloads_of(a):
        for name in sorted(exact):
            side_a = values_of(a, workload, "per_layer", name)
            side_b = values_of(b, workload, "per_layer", name)
            for index, (before, after) in enumerate(zip(side_a, side_b)):
                if before != after:
                    lines.append(f"{workload}: {name} {before:.6g} -> {after:.6g} (run {index})")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="result file of the parent commit")
    parser.add_argument("b", type=Path, help="result file of the change")
    parser.add_argument("--force", action="store_true",
                        help="compare even though the machine fingerprints differ")
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    for path, document in ((args.a, a), (args.b, b)):
        if document.get("schema") != SCHEMA:
            print(f"{path}: not a {SCHEMA} result file")
            return 1
    if a["fingerprint"] != b["fingerprint"] and not args.force:
        print(f"refusing to compare across machines (--force overrides):\n"
              f"  {args.a}: {a['fingerprint']}\n  {args.b}: {b['fingerprint']}")
        return 1
    rows = compare(a, b)
    print(f"{'workload':<16} {'metric':<13} {'A':>12} {'B':>12} {'runs':>5} {'spreadA':>8} "
          f"{'spreadB':>8} {'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<16} {row['metric']:<13} {row['a']:>12.6g} {row['b']:>12.6g} "
            f"{row['runs_a']:>2}/{row['runs_b']:<2} {row['spread_a']:>8.1%} {row['spread_b']:>8.1%} "
            f"{row['worse_by']:>+9.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    moved = moved_counts(a, b)
    if moved:
        print("exactly-repeating counts that differ (a behaviour change, not noise):")
        for line in moved:
            print(f"  {line}")
    tally = {word: sum(1 for row in rows if row["verdict"] == word)
             for word in ("ok", "regressed", "unresolved")}
    print(f"{tally['ok']} ok, {tally['regressed']} regressed, {tally['unresolved']} unresolved")
    return 1 if tally["regressed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
