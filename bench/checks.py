"""Correctness checks and the simulated-statistics digest.

Two things come out of here:

* ``digest(stats)`` — a hash of a repeat's simulated statistics.  The
  simulator is deterministic per seed, so every repeat of one run must
  hash the same (``sim_drift`` = 0), and a change that only makes the
  simulator faster must leave the printed digest byte-identical to its
  parent's.  The digest is *not* pinned here: a behaviour fix changes it
  without a benchmark edit.
* ``failures(name, outcome, full_scale)`` — one line per failed check,
  each saying which check and why.  Tolerances, not goldens: they encode
  conservation and the paper figure each workload stands for, and hold on
  any seed.  The paper-shape checks need the benchmark's full simulated
  duration; the conservation checks hold at any scale.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from bench.workloads import Outcome


def digest(stats: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of the statistics (floats by repr)."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _conservation(facts: Dict[str, int]) -> List[str]:
    """Every submitted bio finished: none lost, none still holding a slot."""
    problems = []
    if facts["finished"] != facts["submitted"]:
        problems.append(
            f"conservation: {facts['submitted']} bios submitted but "
            f"{facts['finished']} finished after the drain"
        )
    if facts["inflight"] != 0:
        problems.append(f"conservation: {facts['inflight']} request slots still held")
    outstanding = facts["submitted_at_stop"] - facts["finished_at_stop"]
    drained = facts["finished"] - facts["finished_at_stop"]
    if drained < outstanding:
        problems.append(
            f"conservation: {outstanding} bios in flight at stop, only {drained} drained"
        )
    if facts["errored"] or facts["timed_out"]:
        problems.append(
            f"conservation: {facts['errored']} errored / {facts['timed_out']} "
            "timed-out bios on a fault-free device"
        )
    callbacks = facts.get("callbacks")
    if callbacks is not None and callbacks != facts["finished"]:
        problems.append(
            f"conservation: generators saw {callbacks} completions, "
            f"the layer counted {facts['finished']}"
        )
    return problems


def _solo_randread(facts: Dict[str, Any]) -> List[str]:
    # Work conservation (Fig 11): alone on the device, iocost must not
    # hold the cgroup below what the device can do.
    if facts["iops"] < 0.85 * facts["peak_iops"]:
        return [
            f"work conservation: {facts['iops']:.0f} IOPS is under 85% of the "
            f"device's {facts['peak_iops']:.0f}"
        ]
    return []


def _contended_tree(facts: Dict[str, Any]) -> List[str]:
    # Proportional control (Fig 10): the saturating readers split read
    # IOPS by their tenants' weights.
    total_ios = sum(facts["reader_ios"])
    total_weight = sum(facts["reader_weights"])
    problems = []
    for index, (ios, weight) in enumerate(zip(facts["reader_ios"], facts["reader_weights"])):
        got, want = ios / total_ios, weight / total_weight
        if abs(got - want) > 0.1:
            problems.append(
                f"proportionality: tenant t{index} reader got {got:.3f} of read "
                f"IOPS, weight share is {want:.3f}"
            )
    return problems


def _mechanisms_2to1(facts: Dict[str, Any]) -> List[str]:
    problems = []
    for name, want, tolerance in (("iocost", 2.0, 0.2), ("none", 1.0, 0.1)):
        got = facts["ratios"][name]
        if got is None or abs(got - want) > tolerance:
            problems.append(f"2:1 ratio: {name} gave {got}, expected {want} +/- {tolerance}")
    return problems


def _memleak_web(facts: Dict[str, Any]) -> List[str]:
    # Fig 14: under iocost the web server keeps >= 80% of its leak-free RPS.
    if facts["rps_retained"] < 0.8:
        return [f"memleak: web server retained {facts['rps_retained']:.2f} of baseline RPS"]
    return []


def _fleet_region(facts: Dict[str, Any]) -> List[str]:
    problems = []
    if facts["runs"] != facts["hosts"] or facts["runs_failed"]:
        problems.append(
            f"fleet: {facts['runs']} runs for {facts['hosts']} hosts, "
            f"{facts['runs_failed']} not ok"
        )
    if facts.get("cached_hit_rate", 1.0) != 1.0:
        problems.append(f"fleet: identical re-run hit the cache {facts['cached_hit_rate']:.3f}")
    if not facts.get("rollup_identical", True):
        problems.append("fleet: rollup recomputed from the store differs")
    return problems


_SHAPE_CHECKS = {
    "solo_randread": _solo_randread,
    "contended_tree": _contended_tree,
    "mechanisms_2to1": _mechanisms_2to1,
    "memleak_web": _memleak_web,
}


def failures(name: str, outcome: Outcome, full_scale: bool) -> List[str]:
    """Human-readable lines, one per failed check; empty when all hold."""
    problems: List[str] = []
    for facts in outcome.facts.get("conservation", ()):
        problems += _conservation(facts)
    if name == "fleet_region":
        problems += _fleet_region(outcome.facts)
    elif full_scale:
        problems += _SHAPE_CHECKS[name](outcome.facts)
    return [f"{name}: {problem}" for problem in problems]
