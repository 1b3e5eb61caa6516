"""The experiment-kind registry and the built-in kinds.

A *kind* is a plain function ``fn(params, seed) -> result`` — JSON-able
params in, JSON-able result out, every random draw rooted at ``seed``.
The runner resolves kinds by registered name (the :func:`experiment`
decorator) or by dotted import path (``"mypkg.mymod.my_fn"``), so user
code can add kinds without touching this package; both forms survive the
trip into a worker process.

Built-ins cover the repo's own sweep surfaces:

* ``testbed`` — the generic one-machine scenario: devices, controllers,
  QoS, cgroup weights, a workload mix, one measurement window.  This is
  the declarative twin of what every hand-rolled benchmark sets up.  Its
  machine comes from :func:`build_machine`, the one builder ``chaos`` and
  every :mod:`repro.fleet` host share (with :func:`machine_kwargs`,
  :func:`device_spec_for`, :func:`qos_from` and :func:`cgroup_report`).
* ``profile_device`` — fio-style device profiling (Figure 3's fan-out
  over the fleet).
* ``vrate_phases`` — the Figure 13 online model-update scenario.
* ``mechanism_2to1`` — the two-container 2:1 comparison scenario;
  ``examples/specs/compare_mechanisms.toml`` fans it out over every
  Table 1 mechanism.
* ``chaos`` — a testbed scenario with a device fault plan (repro.faults)
  injected mid-run, measured phase-by-phase: the isolation-under-fault
  figure (does the protected cgroup's read p99 hold to the QoS target
  while the device misbehaves?).

Results must be canonically serialisable (no NaN, no numpy scalars) —
helpers here convert measurements to plain floats, keeping a run's stored
``result`` byte-stable across worker pools.

Reserved result key: ``_trace_jsonl`` (a list of JSONL event lines).  The
runner strips it out and lands it as ``runs/<run-hash>.trace.jsonl``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.block.bio import IOOp
from repro.block.device import DeviceSpec
from repro.block.device_models import get_device_spec
from repro.cgroup import Cgroup
from repro.controllers.blk_throttle import ThrottleLimits
from repro.core.controller import IOCost
from repro.core.cost_model import LinearCostModel, ModelParams
from repro.core.profiler import profile_device
from repro.core.qos import QoSParams
from repro.faults import plan_from_config
from repro.obs.metrics import exact_percentile
from repro.obs.spans import SpanTracker
from repro.obs.trace import TRACE, TraceBuffer
from repro.testbed import Testbed
from repro.workloads.synthetic import (
    ClosedLoopWorkload,
    LatencyGovernedWorkload,
    PacedWorkload,
    ThinkTimeWorkload,
)

ExperimentFn = Callable[[Dict[str, Any], int], Dict[str, Any]]

#: Reserved result key carrying tracepoint JSONL lines to the runner.
TRACE_KEY = "_trace_jsonl"


class ExperimentError(ValueError):
    """Raised for unknown kinds or malformed experiment params."""


REGISTRY: Dict[str, ExperimentFn] = {}


def experiment(name: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Register ``fn`` as the experiment kind ``name``."""

    def register(fn: ExperimentFn) -> ExperimentFn:
        if name in REGISTRY:
            raise ExperimentError(f"duplicate experiment kind {name!r}")
        REGISTRY[name] = fn
        return fn

    return register


def resolve(kind: str) -> ExperimentFn:
    """Look up a kind: registry name first, then dotted import path."""
    fn = REGISTRY.get(kind)
    if fn is not None:
        return fn
    if "." in kind:
        module_name, _, attr = kind.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise ExperimentError(f"cannot import experiment kind {kind!r}: {exc}") from exc
        fn = getattr(module, attr, None)
        if callable(fn):
            return fn
        raise ExperimentError(f"{kind!r} is not a callable experiment function")
    raise ExperimentError(
        f"unknown experiment kind {kind!r} (registered: {sorted(REGISTRY)})"
    )


# -- param helpers -----------------------------------------------------------


def _opt_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def qos_from(params: Mapping[str, Any]) -> Optional[QoSParams]:
    """Build :class:`QoSParams` from a spec's ``qos`` table, if present.

    The one qos-table validator: experiment kinds, fleet workers and the
    fleet spec loader all reject unknown fields here.
    """
    table = params.get("qos")
    if table is None:
        return None
    if not isinstance(table, dict):
        raise ExperimentError("'qos' must be a table of QoSParams fields")
    known = {f.name for f in dataclasses.fields(QoSParams)}
    unknown = set(table) - known
    if unknown:
        raise ExperimentError(f"unknown qos fields: {sorted(unknown)}")
    return QoSParams(**table)


def device_spec_for(
    device: Union[str, Mapping[str, Any]], scale: Optional[float] = None
) -> DeviceSpec:
    """Resolve a ``device`` param: a catalogue name or an inline
    :class:`~repro.block.device.DeviceSpec` field table, optionally
    ``scaled()``.  The one device resolver — experiment kinds, fleet hosts,
    the fleet scheduler, the fleet spec loader and the tune tool all come
    through here.
    """
    if isinstance(device, str):
        spec = get_device_spec(device)
    elif isinstance(device, Mapping):
        try:
            spec = DeviceSpec(**{"name": "inline", **device})
        except TypeError as exc:
            raise ExperimentError(f"bad inline device table: {exc}") from None
    else:
        raise ExperimentError(
            f"device must be a catalogue name or a table, got {type(device).__name__}"
        )
    return spec if scale is None else spec.scaled(float(scale))


# -- testbed: the generic declarative scenario -------------------------------

#: Workload-table ``type`` -> (the Testbed method that starts it, the
#: class it constructs).
_WORKLOADS: Dict[str, Tuple[Callable[..., Any], type]] = {
    "saturate": (Testbed.saturate, ClosedLoopWorkload),
    "paced": (Testbed.paced, PacedWorkload),
    "think_time": (Testbed.think_time, ThinkTimeWorkload),
    "latency_governed": (Testbed.latency_governed, LatencyGovernedWorkload),
}
#: Keys a table of each type may set: the workload constructor's own
#: keywords (everything after ``sim, layer, cgroup``).
_WORKLOAD_KEYS = {
    wl_type: tuple(inspect.signature(cls).parameters)[3:]
    for wl_type, (_start, cls) in _WORKLOADS.items()
}


@experiment("testbed")
def run_testbed(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One declarative testbed scenario.

    Params (all optional unless noted)::

        device / devices        catalogue name, or {name: catalogue-name}
        controller / controllers  Table 1 name, or {device: name}
        device_scale            spec.scaled() factor applied to every device
        qos                     QoSParams fields as a table
        faults, fault_device    repro.faults fault tables and the device they
                                attach to (default: the data device)
        mem_bytes, swap_bytes, swap_device
        cgroups                 {path: weight}           (required)
        workloads               [{cgroup, type, device?, ...kwargs}] (required;
                                ``op`` is "read" or "write")
        duration                measurement window seconds (default 1.0)
        percentiles             latency percentiles to report (default [50, 95, 99])
        trace_events            tracepoint names to capture into the run's trace
        trace_spans             true: track bio spans, report the stage
                                breakdown (repro.obs.spans) under 'spans'
    """
    bed, groups, duration = build_machine(params, seed)
    trace_names = params.get("trace_events") or []
    buffer: Optional[TraceBuffer] = None
    if trace_names:
        buffer = TraceBuffer()
        buffer.attach(TRACE, events=tuple(trace_names))
    tracker: Optional[SpanTracker] = None
    if params.get("trace_spans"):
        tracker = SpanTracker().attach(TRACE)
    try:
        bed.run(duration)
    finally:
        if buffer is not None:
            buffer.detach()
        if tracker is not None:
            tracker.detach()
        bed.detach()

    result: Dict[str, Any] = {
        "duration": duration,
        "cgroups": cgroup_report(bed, groups, params),
        "events_processed": int(bed.sim.events_processed),
    }
    if tracker is not None:
        result["spans"] = {
            "completed": tracker.completed,
            "open": tracker.open_count,
            "breakdown": tracker.breakdown(),
        }
    if buffer is not None:
        result[TRACE_KEY] = [event.to_json() for event in buffer.events]
    return result


def machine_kwargs(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Testbed constructor kwargs from a machine param table: device(s),
    controller(s), memory, ``qos`` and the ``faults`` plan (left unseeded:
    the testbed binds it to the machine seed)."""
    kwargs: Dict[str, Any] = {}
    scale = params.get("device_scale")
    if "devices" in params:
        kwargs["devices"] = {
            name: device_spec_for(device, scale)
            for name, device in params["devices"].items()
        }
    else:
        kwargs["device"] = device_spec_for(params.get("device", "ssd_new"), scale)
    if "controllers" in params:
        kwargs["controllers"] = dict(params["controllers"])
    else:
        kwargs["controller"] = params.get("controller", "iocost")
    for key in ("mem_bytes", "swap_bytes", "swap_device"):
        kwargs[key] = params.get(key)
    kwargs["qos"] = qos_from(params)
    if params.get("faults"):
        plan = plan_from_config(params["faults"])
        fault_device = params.get("fault_device")
        kwargs["faults"] = plan if fault_device is None else {fault_device: plan}
    return kwargs


def build_machine(
    params: Mapping[str, Any], seed: int, **extra: Any
) -> Tuple[Testbed, Dict[str, Cgroup], float]:
    """Build the machine a param table describes: the testbed, its cgroups
    by path, and the measurement window — every workload attached, nothing
    run yet.  ``extra`` goes to :class:`~repro.testbed.Testbed` verbatim.

    The one machine builder: ``testbed``, ``chaos`` and every fleet host
    (:func:`repro.fleet.experiments.run_fleet_host`) are this machine plus
    their own measurement.
    """
    cgroup_table = params.get("cgroups")
    workload_table = params.get("workloads")
    if not isinstance(cgroup_table, dict) or not cgroup_table:
        raise ExperimentError("machine params need a 'cgroups' {path: weight} table")
    if not isinstance(workload_table, list) or not workload_table:
        raise ExperimentError("machine params need a 'workloads' list")
    bed = Testbed(seed=seed, **machine_kwargs(params), **extra)
    groups = {
        path: bed.add_cgroup(path, weight=int(weight))
        for path, weight in cgroup_table.items()
    }
    duration = float(params.get("duration", 1.0))
    for entry in workload_table:
        attach_workload(bed, groups, entry, duration)
    return bed, groups, duration


def cgroup_report(
    bed: Testbed, groups: Mapping[str, Cgroup], params: Mapping[str, Any]
) -> Dict[str, Dict[str, Optional[float]]]:
    """Per-cgroup ``iops`` and ``read_p<pct>`` over the window just run."""
    percentiles = [float(p) for p in params.get("percentiles", [50, 95, 99])]
    return {
        path: {
            "iops": float(bed.iops(group)),
            **{
                f"read_p{pct:g}": _opt_float(value)
                for pct, value in zip(percentiles, bed.latency_percentiles(group, percentiles))
            },
        }
        for path, group in groups.items()
    }


def io_op(value: Any) -> IOOp:
    """A table's ``op`` — a string, TOML and JSON have nothing else — as
    the :class:`IOOp` that workloads and tasks compare against."""
    try:
        return IOOp(value)
    except ValueError:
        raise ExperimentError(f"op {value!r} must be read|write") from None


def workload_kwargs(wl_type: str, table: Mapping[str, Any]) -> Dict[str, Any]:
    """The one workload-table validator (testbed params and fleet templates):
    the keywords a ``wl_type`` workload starts with, from a table less its
    ``cgroup`` and ``type``; ``op`` and ``rate`` converted."""
    if wl_type not in _WORKLOADS:
        raise ExperimentError(
            f"unknown workload type {wl_type!r} (want one of {tuple(_WORKLOADS)})"
        )
    accepted = ("device",) + _WORKLOAD_KEYS[wl_type]
    for key in table:
        if key not in accepted:
            raise ExperimentError(
                f"unknown key {key!r} in a {wl_type!r} workload table "
                f"(accepted: {('cgroup', 'type') + accepted})"
            )
    kwargs = dict(table)
    if "op" in kwargs:
        kwargs["op"] = io_op(kwargs["op"])
    if wl_type == "paced":
        if kwargs.get("rate") is None:
            raise ExperimentError("paced workloads need a 'rate'")
        kwargs["rate"] = float(kwargs["rate"])
    return kwargs


def attach_workload(
    bed: Testbed,
    groups: Dict[str, Cgroup],
    entry: Dict[str, Any],
    duration: float,
) -> None:
    """Attach one declarative workload table to a testbed cgroup."""
    if not isinstance(entry, dict):
        raise ExperimentError("each workload must be a table")
    entry = dict(entry)
    cgroup_path = entry.pop("cgroup", None)
    wl_type = entry.pop("type", "saturate")
    if cgroup_path not in groups:
        raise ExperimentError(
            f"workload cgroup {cgroup_path!r} is not in the 'cgroups' table"
        )
    kwargs = workload_kwargs(wl_type, entry)
    kwargs.setdefault("stop_at", duration)
    start, _cls = _WORKLOADS[wl_type]
    start(bed, groups[cgroup_path], **kwargs)


# -- profile_device: Figure 3's per-device cell ------------------------------


@experiment("profile_device")
def run_profile_device(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Profile one catalogued device into linear-model parameters.

    Params: ``device`` (required), ``device_scale``, ``read_duration``,
    ``write_duration``.
    """
    if "device" not in params:
        raise ExperimentError("profile_device params need a 'device'")
    spec = device_spec_for(params["device"], params.get("device_scale"))
    profile = profile_device(
        spec,
        seed=seed,
        read_duration=float(params.get("read_duration", 0.25)),
        write_duration=float(params.get("write_duration", 1.0)),
    )
    return {
        key: (value if isinstance(value, str) else float(value))
        for key, value in dataclasses.asdict(profile).items()
    }


# -- vrate_phases: Figure 13's online model updates --------------------------


@experiment("vrate_phases")
def run_vrate_phases(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Saturating reader under phase-wise cost-model rescaling.

    Params: ``device`` (default ``ssd_new``), ``device_scale``,
    ``phase_sec``, ``model_scales`` (one factor per phase, applied to the
    accurate parameters at each phase start), ``depth``, and the QoS knobs
    ``read_lat_target``/``read_pct``/``vrate_min``/``vrate_max``/``period``.

    Returns per-phase steady-state vrate and read-latency percentile
    (mean of the second half of each phase).
    """
    spec = device_spec_for(params.get("device", "ssd_new"), params.get("device_scale"))
    phase_sec = float(params.get("phase_sec", 4.0))
    model_scales = [float(s) for s in params.get("model_scales", [1.0, 0.5, 2.0])]
    if not model_scales:
        raise ExperimentError("vrate_phases needs at least one model scale")
    qos = QoSParams(
        read_lat_target=_opt_float(params.get("read_lat_target", 2.5e-3)),
        read_pct=float(params.get("read_pct", 90)),
        write_lat_target=None,
        vrate_min=float(params.get("vrate_min", 0.1)),
        vrate_max=float(params.get("vrate_max", 4.0)),
        period=float(params.get("period", 0.05)),
    )
    accurate = ModelParams.from_device_spec(spec)
    model = LinearCostModel(accurate.scaled(model_scales[0]))
    controller = IOCost(model, qos=qos)
    bed = Testbed(device=spec, controller=controller, seed=seed)
    bed.saturate(
        bed.add_cgroup("fio"),
        depth=int(params.get("depth", 64)),
        stop_at=phase_sec * len(model_scales),
    )
    for index, scale in enumerate(model_scales):
        if index > 0:
            model.replace_params(accurate.scaled(scale))
        bed.run(phase_sec)
    bed.detach()

    def tail_mean(series: Any, index: int) -> float:
        values = series.slice(index * phase_sec, (index + 1) * phase_sec)
        tail = values[len(values) // 2:]
        if not tail:
            raise ExperimentError("phase too short: no steady-state samples")
        return float(sum(tail) / len(tail))

    phases = [
        {
            "model_scale": scale,
            "vrate": tail_mean(controller.vrate_ctl.vrate_series, index),
            "read_lat": tail_mean(controller.vrate_ctl.read_lat_series, index),
        }
        for index, scale in enumerate(model_scales)
    ]
    return {"phase_sec": phase_sec, "phases": phases}


# -- mechanism_2to1: the Table 1 comparison scenario -------------------------


@experiment("mechanism_2to1")
def run_mechanism_2to1(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Two saturating containers at 2:1 weights under one mechanism.

    Params: ``mechanism`` (required, a Table 1 name), ``device``,
    ``device_scale``, ``duration``, ``depth``, ``vrate`` (pinned
    vrate_min = vrate_max), ``period``.
    """
    mechanism = params.get("mechanism")
    if not mechanism:
        raise ExperimentError("mechanism_2to1 params need a 'mechanism'")
    spec = device_spec_for(params.get("device", "ssd_new"), params.get("device_scale"))
    duration = float(params.get("duration", 2.0))
    depth = int(params.get("depth", 32))
    kwargs: Dict[str, Any] = {}
    if mechanism == "blk-throttle":
        # Limits sized to the device's profiled peak, split 2:1.
        peak = spec.peak_rand_read_iops
        kwargs["limits"] = {
            "workload.slice/high": ThrottleLimits(riops=peak * 2 / 3),
            "workload.slice/low": ThrottleLimits(riops=peak / 3),
        }
    vrate = float(params.get("vrate", 0.9))
    qos = QoSParams(
        read_lat_target=None, write_lat_target=None,
        vrate_min=vrate, vrate_max=vrate,
        period=float(params.get("period", 0.05)),
    )
    bed = Testbed(device=spec, controller=mechanism, qos=qos, seed=seed, **kwargs)
    high = bed.add_cgroup("workload.slice/high", weight=200)
    low = bed.add_cgroup("workload.slice/low", weight=100)
    bed.saturate(high, depth=depth, stop_at=duration)
    bed.saturate(low, depth=depth, stop_at=duration)
    bed.run(duration)
    high_iops, low_iops = bed.iops(high), bed.iops(low)
    p90 = bed.layer.read_latency.percentile(bed.sim.now, 90)
    bed.detach()
    return {
        "mechanism": mechanism,
        "high_iops": float(high_iops),
        "low_iops": float(low_iops),
        "ratio": float(high_iops / low_iops) if low_iops else None,
        "read_p90": _opt_float(p90),
    }


# -- chaos: isolation under device faults (repro.faults) ---------------------

_PHASE_NAMES = ("pre", "fault", "post")


@experiment("chaos")
def run_chaos(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A testbed scenario with a device fault plan injected mid-run.

    Accepts every ``testbed`` machine/workload param, plus::

        faults          [{kind, start, duration, ...}] fault tables (required;
                        see repro.faults.fault_from_dict)
        fault_device    device name the plan attaches to (default: the data
                        device)
        protected       cgroup path held to the latency target
                        (default: the first entry of 'cgroups')
        latency_target  seconds (default: the qos read_lat_target)
        io_timeout      block-layer bio timeout in seconds
        max_retries     bounded-retry budget (default 3)
        settle          drain window in seconds appended to the fault phase
                        (default 0.05) — bios delayed by a stall or hang
                        complete *after* the fault window closes, so the
                        fault phase must cover the drain to see the damage
        percentiles     read-latency percentiles per phase (default [50, 95, 99])

    The run is split at the fault plan's envelope into ``pre`` / ``fault`` /
    ``post`` phases (an unbounded hang extends the fault phase to the end of
    the run; ``settle`` extends it past the last bounded fault).  Each phase
    reports per-cgroup iops and read-latency
    percentiles computed over the successful completions *inside* that phase
    — not a trailing window — plus the block layer's error / requeue /
    timeout deltas.  The ``isolation`` figure asks whether the protected
    cgroup's fault-phase read p99 held within the latency target while the
    device misbehaved; empty phases (fault plan starting at t=0, or running
    past ``duration``) report ``null``.

    The plan's error-draw RNG is bound by the testbed to the machine seed
    (label ``faults:<device>``), so results are a pure function of
    ``(params, seed)`` like every other kind.
    """
    fault_tables = params.get("faults")
    if not isinstance(fault_tables, list) or not fault_tables:
        raise ExperimentError("chaos params need a 'faults' list of fault tables")
    extra: Dict[str, Any] = {"max_retries": int(params.get("max_retries", 3))}
    if params.get("io_timeout") is not None:
        extra["io_timeout"] = float(params["io_timeout"])
    bed, groups, duration = build_machine(params, seed, **extra)

    protected = params.get("protected", next(iter(groups)))
    if protected not in groups:
        raise ExperimentError(f"protected cgroup {protected!r} is not in 'cgroups'")
    target = _opt_float(params.get("latency_target"))
    if target is None:
        target = (qos_from(params) or QoSParams()).read_lat_target
    percentiles = [float(p) for p in params.get("percentiles", [50, 95, 99])]

    # The fault envelope: [0, t0) pre, [t0, t1) fault, [t1, duration] post.
    settle = float(params.get("settle", 0.05))
    if settle < 0:
        raise ExperimentError("'settle' must be >= 0")
    windows = plan_from_config(fault_tables).faults
    t0 = min(duration, max(0.0, min(f.start for f in windows)))
    ends = [f.end for f in windows]
    if any(math.isinf(e) for e in ends):
        t1 = duration
    else:
        t1 = min(duration, max(ends) + settle)
    t1 = max(t1, t0)

    fault_layer = bed.layer_of(params.get("fault_device"))
    samples: Dict[str, List[float]] = {path: [] for path in groups}

    def on_complete(event: Any) -> None:
        fields = event.fields
        if fields["dev"] != fault_layer.dev or fields["op"] != "read":
            return
        bucket = samples.get(fields["cgroup"])
        if bucket is not None:
            bucket.append(float(fields["device_latency"]))

    subscription = TRACE.subscribe(on_complete, events=("bio_complete",))
    phases: Dict[str, Optional[Dict[str, Any]]] = {}
    fault_p99: Optional[float] = None
    try:
        for name, start, end in zip(
            _PHASE_NAMES, (0.0, t0, t1), (t0, t1, duration)
        ):
            if end - start <= 0.0:
                phases[name] = None
                continue
            errors_before = fault_layer.errored_ios
            requeues_before = fault_layer.requeued_ios
            timeouts_before = fault_layer.timed_out_ios
            for bucket in samples.values():
                bucket.clear()
            bed.run(end - start)
            cgroup_results: Dict[str, Any] = {}
            for path, group in groups.items():
                lats: Dict[str, Optional[float]] = {}
                for pct in percentiles:
                    lats[f"read_p{pct:g}"] = (
                        float(exact_percentile(samples[path], pct))
                        if samples[path] else None
                    )
                cgroup_results[path] = {"iops": float(bed.iops(group)), **lats}
            if name == "fault" and samples[protected]:
                fault_p99 = float(exact_percentile(samples[protected], 99))
            phases[name] = {
                "start": float(start),
                "end": float(end),
                "cgroups": cgroup_results,
                "errors": int(fault_layer.errored_ios - errors_before),
                "requeues": int(fault_layer.requeued_ios - requeues_before),
                "timeouts": int(fault_layer.timed_out_ios - timeouts_before),
            }
    finally:
        subscription.close()
        bed.detach()

    within: Optional[bool] = None
    if target is not None and fault_p99 is not None:
        within = bool(fault_p99 <= target)
    totals: Dict[str, Any] = {
        "errors": int(fault_layer.errored_ios),
        "requeues": int(fault_layer.requeued_ios),
        "timeouts": int(fault_layer.timed_out_ios),
    }
    # IOCost tracks the cost of failed bios it never refunds (graceful
    # degradation accounting); other Table 1 mechanisms have no such notion.
    failed_cost = getattr(fault_layer.controller, "failed_cost", None)
    if failed_cost is not None:
        totals["failed_ios"] = totals["errors"]
        totals["failed_cost"] = float(failed_cost)
    return {
        "duration": duration,
        "phases": phases,
        "isolation": {
            "protected": protected,
            "latency_target": _opt_float(target),
            "fault_read_p99": fault_p99,
            "within_target": within,
        },
        "totals": totals,
        "events_processed": int(bed.sim.events_processed),
    }


__all__ = [
    "ExperimentError",
    "ExperimentFn",
    "REGISTRY",
    "TRACE_KEY",
    "attach_workload",
    "build_machine",
    "cgroup_report",
    "device_spec_for",
    "experiment",
    "io_op",
    "machine_kwargs",
    "qos_from",
    "resolve",
    "run_chaos",
    "run_mechanism_2to1",
    "run_profile_device",
    "run_testbed",
    "run_vrate_phases",
    "workload_kwargs",
]
