"""Command-line tools mirroring the paper's open-sourced tooling.

* ``python -m repro.tools.tune <device>`` — the §3.4 two-scenario QoS
  sweep deriving vrate bounds.
* ``python -m repro.tools.monitor <trace.jsonl>`` — re-render a saved
  per-period monitor stream in ``iocost_monitor.py`` style (the live
  :class:`repro.tools.monitor.Monitor` writes such streams).

Device profiling into an ``io.cost.model`` line (§3.2) is
``examples/device_profiling.py``, or a ``profile_device`` sweep through
``python -m repro.exp``; the every-mechanism comparison is the sweep
``examples/specs/compare_mechanisms.toml``.
"""
