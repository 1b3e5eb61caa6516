"""Per-rule fixtures for simlint: positive, negative, and pragma cases.

Each rule gets at least one snippet that must be flagged, one that must
pass, and a pragma-suppressed variant.  The final class asserts the repo's
own tree is clean — the contract CI enforces.
"""

from pathlib import Path

import pytest

from repro.tools.simlint import (
    RULES,
    LintConfig,
    lint_paths,
    lint_source,
    load_catalogue,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(source, rule=None, path="snippet.py"):
    config = LintConfig(select=[rule] if rule else None)
    return lint_source(source, path, config)


class TestRegistry:
    def test_all_six_contract_rules_registered(self):
        expected = {
            "no-wallclock",
            "no-unseeded-rng",
            "trace-catalogue",
            "unit-suffix",
            "no-mutable-default",
            "no-bare-assert",
        }
        assert expected <= set(RULES)

    def test_every_rule_has_description(self):
        for rule in RULES.values():
            assert rule.description


class TestNoWallclock:
    @pytest.mark.parametrize(
        "source",
        [
            "import time\nstart = time.time()\n",
            "import time\nstart = time.monotonic()\n",
            "import time as t\nstart = t.perf_counter()\n",
            "from time import perf_counter\nstart = perf_counter()\n",
            "from time import perf_counter as pc\ntimer = pc\n",
            "from datetime import datetime\nnow = datetime.now()\n",
            "import datetime\nnow = datetime.datetime.utcnow()\n",
        ],
    )
    def test_flags_wallclock_reads(self, source):
        assert findings_for(source, "no-wallclock")

    @pytest.mark.parametrize(
        "source",
        [
            "import time\nx = time.sleep\n",  # not a clock read
            "def f(sim):\n    return sim.now\n",
            "from datetime import timedelta\nd = timedelta(seconds=1)\n",
        ],
    )
    def test_allows_simulated_time(self, source):
        assert not findings_for(source, "no-wallclock")

    def test_allowlist_exempts_tools_and_overhead(self):
        source = "import time\nstart = time.perf_counter()\n"
        config = LintConfig(select=["no-wallclock"])
        assert lint_source(source, "src/repro/tools/monitor.py", config) == []
        # Same source outside the allowlist is flagged; wall time is
        # measured by bench/, so nothing under repro.obs is exempt.
        for path in ("src/repro/sim/engine.py", "src/repro/obs/overhead.py"):
            assert lint_source(source, path, config)

    def test_pragma_suppresses(self):
        source = (
            "import time\n"
            "start = time.time()  # simlint: disable=no-wallclock\n"
        )
        assert not findings_for(source, "no-wallclock")


class TestNoUnseededRng:
    @pytest.mark.parametrize(
        "source",
        [
            "import random\nx = random.random()\n",
            "import random\nrandom.seed(1)\n",
            "from random import randint\nx = randint(0, 5)\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy as np\nx = np.random.rand(4)\n",
            "import numpy as np\nnp.random.seed(0)\n",
            "import numpy as np\nss = np.random.SeedSequence()\n",
            "from numpy.random import default_rng\nrng = default_rng()\n",
        ],
    )
    def test_flags_unseeded_draws(self, source):
        assert findings_for(source, "no-unseeded-rng")

    @pytest.mark.parametrize(
        "source",
        [
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "import numpy as np\nss = np.random.SeedSequence(entropy=7)\n",
            "import random\nrng = random.Random(1234)\n",
            "def f(rng):\n    return rng.normal(0.0, 1.0)\n",  # stream arg
        ],
    )
    def test_allows_seeded_streams(self, source):
        assert not findings_for(source, "no-unseeded-rng")

    def test_pragma_suppresses(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # simlint: disable=no-unseeded-rng\n"
        )
        assert not findings_for(source, "no-unseeded-rng")


class TestTraceCatalogue:
    def test_catalogue_loads_from_source(self):
        catalogue, optional = load_catalogue()
        assert "bio_submit" in catalogue
        assert "dev" in optional

    def test_catalogue_includes_fault_path_events(self):
        catalogue, _ = load_catalogue()
        assert catalogue["bio_error"] == (
            "dev", "id", "cgroup", "op", "nbytes", "status", "retries",
        )
        assert catalogue["bio_requeue"] == (
            "dev", "id", "cgroup", "op", "nbytes", "status", "retries",
            "backoff",
        )
        assert catalogue["dev_fault_begin"] == ("dev", "kind", "index", "until")
        assert catalogue["dev_fault_end"] == ("dev", "kind", "index")

    def test_fault_event_emit_with_unknown_field_flagged(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            '_TP = TRACE.points["bio_error"]\n'
            "_TP.emit(0.0, dev='8:0', id=1, cgroup='ws', op='read',\n"
            "         nbytes=4096, status='eio', retrys=2)\n"
        )
        found = findings_for(source, "trace-catalogue")
        assert any("retrys" in finding.message for finding in found)

    def test_fault_event_emit_matching_catalogue_is_clean(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            '_TP = TRACE.points["dev_fault_begin"]\n'
            "_TP.emit(0.0, dev='8:0', kind='hang', index=0, until=-1.0)\n"
        )
        assert not findings_for(source, "trace-catalogue")

    def test_unknown_point_name_flagged(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            'tp = TRACE.points["bio_sbumit"]\n'
        )
        found = findings_for(source, "trace-catalogue")
        assert found and "bio_sbumit" in found[0].message

    def test_point_call_and_subscribe_lists_checked(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            'tp = TRACE.point("not_an_event")\n'
            'sub = TRACE.subscribe(print, events=["bio_submit", "qos_perios"])\n'
        )
        found = findings_for(source, "trace-catalogue")
        assert {"not_an_event", "qos_perios"} <= {
            finding.message.split("'")[1] for finding in found
        }

    def test_emit_unknown_field_flagged_through_binding(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            "class C:\n"
            "    def __init__(self):\n"
            '        self._tp = TRACE.points["qos_period"]\n'
            "    def go(self, now):\n"
            "        self._tp.emit(now, period=1.0, vrate=1.0,\n"
            "                      active_groups=1, budget_blocke=0)\n"
        )
        found = findings_for(source, "trace-catalogue")
        assert any("budget_blocke" in finding.message for finding in found)

    def test_emit_missing_required_field_flagged(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            '_TP = TRACE.point("qos_period")\n'
            "_TP.emit(0.0, period=1.0, vrate=1.0)\n"
        )
        found = findings_for(source, "trace-catalogue")
        assert any("omits required" in finding.message for finding in found)

    def test_emit_omitting_optional_dev_is_clean(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            '_TP = TRACE.point("qos_period")\n'
            "_TP.emit(0.0, period=1.0, vrate=1.0, active_groups=1,\n"
            "         budget_blocked=0)\n"
        )
        assert not findings_for(source, "trace-catalogue")

    def test_emit_with_splat_skips_completeness(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            '_TP = TRACE.point("donation_recalc")\n'
            "_TP.emit(0.0, **fields)\n"
        )
        assert not findings_for(source, "trace-catalogue")

    def test_parameter_default_binding_resolved(self):
        source = (
            "from repro.obs.trace import TRACE\n"
            'def go(now, _tp=TRACE.points["qos_period"]):\n'
            "    _tp.emit(now, period=1.0, vrate=1.0)\n"
        )
        found = findings_for(source, "trace-catalogue")
        assert any("omits required" in finding.message for finding in found)

    def test_unresolvable_binding_is_skipped(self):
        source = "point = make_point()\npoint.emit(0.0, whatever=1)\n"
        assert not findings_for(source, "trace-catalogue")

    def test_custom_catalogue_via_config(self):
        config = LintConfig(
            select=["trace-catalogue"],
            catalogue={"ev": ("a", "b")},
            optional_fields=frozenset({"b"}),
        )
        bad = 'tp = REG.points["nope"]\n'
        assert lint_source(bad, "x.py", config)
        good = '_T = REG.point("ev")\n_T.emit(0.0, a=1)\n'
        assert not lint_source(good, "x.py", config)


class TestUnitSuffix:
    @pytest.mark.parametrize(
        "source",
        [
            "def f(delay_ms: float) -> None:\n    pass\n",
            "def f(size_kb: int) -> None:\n    pass\n",
            "wait_seconds = 1.0\n",
            "class C:\n    def __init__(self):\n        self.span_ns = 5\n",
            "timeout_msec: float = 0.0\n",
        ],
    )
    def test_flags_non_canonical_suffixes(self, source):
        assert findings_for(source, "unit-suffix")

    @pytest.mark.parametrize(
        "source",
        [
            "def f(wait_usec: float, size_bytes: int) -> None:\n    pass\n",
            "grace_sec = 1.0\nnr_pages = 4\n",
            "atoms = 3\nteams = 2\n",  # no underscore-delimited unit suffix
        ],
    )
    def test_allows_canonical_names(self, source):
        assert not findings_for(source, "unit-suffix")

    def test_flags_usec_sec_mixing_in_sum(self):
        found = findings_for("total = wait_usec + grace_sec\n", "unit-suffix")
        assert found and "mixes time units" in found[0].message

    def test_flags_mixing_in_comparison(self):
        assert findings_for("ok = wait_usec < limit_sec\n", "unit-suffix")

    def test_converted_operand_not_flagged(self):
        # The conversion hides behind a Mult node: not a direct +/- leaf.
        source = "total_usec = wait_usec + grace_sec * 1e6\n"
        assert not findings_for(source, "unit-suffix")

    def test_chain_reports_once(self):
        source = "total = a_usec + b_usec + c_sec + d_sec\n"
        assert len(findings_for(source, "unit-suffix")) == 1

    def test_pragma_suppresses(self):
        source = (
            "# mirrors iocost_monitor's field name\n"
            "debt_ms = 1.0  # simlint: disable=unit-suffix\n"
        )
        assert not findings_for(source, "unit-suffix")


class TestNoMutableDefault:
    @pytest.mark.parametrize(
        "source",
        [
            "def f(items=[]):\n    return items\n",
            "def f(table={}):\n    return table\n",
            "def f(seen=set()):\n    return seen\n",
            "def f(*, order=list()):\n    return order\n",
            "from collections import deque\ndef f(q=deque()):\n    return q\n",
            "f = lambda acc=[]: acc\n",
        ],
    )
    def test_flags_mutable_defaults(self, source):
        assert findings_for(source, "no-mutable-default")

    @pytest.mark.parametrize(
        "source",
        [
            "def f(items=None):\n    return items or []\n",
            "def f(n=0, name=''):\n    return n\n",
            "def f(shape=(1, 2)):\n    return shape\n",
        ],
    )
    def test_allows_immutable_defaults(self, source):
        assert not findings_for(source, "no-mutable-default")


class TestNoBareAssert:
    def test_flags_assert(self):
        assert findings_for("assert x is not None\n", "no-bare-assert")

    def test_pragma_with_justification(self):
        source = "assert x  # narrowing only - simlint: disable=no-bare-assert\n"
        assert not findings_for(source, "no-bare-assert")

    def test_pragma_on_previous_line(self):
        source = (
            "# simlint: disable=no-bare-assert\n"
            "assert x is not None\n"
        )
        assert not findings_for(source, "no-bare-assert")


class TestRepoIsClean:
    def test_simlint_clean_on_src_repro(self):
        """The acceptance contract: zero findings on what CI lints —
        ``src``, and the ``tests``/``benchmarks``/``examples`` that drive it
        (``examples/`` is the Python the README tells users to copy)."""
        surface = [str(REPO_ROOT / name) for name in ("src", "tests", "benchmarks", "examples")]
        findings = lint_paths(surface)
        assert findings == [], "\n".join(str(finding) for finding in findings)
