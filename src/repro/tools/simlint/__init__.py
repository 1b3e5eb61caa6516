"""simlint — repo-specific static analysis for the IOCost reproduction.

The simulator's correctness contracts (deterministic time, seeded RNG
streams, unit-suffixed names, catalogue-checked tracepoints, no stripped
asserts) are enforced over Python's ``ast`` by the rules registered here.
Run ``python -m repro.tools.simlint [paths]``; see docs/STATIC_ANALYSIS.md.

Importing this package registers every rule: ``core`` (``unused-pragma``),
``rules`` and ``trace_rules`` populate
:data:`repro.tools.simlint.core.RULES` at import time.
"""

from repro.tools.simlint.core import (
    RULES,
    FileContext,
    Finding,
    LintConfig,
    LintError,
    Rule,
    lint_paths,
    lint_source,
    rule,
)
from repro.tools.simlint import rules as _rules  # noqa: F401  (registers rules)
from repro.tools.simlint import trace_rules as _trace_rules  # noqa: F401
from repro.tools.simlint.cli import main
from repro.tools.simlint.trace_rules import load_catalogue

__all__ = [
    "RULES",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintError",
    "Rule",
    "lint_paths",
    "lint_source",
    "load_catalogue",
    "main",
    "rule",
]
