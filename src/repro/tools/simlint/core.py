"""simlint rule engine: findings, registry, pragmas, drivers.

simlint is the repo's contract checker.  The simulator's correctness rests
on conventions a type checker cannot see — simulated time must never mix
with wall-clock time, randomness must come from seeded streams, names carry
their units, tracepoint emits match the catalogue.  Each convention is a
:class:`Rule` over Python's ``ast``; this module supplies the machinery
around the rules:

* :class:`Finding` — one diagnostic, rendered ``file:line:col rule message``.
* :func:`rule` — registration decorator populating :data:`RULES`.
* pragma suppression — ``# simlint: disable=<rule>[,<rule>...]`` on the
  flagged line (or on the line above, for lines that are themselves
  generated or too long) silences a finding.
* :func:`lint_source` / :func:`lint_paths` — the drivers the CLI and tests
  share.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic emitted by a rule."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"


@dataclass
class LintConfig:
    """Knobs shared by every rule.

    ``wallclock_allow`` holds fnmatch patterns (matched against the posix
    form of the file path) exempt from ``no-wallclock``: CLI front-ends may
    measure real time.
    """

    select: Optional[Sequence[str]] = None
    disable: Sequence[str] = ()
    wallclock_allow: Sequence[str] = ("*/repro/tools/*",)
    #: fnmatch patterns exempt from ``no-bare-assert``.  pytest rewrites
    #: asserts in test modules (they survive ``-O`` there by construction),
    #: so flagging every test assertion would be 1500 pragmas of noise.
    assert_allow: Sequence[str] = (
        "tests/*",
        "*/tests/*",
        "benchmarks/*",
        "*/benchmarks/*",
        "conftest.py",
        "*/conftest.py",
    )
    #: Tracepoint catalogue for the trace-catalogue rule: name -> fields.
    #: ``None`` means "load from repro.obs.trace at first use".
    catalogue: Optional[Mapping[str, Tuple[str, ...]]] = None
    #: Fields emit() may omit (mirrors repro.obs.trace.OPTIONAL_FIELDS).
    optional_fields: Optional[frozenset] = None

    def rule_names(self) -> List[str]:
        """The rules this run enables; a name that is no rule is a typo."""
        names = list(RULES) if self.select is None else list(self.select)
        for name in (*names, *self.disable):
            if name not in RULES:
                raise LintError(f"unknown simlint rule {name!r}")
        return [name for name in names if name not in set(self.disable)]


class FileContext:
    """Everything a rule may need about the file under analysis."""

    def __init__(self, path: str, source: str, config: LintConfig):
        self.path = path
        self.posix_path = Path(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.config = config

    def path_matches(self, patterns: Sequence[str]) -> bool:
        return any(fnmatch.fnmatch(self.posix_path, pat) for pat in patterns)


RuleFn = Callable[[ast.Module, FileContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered check: a name, a one-liner, and the AST visitor."""

    name: str
    description: str
    check: RuleFn


#: The global rule registry, populated by the :func:`rule` decorator at
#: import time (importing ``repro.tools.simlint`` pulls in every rule
#: module).
RULES: Dict[str, Rule] = {}


def rule(name: str, description: str) -> Callable[[RuleFn], RuleFn]:
    """Register ``fn`` as the checker for rule ``name``."""

    def register(fn: RuleFn) -> RuleFn:
        if name in RULES:
            raise ValueError(f"duplicate simlint rule {name!r}")
        RULES[name] = Rule(name, description, fn)
        return fn

    return register


# -- pragma suppression ------------------------------------------------------

# The pragma may sit anywhere inside a comment, so a one-line justification
# can precede it: ``# narrowing only - simlint: disable=<rule>``.
_PRAGMA_RE = re.compile(r"#.*\bsimlint:\s*disable=([A-Za-z0-9_,\- ]+)")


def _pragmas(source: str) -> Dict[int, frozenset]:
    """Map 1-based line number -> rule names disabled on that line.

    Token-based, not a regex over raw lines: a pragma spelled inside a
    triple-quoted string (docs, test fixtures) is *not* a comment and must
    not count.  Sources that fail to tokenize fall back to a raw line scan
    — by the time the drivers call this the file has already parsed, so the
    fallback only serves callers feeding deliberately broken fixtures.
    """
    try:
        comments = [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = [
            (lineno, text)
            for lineno, text in enumerate(source.splitlines(), start=1)
            if "#" in text
        ]
    disabled: Dict[int, frozenset] = {}
    for lineno, text in comments:
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        names = frozenset(
            name.strip() for name in match.group(1).split(",") if name.strip()
        )
        disabled[lineno] = names
    return disabled


class _PragmaLedger:
    """Pragma map plus bookkeeping of which suppressions actually fired."""

    def __init__(self, source: str):
        self.pragmas = _pragmas(source)
        #: ``(pragma line, rule name)`` pairs that suppressed a finding.
        self.used: Set[Tuple[int, str]] = set()

    def suppresses(self, finding: Finding) -> bool:
        for lineno in (finding.line, finding.line - 1):
            names = self.pragmas.get(lineno)
            if names is None:
                continue
            if finding.rule in names:
                self.used.add((lineno, finding.rule))
                return True
            if "all" in names:
                self.used.add((lineno, "all"))
                return True
        return False

    def unused(
        self, ctx: "FileContext", enabled_rules: Sequence[str]
    ) -> Iterator[Finding]:
        """Findings for pragma names that could have fired but never did.

        A name for a rule that is not enabled this run is skipped (it could
        not have suppressed anything); a name that is no registered rule at
        all is flagged — it is a typo that silently suppresses nothing.
        """
        enabled = set(enabled_rules)
        for lineno in sorted(self.pragmas):
            for name in sorted(self.pragmas[lineno]):
                if name == "all":
                    if (lineno, "all") not in self.used:
                        yield Finding(
                            path=ctx.path,
                            line=lineno,
                            col=0,
                            rule="unused-pragma",
                            message="'simlint: disable=all' suppresses nothing",
                        )
                elif name not in RULES:
                    yield Finding(
                        path=ctx.path,
                        line=lineno,
                        col=0,
                        rule="unused-pragma",
                        message=(
                            f"pragma names unknown rule {name!r} "
                            "(typo? it suppresses nothing)"
                        ),
                    )
                elif name in enabled and (lineno, name) not in self.used:
                    yield Finding(
                        path=ctx.path,
                        line=lineno,
                        col=0,
                        rule="unused-pragma",
                        message=(
                            f"'simlint: disable={name}' suppresses nothing "
                            "on this line or the line below"
                        ),
                    )


@rule(
    "unused-pragma",
    "a '# simlint: disable=' pragma must actually suppress something",
)
def _check_unused_pragma(tree: ast.Module, ctx: "FileContext") -> Iterable[Finding]:
    # Driver-implemented (see lint_source): detecting a *useless* pragma
    # requires the suppression ledger of every other rule's findings, which
    # a per-rule check cannot see.  Registered here so --list-rules/--select
    # know the name.
    return ()


# -- drivers -----------------------------------------------------------------

class LintError(RuntimeError):
    """Raised for unusable input (bad path, unknown rule, syntax error)."""


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Run every enabled rule over one source string."""
    config = LintConfig() if config is None else config
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc}") from exc
    ctx = FileContext(path, source, config)
    ledger = _PragmaLedger(source)
    enabled = config.rule_names()
    findings: List[Finding] = []
    for name in enabled:
        for finding in RULES[name].check(tree, ctx):
            if not ledger.suppresses(finding):
                findings.append(finding)
    # unused-pragma is driver-implemented: it needs the full suppression
    # ledger, which only exists after every other rule has run.  These
    # meta-findings land on the pragma's own line, so a dead ``disable=all``
    # would silently self-suppress via its own "all" — only an *explicit*
    # ``disable=unused-pragma`` opts a line out.
    if "unused-pragma" in enabled:
        for finding in ledger.unused(ctx, enabled):
            explicit = any(
                "unused-pragma" in ledger.pragmas.get(lineno, frozenset())
                for lineno in (finding.line, finding.line - 1)
            )
            if not explicit:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.is_file():
            yield path
        else:
            raise LintError(f"no such file or directory: {raw}")


def lint_paths(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; findings sorted by location."""
    config = LintConfig() if config is None else config
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(
            lint_source(file_path.read_text(), str(file_path), config)
        )
    return findings


__all__ = [
    "Finding",
    "LintConfig",
    "LintError",
    "FileContext",
    "Rule",
    "RULES",
    "rule",
    "lint_source",
    "lint_paths",
    "iter_python_files",
]
