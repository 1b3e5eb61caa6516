"""General simlint rules: determinism, stream labels, units, defaults, asserts.

Every rule here is grounded in a failure mode this repo has actually hit
or structurally risks:

* ``no-wallclock`` — the simulator's clock is :attr:`Simulator.now`;
  wall-clock reads (``time.time`` & friends) silently break run-to-run
  reproducibility.  CLI front-ends (``tools/``) are exempt via
  :attr:`LintConfig.wallclock_allow`.
* ``no-unseeded-rng`` — every random draw must come from a seeded,
  label-keyed stream (``Testbed.rng_for`` / ``repro.sim.labeled_seed``);
  module-level ``random.*`` and unseeded ``np.random`` calls are hidden
  global state.
* ``rng-stream-labels`` — every ``rng_for(...)``/``noise_stream(...)``
  label must be a literal-derivable string (a string constant, or an
  f-string with a distinguishing literal prefix) and unique within its
  enclosing function.  Two consumers that pass the same label silently
  share one bit stream — each sees every *other* draw of a single sequence
  — and a label built from an arbitrary expression cannot be audited for
  that statically.
* ``unit-suffix`` — quantities carry their unit in the name
  (``_usec``/``_sec``/``_bytes``/``_pages``); PR 2 fixed a real bug where
  ``wait_usec`` was accumulated in seconds.  Flags non-canonical unit
  suffixes on bindings and ``_usec``/``_sec`` mixing inside one
  addition/subtraction/comparison.
* ``no-mutable-default`` — the classic shared-default-argument trap.
* ``no-bare-assert`` — ``assert`` disappears under ``python -O``; invariant
  checks in ``src/repro`` must raise typed errors.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.tools.simlint.core import FileContext, Finding, rule

# -- shared helpers ----------------------------------------------------------


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local binding name -> canonical dotted origin.

    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    perf_counter as pc`` binds ``pc -> time.perf_counter``.  Conditional or
    function-local imports are included too (``ast.walk``), which is the
    right bias for a linter: resolve as much as possible.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origin = alias.name if alias.asname else local
                mapping[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports cannot be stdlib/numpy
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def _dotted(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))


def _finding(
    ctx: FileContext, node: ast.AST, name: str, message: str
) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=name,
        message=message,
    )


# -- no-wallclock ------------------------------------------------------------

_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@rule(
    "no-wallclock",
    "simulated code must read Simulator.now, never the wall clock",
)
def check_wallclock(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    if ctx.path_matches(ctx.config.wallclock_allow):
        return
    imports = _import_map(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        # For x.y.z only the outermost Attribute resolves to the full
        # dotted name, so inner nodes never double-report.
        dotted = _dotted(node, imports)
        if dotted in _WALLCLOCK:
            yield _finding(
                ctx,
                node,
                "no-wallclock",
                f"{dotted} reads the wall clock; simulated code must use "
                "Simulator.now (or move the caller onto the allowlist)",
            )


# -- no-unseeded-rng ---------------------------------------------------------

#: numpy.random constructors that are fine *when given an explicit seed*.
_SEEDED_CTORS = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "Generator",
        "RandomState",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


@rule(
    "no-unseeded-rng",
    "random draws must come from seeded, label-keyed Generator streams",
)
def check_unseeded_rng(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    imports = _import_map(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, imports)
        if dotted is None:
            continue
        if dotted.startswith("random."):
            tail = dotted.split(".", 1)[1]
            if tail == "Random" and (node.args or node.keywords):
                continue  # an explicitly seeded private instance
            yield _finding(
                ctx,
                node,
                "no-unseeded-rng",
                f"{dotted} draws from the process-global stdlib RNG; use a "
                "seeded stream (Testbed.rng_for / repro.sim.labeled_seed)",
            )
        elif dotted.startswith("numpy.random."):
            tail = dotted.split("numpy.random.", 1)[1]
            if "." in tail:
                continue  # e.g. numpy.random.Generator.normal via a var: n/a
            if tail in _SEEDED_CTORS:
                if not node.args and not node.keywords:
                    yield _finding(
                        ctx,
                        node,
                        "no-unseeded-rng",
                        f"numpy.random.{tail}() without a seed pulls OS "
                        "entropy; pass an explicit seed "
                        "(Testbed.rng_for / repro.sim.labeled_seed)",
                    )
            else:
                yield _finding(
                    ctx,
                    node,
                    "no-unseeded-rng",
                    f"numpy.random.{tail} uses the hidden global "
                    "RandomState; draw from a seeded Generator instead",
                )


# -- rng-stream-labels -------------------------------------------------------

#: Callables whose argument is a stream label: name → index of the label
#: argument (``noise_stream(rng, label)`` has it second).
_LABELED_STREAM_FNS: Dict[str, int] = {"rng_for": 0, "noise_stream": 1}

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _stream_calls(scope: ast.AST) -> List[Tuple[str, ast.Call]]:
    """``(callee, call)`` for the labeled-stream calls in ``scope``'s own
    body, in source order; a nested ``def`` is its own scope."""
    calls: List[Tuple[str, ast.Call]] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTION_DEFS):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in _LABELED_STREAM_FNS:
                calls.append((name, node))
        stack.extend(ast.iter_child_nodes(node))
    calls.sort(key=lambda item: (item[1].lineno, item[1].col_offset))
    return calls


def _label_expr(call: ast.Call, position: int) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == "label":
            return keyword.value
    if len(call.args) > position and not any(
        isinstance(arg, ast.Starred) for arg in call.args[: position + 1]
    ):
        return call.args[position]
    return None


def _label_skeleton(node: ast.expr) -> Optional[str]:
    """Literal skeleton of a label expression, or None if not derivable.

    A constant string is its own skeleton.  An f-string is derivable when
    it *leads* with a non-empty literal (the namespace prefix that keeps
    two call sites' streams apart); its placeholders render as ``{}`` so
    ``f"device:{a}"`` and ``f"device:{b}"`` share a skeleton — same
    template, same collision risk class.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if not (
            isinstance(head, ast.Constant)
            and isinstance(head.value, str)
            and head.value
        ):
            return None
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append("{}")
            else:
                return None
        return "".join(parts)
    return None


@rule(
    "rng-stream-labels",
    "rng_for()/noise_stream() labels must be literal-derivable strings, "
    "unique per scope (aliased labels share one bit stream)",
)
def check_rng_stream_labels(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTION_DEFS)]
    for scope in scopes:
        # (callee, skeleton) → first-use line, for duplicate detection.
        seen: Dict[Tuple[str, str], int] = {}
        for name, call in _stream_calls(scope):
            label = _label_expr(call, _LABELED_STREAM_FNS[name])
            if label is None:
                continue  # splat or missing: nothing to reason about
            skeleton = _label_skeleton(label)
            if skeleton is None:
                yield _finding(
                    ctx,
                    label,
                    "rng-stream-labels",
                    f"{name}() label is not literal-derivable; use a string "
                    "constant or an f-string with a literal prefix so stream "
                    "identity is auditable",
                )
            elif skeleton == "" or skeleton == "{}":
                yield _finding(
                    ctx,
                    label,
                    "rng-stream-labels",
                    f"{name}() label has no distinguishing literal content",
                )
            elif (name, skeleton) in seen:
                yield _finding(
                    ctx,
                    label,
                    "rng-stream-labels",
                    f"{name}() label {skeleton!r} duplicates the label on "
                    f"line {seen[name, skeleton]} in the same scope; two "
                    "consumers would share one bit stream",
                )
            else:
                seen[name, skeleton] = label.lineno


# -- unit-suffix -------------------------------------------------------------

_CANONICAL_SUFFIXES = ("_usec", "_sec", "_bytes", "_pages")

#: Non-canonical unit suffix -> what to use instead.
_SUFFIX_ALIASES: Dict[str, str] = {
    "_us": "_usec",
    "_usecs": "_usec",
    "_microsec": "_usec",
    "_microseconds": "_usec",
    "_secs": "_sec",
    "_seconds": "_sec",
    "_ms": "_usec or _sec",
    "_msec": "_usec or _sec",
    "_msecs": "_usec or _sec",
    "_milliseconds": "_usec or _sec",
    "_ns": "_usec",
    "_nsec": "_usec",
    "_nsecs": "_usec",
    "_nanoseconds": "_usec",
    "_byte": "_bytes",
    "_kb": "_bytes",
    "_kib": "_bytes",
    "_mb": "_bytes",
    "_mib": "_bytes",
    "_gb": "_bytes",
    "_gib": "_bytes",
    "_page": "_pages",
}

#: All unit-ish suffixes, longest first, so ``_msec`` matches before
#: ``_sec`` and ``_milliseconds`` before ``_seconds``.
_ALL_SUFFIXES: Tuple[str, ...] = tuple(
    sorted(set(_CANONICAL_SUFFIXES) | set(_SUFFIX_ALIASES), key=len, reverse=True)
)


def _unit_suffix(name: str) -> Optional[str]:
    for suffix in _ALL_SUFFIXES:
        if name.endswith(suffix):
            return suffix
    return None


def _binding_names(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """Yield (node, name) for every binding a unit suffix applies to:
    function parameters, plain/annotated assignments, attribute stores."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            if args.vararg is not None:
                every.append(args.vararg)
            if args.kwarg is not None:
                every.append(args.kwarg)
            for arg in every:
                yield arg, arg.arg
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from _target_names(target)
        elif isinstance(node, ast.AnnAssign):
            yield from _target_names(node.target)


def _target_names(target: ast.expr) -> Iterator[Tuple[ast.AST, str]]:
    if isinstance(target, ast.Name):
        yield target, target.id
    elif isinstance(target, ast.Attribute):
        yield target, target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _sum_chain(
    node: ast.expr, leaves: List[ast.expr], chain: List[ast.expr]
) -> None:
    """Collect the direct Name/Attribute leaves of a +/- chain, plus every
    nested +/- node (conversions like ``x_sec * 1e6`` hide behind a Mult
    node and are correctly skipped)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        chain.append(node)
        _sum_chain(node.left, leaves, chain)
        _sum_chain(node.right, leaves, chain)
    elif isinstance(node, (ast.Name, ast.Attribute)):
        leaves.append(node)


def _time_unit(name: str) -> Optional[str]:
    suffix = _unit_suffix(name)
    if suffix in ("_usec", "_us", "_usecs", "_microsec", "_microseconds"):
        return "usec"
    if suffix in ("_ms", "_msec", "_msecs", "_milliseconds"):
        return "msec"
    if suffix in ("_sec", "_secs", "_seconds"):
        return "sec"
    return None


@rule(
    "unit-suffix",
    "quantities carry canonical unit suffixes (_usec/_sec/_bytes/_pages); "
    "never mix _usec and _sec in one expression",
)
def check_unit_suffix(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    for node, name in _binding_names(tree):
        suffix = _unit_suffix(name)
        if suffix is not None and suffix not in _CANONICAL_SUFFIXES:
            yield _finding(
                ctx,
                node,
                "unit-suffix",
                f"{name!r} uses non-canonical unit suffix {suffix!r}; "
                f"use {_SUFFIX_ALIASES[suffix]} (convert the value too)",
            )
    inner_chain_nodes: set = set()
    for node in ast.walk(tree):
        leaves: List[ast.expr] = []
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            # Only the outermost node of a +/- chain reports; nested chain
            # nodes (visited later — ast.walk is preorder) are skipped.
            if id(node) in inner_chain_nodes:
                continue
            chain: List[ast.expr] = []
            _sum_chain(node, leaves, chain)
            inner_chain_nodes.update(id(part) for part in chain if part is not node)
        elif isinstance(node, ast.Compare):
            for side in [node.left] + list(node.comparators):
                if isinstance(side, (ast.Name, ast.Attribute)):
                    leaves.append(side)
        if len(leaves) < 2:
            continue
        units: Dict[str, str] = {}
        for leaf in leaves:
            leaf_name = leaf.id if isinstance(leaf, ast.Name) else leaf.attr
            unit = _time_unit(leaf_name)
            if unit is not None:
                units[unit] = leaf_name
        if len(units) > 1:
            names = " and ".join(repr(units[key]) for key in sorted(units))
            yield _finding(
                ctx,
                node,
                "unit-suffix",
                f"expression mixes time units: {names} "
                "(convert to one unit before combining)",
            )


# -- no-mutable-default ------------------------------------------------------

_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)


def _is_mutable_default(node: ast.expr, imports: Dict[str, str]) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func, imports)
        return dotted in _MUTABLE_CALLS
    return False


@rule(
    "no-mutable-default",
    "default argument values must not be mutable objects",
)
def check_mutable_default(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    imports = _import_map(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_default(default, imports):
                label = getattr(node, "name", "<lambda>")
                yield _finding(
                    ctx,
                    default,
                    "no-mutable-default",
                    f"mutable default in {label}(); defaults are evaluated "
                    "once and shared across calls — use None and create "
                    "inside",
                )


# -- no-bare-assert ----------------------------------------------------------


@rule(
    "no-bare-assert",
    "assert statements vanish under python -O; raise typed errors in src",
)
def check_bare_assert(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    if ctx.path_matches(ctx.config.assert_allow):
        # pytest rewrites asserts in test modules, so they survive -O there;
        # the rule is about load-bearing checks in shipped code.
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield _finding(
                ctx,
                node,
                "no-bare-assert",
                "assert is stripped under -O; raise a typed error "
                "(or pragma with a justification) for load-bearing checks",
            )
