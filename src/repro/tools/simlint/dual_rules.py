"""The dual-path-parity rule: fast/slow twins must stay observably equal.

A performance fork leaves a fast variant beside a semantically identical
slow one (``Simulator.schedule_bulk`` amortises N× ``schedule``).  Their
equivalence is pinned by golden-trace tests — but a test only covers the
workload it runs.  This rule makes the contract *structural*: a function
annotated

    def schedule_bulk(self, entries):  # simlint: dual-of=Simulator.schedule
        ...

must, transitively through module-local calls, (a) emit the same set of
tracepoint events and (b) mutate the same set of ``self``-rooted
attributes as its registered twin.  Observability state is exempt — the
profiler/sanitizer counters (``self._prof``/``self._san``, the ``PROF``/
``SANITIZE``/``TRACE`` globals, and local aliases of them) are exactly the
*allowed* difference between a fast path and its instrumented twin.

The marker may sit on the ``def`` line, the line above it, or anywhere
inside the function body.  A marker naming a function the module does not
define is itself a finding: a parity contract nobody can check is worse
than none.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.tools.simlint.core import FileContext, Finding, iter_comments, rule
from repro.tools.simlint.rules import _finding
from repro.tools.simlint.symbols import FunctionInfo, ModuleIndex
from repro.tools.simlint.trace_rules import _event_of

_DUAL_RE = re.compile(r"#.*\bsimlint:\s*dual-of=([A-Za-z0-9_.]+)")

#: Attribute names on ``self`` that hold observability state.
_OBS_ATTRS = frozenset({"_prof", "_san", "_trace", "_tp"})
#: Module-global observability singletons.
_OBS_GLOBALS = frozenset({"PROF", "SANITIZE", "TRACE", "SPAN_EVENTS"})


def _markers(ctx: FileContext) -> Dict[int, str]:
    """Map 1-based line number -> dual-of target qualname.

    Comment tokens only (via :func:`iter_comments`): a marker quoted inside
    a docstring — like the one at the top of this file — must not register.
    """
    found: Dict[int, str] = {}
    for lineno, text in iter_comments(ctx.source):
        match = _DUAL_RE.search(text)
        if match is not None:
            found[lineno] = match.group(1)
    return found


def _attach(
    index: ModuleIndex, markers: Dict[int, str]
) -> Tuple[List[Tuple[FunctionInfo, str]], List[int]]:
    """Bind each marker to its function; return (pairs, orphan line numbers)."""
    pairs: List[Tuple[FunctionInfo, str]] = []
    orphans: List[int] = []
    for lineno, target in markers.items():
        owner: Optional[FunctionInfo] = None
        for info in index.functions.values():
            start = info.node.lineno  # type: ignore[attr-defined]
            end = getattr(info.node, "end_lineno", start)
            if start - 1 <= lineno <= end:
                owner = info
                break
        if owner is None:
            orphans.append(lineno)
        else:
            pairs.append((owner, target))
    return pairs, orphans


# -- transitive emit sets -----------------------------------------------------


def _emit_bindings(tree: ast.Module) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Recover name/attr -> event bindings, as trace_rules does in pass 1."""
    bound_names: Dict[str, str] = {}
    bound_attrs: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            resolved = _event_of(node.value)
            if resolved is None:
                continue
            event_name = resolved[0]
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound_names[target.id] = event_name
                elif isinstance(target, ast.Attribute):
                    bound_attrs[target.attr] = event_name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = list(args.posonlyargs) + list(args.args)
            for arg, default in zip(positional[-len(args.defaults):], args.defaults):
                resolved = _event_of(default)
                if resolved is not None:
                    bound_names[arg.arg] = resolved[0]
            for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                if kw_default is None:
                    continue
                resolved = _event_of(kw_default)
                if resolved is not None:
                    bound_names[arg.arg] = resolved[0]
    return bound_names, bound_attrs


def _emits(
    index: ModuleIndex,
    qualname: str,
    bound_names: Dict[str, str],
    bound_attrs: Dict[str, str],
) -> Set[str]:
    """Event names ``qualname`` transitively emits (module-local closure)."""
    events: Set[str] = set()
    for member in index.reach(qualname):
        for call, _callee in index.call_sites(member):
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
                continue
            base = func.value
            resolved = _event_of(base)
            if resolved is not None:
                events.add(resolved[0])
            elif isinstance(base, ast.Name) and base.id in bound_names:
                events.add(bound_names[base.id])
            elif isinstance(base, ast.Attribute) and base.attr in bound_attrs:
                events.add(bound_attrs[base.attr])
    return events


# -- transitive self-attribute mutation sets ----------------------------------


def _obs_aliases(info: FunctionInfo) -> Set[str]:
    """Local names bound to observability state (``prof = self._prof``)."""
    aliases: Set[str] = set()
    for node in info.own_nodes():
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_obs = (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in ("self", "cls")
            and value.attr in _OBS_ATTRS
        ) or (isinstance(value, ast.Name) and value.id in _OBS_GLOBALS)
        if not is_obs:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _mutation_targets(node: ast.AST) -> Iterable[ast.expr]:
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if not (isinstance(node, ast.AnnAssign) and node.value is None):
            yield node.target


def _mutations(index: ModuleIndex, qualname: str) -> Set[str]:
    """``self``-rooted attributes ``qualname`` transitively assigns,
    excluding observability state."""
    mutated: Set[str] = set()
    for member in index.reach(qualname):
        info = index.functions[member]
        aliases = _obs_aliases(info)
        for node in info.own_nodes():
            for target in _mutation_targets(node):
                while isinstance(target, ast.Subscript):
                    target = target.value
                # Walk the attribute chain down to its base Name,
                # remembering the component nearest the base — for
                # ``self._prof.heap_pops`` that is ``_prof``, the name
                # that decides counter vs observability.
                first_attr: Optional[str] = None
                chain = target
                while isinstance(chain, ast.Attribute):
                    first_attr = chain.attr
                    chain = chain.value
                if not isinstance(chain, ast.Name) or first_attr is None:
                    continue
                if chain.id in ("self", "cls"):
                    if first_attr not in _OBS_ATTRS:
                        mutated.add(first_attr)
                # Mutations through aliases / globals of observability
                # state are the allowed delta; every other non-self base
                # (locals, parameters) is out of scope for parity.
    return mutated


@rule(
    "dual-path-parity",
    "functions marked '# simlint: dual-of=<qualname>' must emit the same "
    "tracepoints and mutate the same self attributes as their twin",
)
def check_dual_path_parity(tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
    markers = _markers(ctx)
    if not markers:
        return
    index = ModuleIndex(tree)
    pairs, orphans = _attach(index, markers)
    for lineno in orphans:
        yield Finding(
            path=ctx.path,
            line=lineno,
            col=0,
            rule="dual-path-parity",
            message="dual-of marker is not attached to any function",
        )
    bound_names, bound_attrs = _emit_bindings(tree)
    for info, target in pairs:
        if target == info.qualname:
            yield _finding(
                ctx,
                info.node,
                "dual-path-parity",
                f"{info.qualname} is marked as its own dual",
            )
            continue
        if target not in index.functions:
            yield _finding(
                ctx,
                info.node,
                "dual-path-parity",
                f"dual-of target {target!r} is not defined in this module",
            )
            continue
        mine_emits = _emits(index, info.qualname, bound_names, bound_attrs)
        twin_emits = _emits(index, target, bound_names, bound_attrs)
        if mine_emits != twin_emits:
            only_mine = sorted(mine_emits - twin_emits)
            only_twin = sorted(twin_emits - mine_emits)
            yield _finding(
                ctx,
                info.node,
                "dual-path-parity",
                f"{info.qualname} and {target} emit different tracepoint "
                f"sets (only {info.qualname}: {only_mine}; only {target}: "
                f"{only_twin})",
            )
        mine_attrs = _mutations(index, info.qualname)
        twin_attrs = _mutations(index, target)
        if mine_attrs != twin_attrs:
            only_mine = sorted(mine_attrs - twin_attrs)
            only_twin = sorted(twin_attrs - mine_attrs)
            yield _finding(
                ctx,
                info.node,
                "dual-path-parity",
                f"{info.qualname} and {target} mutate different attribute "
                f"sets (only {info.qualname}: {only_mine}; only {target}: "
                f"{only_twin})",
            )
