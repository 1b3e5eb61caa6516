"""simlint v2: the stream-label rule and the pragma ledger.

Same fixture style as test_simlint.py — every rule gets planted
violations that must be flagged, clean variants that must pass, and
pragma interactions — plus the tokenizer-level edge cases (pragmas in
docstrings, pragmas on decorator lines).
"""

import textwrap

from repro.tools.simlint import RULES, LintConfig, lint_source


def findings_for(source, rule=None, path="snippet.py"):
    config = LintConfig(select=[rule] if rule else None)
    return lint_source(textwrap.dedent(source), path, config)


class TestRegistryV2:
    def test_v2_rules_registered(self):
        assert {"rng-stream-labels", "unused-pragma"} <= set(RULES)
        assert len(RULES) == 8  # docs/STATIC_ANALYSIS.md lists each one


class TestRngStreamLabels:
    def test_non_literal_label_flagged(self):
        found = findings_for(
            """
            def f(bed, name):
                return bed.rng_for(name)
            """,
            rule="rng-stream-labels",
        )
        assert len(found) == 1 and "literal-derivable" in found[0].message

    def test_fstring_without_literal_prefix_flagged(self):
        found = findings_for(
            """
            def f(bed, name):
                return bed.rng_for(f"{name}")
            """,
            rule="rng-stream-labels",
        )
        assert len(found) == 1

    def test_empty_label_flagged(self):
        found = findings_for(
            """
            def f(bed):
                return bed.rng_for("")
            """,
            rule="rng-stream-labels",
        )
        assert len(found) == 1 and "no distinguishing literal" in found[0].message

    def test_duplicate_label_in_scope_flagged(self):
        found = findings_for(
            """
            def f(bed):
                a = bed.rng_for("device:vda")
                b = bed.rng_for("device:vda")
                return a, b
            """,
            rule="rng-stream-labels",
        )
        assert len(found) == 1 and "share one bit stream" in found[0].message

    def test_duplicate_fstring_skeleton_flagged(self):
        # Same template, different interpolated names: statically the same
        # collision risk class, so it is flagged.
        found = findings_for(
            """
            def f(bed, a, b):
                x = bed.rng_for(f"dev:{a}")
                y = bed.rng_for(f"dev:{b}")
                return x, y
            """,
            rule="rng-stream-labels",
        )
        assert len(found) == 1

    def test_same_label_in_different_scopes_passes(self):
        assert not findings_for(
            """
            def f(bed):
                return bed.rng_for("gc")

            def g(bed):
                return bed.rng_for("gc")
            """,
            rule="rng-stream-labels",
        )

    def test_noise_stream_label_is_second_argument(self):
        found = findings_for(
            """
            def f(rng, name):
                return noise_stream(rng, name)
            """,
            rule="rng-stream-labels",
        )
        assert len(found) == 1
        assert not findings_for(
            """
            def f(rng):
                return noise_stream(rng, "gc_stall")
            """,
            rule="rng-stream-labels",
        )

    def test_distinct_literal_labels_pass(self):
        assert not findings_for(
            """
            def f(bed):
                a = bed.rng_for("device:vda")
                b = bed.rng_for("device:vdb")
                return a, b
            """,
            rule="rng-stream-labels",
        )


class TestUnusedPragma:
    def test_dead_pragma_flagged(self):
        found = findings_for(
            "x = 1  # simlint: disable=no-wallclock\n",
        )
        assert [f.rule for f in found] == ["unused-pragma"]
        assert "suppresses nothing" in found[0].message

    def test_dead_disable_all_flagged(self):
        # A dead ``all`` must not self-suppress via its own "all".
        found = findings_for("x = 1  # simlint: disable=all\n")
        assert [f.rule for f in found] == ["unused-pragma"]

    def test_unknown_rule_name_flagged(self):
        found = findings_for("x = 1  # simlint: disable=no-such-rule\n")
        assert [f.rule for f in found] == ["unused-pragma"]
        assert "unknown rule" in found[0].message

    def test_used_pragma_passes(self):
        assert not findings_for(
            "import time\nstart = time.time()  # simlint: disable=no-wallclock\n",
        )

    def test_pragma_on_line_above_counts_as_used(self):
        assert not findings_for(
            "import time\n# simlint: disable=no-wallclock\nstart = time.time()\n",
        )

    def test_explicit_unused_pragma_optout(self):
        assert not findings_for(
            "x = 1  # simlint: disable=no-wallclock,unused-pragma\n",
        )

    def test_disabled_rule_pragma_not_flagged(self):
        # A pragma for a rule not enabled this run could not have fired;
        # flagging it would punish running with --select.
        config = LintConfig(select=["unused-pragma"])
        found = lint_source(
            "x = 1  # simlint: disable=no-wallclock\n", "snippet.py", config
        )
        assert not found


class TestPragmaTokenization:
    def test_pragma_inside_docstring_does_not_suppress(self):
        # The pragma text sits in a string literal on the line above the
        # violation; a raw line scan would treat it as a suppression.
        found = findings_for(
            'import time\nDOC = """simlint: disable=no-wallclock"""\nstart = time.time()\n',
            rule="no-wallclock",
        )
        assert len(found) == 1

    def test_pragma_inside_docstring_not_flagged_as_unused(self):
        assert not findings_for('DOC = """simlint: disable=no-wallclock"""\n')

    def test_pragma_on_decorator_line(self):
        # A def-anchored finding (the FunctionDef node's lineno is the
        # ``def`` line, below any decorators) is suppressed by a pragma on
        # the decorator line directly above it.
        assert not findings_for(
            """
            def deco(fn):
                return fn

            @deco  # simlint: disable=no-mutable-default
            def f(x=[]):
                return x
            """,
            rule="no-mutable-default",
        )
