"""Budget enforcement: deadlines, work caps, truncation, degradation.

The contract under test (DESIGN.md § Resource governance):

* limits trip as typed errors carrying the partial ``EvalStats``;
* ``on_limit="partial"`` returns well-formed truncated results, flagged;
* ``max_hashjoin_rows`` degrades fragments instead of failing them, with
  identical results to the unbudgeted run;
* an unbudgeted run does byte-identical work (pay-for-use).
"""

import time
from dataclasses import replace

import pytest

from repro.engine.cache import DocumentIndexCache
from repro.engine.limits import QueryBudget, arm_budget, truncate_element
from repro.engine.options import ExecOptions
from repro.engine.stats import EvalStats
from repro.errors import BudgetExceeded, DeadlineExceeded
from repro.ssd.model import Element
from repro.xmlgl.dsl import parse_rule
from repro.xmlgl.evaluator import evaluate_rule, rule_bindings

from .conftest import CHAIN_RULE, JOIN_RULE


def budgeted(**limits):
    """Default options governed by ``QueryBudget(**limits)``."""
    return ExecOptions(budget=QueryBudget(**limits))


class TestBudgetValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_limit"):
            QueryBudget(on_limit="explode")

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="max_work"):
            QueryBudget(max_work=-1)

    def test_empty_budget_is_legal(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        result = evaluate_rule(rule, doc, options=budgeted(), indexes=indexes)
        assert result.size() > 1


class TestDeadline:
    def test_deadline_trips_promptly_with_partial_stats(self, big_doc, indexes):
        rule = parse_rule(JOIN_RULE)
        stats = EvalStats()
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded) as info:
            evaluate_rule(
                rule, big_doc, options=budgeted(deadline_ms=25),
                stats=stats, indexes=indexes,
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        exc = info.value
        assert exc.limit == "deadline_ms"
        assert exc.allowed == 25
        assert exc.spent >= 25
        # The partial stats ride on the error: work was done, then stopped.
        assert exc.stats is stats
        assert stats.extra.get("budget_exceeded") == 1
        # Cooperative checks are strided, not per-instruction: generous
        # bound, but far below an unbudgeted run-away.
        assert elapsed_ms < 2000

    def test_deadline_is_a_budget_error(self):
        assert issubclass(DeadlineExceeded, BudgetExceeded)


class TestWorkCap:
    def test_max_work_trips_exactly_once_over(self, doc, indexes):
        rule = parse_rule(JOIN_RULE)
        with pytest.raises(BudgetExceeded) as info:
            evaluate_rule(
                rule, doc, options=budgeted(max_work=100), indexes=indexes
            )
        exc = info.value
        assert exc.limit == "max_work"
        assert exc.allowed == 100
        assert exc.spent > 100


class TestBindingsCap:
    def test_raise_mode(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        with pytest.raises(BudgetExceeded) as info:
            rule_bindings(
                rule, doc, options=budgeted(max_bindings=10), indexes=indexes
            )
        assert info.value.limit == "max_bindings"

    def test_partial_mode_holds_exactly_the_cap(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        baseline = rule_bindings(rule, doc, indexes=indexes)
        assert len(baseline) > 10
        stats = EvalStats()
        partial = rule_bindings(
            rule, doc,
            options=budgeted(max_bindings=10, on_limit="partial"),
            stats=stats, indexes=indexes,
        )
        assert len(partial) == 10
        assert stats.extra["truncated"] == 1
        assert stats.extra["truncated_by_max_bindings"] == 1
        assert stats.extra["truncated_results"] == 1


class TestResultNodesCap:
    def test_raise_mode(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        with pytest.raises(BudgetExceeded) as info:
            evaluate_rule(
                rule, doc, options=budgeted(max_result_nodes=5),
                indexes=indexes,
            )
        assert info.value.limit == "max_result_nodes"

    def test_partial_mode_prunes_to_the_cap(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        full = evaluate_rule(rule, doc, indexes=indexes)
        assert full.size() > 20
        stats = EvalStats()
        result = evaluate_rule(
            rule, doc,
            options=budgeted(max_result_nodes=20, on_limit="partial"),
            stats=stats, indexes=indexes,
        )
        assert result.size() <= 20
        assert result.tag == full.tag  # root survives: well-formed prefix
        assert stats.extra["truncated"] == 1
        assert stats.extra["truncated_by_max_result_nodes"] == 1


class TestDegradation:
    def test_row_cap_degrades_with_identical_results(self, doc, indexes):
        rule = parse_rule(JOIN_RULE)
        baseline = rule_bindings(rule, doc, indexes=indexes)
        stats = EvalStats()
        degraded = rule_bindings(
            rule, doc, options=budgeted(max_hashjoin_rows=20),
            stats=stats, indexes=indexes,
        )
        assert stats.extra.get("degraded_fragments", 0) >= 1
        assert stats.extra.get("fallback_budget", 0) >= 1
        assert stats.pipeline_fallbacks >= 1
        # Degradation is a plan change, never a result change.
        assert len(degraded) == len(baseline)

    def test_degraded_fragment_still_applies_pushed_conditions(
        self, doc, indexes
    ):
        # The pipeline pushes the single-box ``Y >= 1995`` filter into B's
        # candidate pool (consuming it from the final filter); a degraded
        # fragment runs on the backtracking core, which never sees pool
        # filters — the fallback must re-apply them.
        rule = parse_rule(
            "query { book as B { title as T  @year as Y } where Y >= 1995 }"
            " construct { r { collect T } }"
        )
        baseline = rule_bindings(rule, doc, indexes=indexes)
        stats = EvalStats()
        degraded = rule_bindings(
            rule, doc, options=budgeted(max_hashjoin_rows=10),
            stats=stats, indexes=indexes,
        )
        assert stats.extra.get("degraded_fragments", 0) >= 1
        assert len(degraded) == len(baseline)

    def test_degradation_visible_in_explain(self, doc):
        from repro.engine.options import MatchOptions
        from repro.explain import explain

        report = explain(
            parse_rule(JOIN_RULE), doc,
            options=MatchOptions(engine="pipeline"),
            indexes=DocumentIndexCache(),
        )
        # Unbudgeted: the join fragment runs on the pipeline...
        decisions = {
            f.decision for g in report.graphs for f in g.fragments
        }
        assert "pipeline" in decisions
        # ...and under a row cap the same fragment reports the budget
        # fallback reason.
        capped = explain(
            parse_rule(JOIN_RULE), doc,
            options=MatchOptions(
                engine="pipeline", budget=QueryBudget(max_hashjoin_rows=20)
            ),
            indexes=DocumentIndexCache(),
        )
        reasons = {
            (f.decision, f.reason)
            for g in capped.graphs
            for f in g.fragments
        }
        assert ("fallback", "budget") in reasons


    def test_wglog_row_cap_degrades_with_identical_embeddings(self):
        from repro.engine.options import MatchOptions
        from repro.wglog import parse_rule as parse_wglog_rule
        from repro.wglog import query
        from repro.workloads import site_graph

        # Two index edges out of one Index: a forest the pipeline joins
        # set-at-a-time, with far more than 20 relation pairs and rows.
        rule = parse_wglog_rule(
            "rule r { match { i: Index  p1: Page  p2: Page"
            "  i -index-> p1  i -index-> p2 } }"
        )
        instance = site_graph(30, seed=0)
        options = MatchOptions(engine="pipeline")
        baseline = query(rule, instance, options=options)
        stats = EvalStats()
        degraded = query(
            rule, instance, stats=stats,
            options=replace(options, budget=QueryBudget(max_hashjoin_rows=20)),
        )
        assert stats.extra.get("fallback_budget", 0) >= 1
        assert stats.extra.get("degraded_fragments", 0) >= 1

        def embeddings(bindings):
            return sorted(tuple(sorted(b.items())) for b in bindings)

        assert len(baseline) > 20
        assert embeddings(degraded) == embeddings(baseline)


class TestZeroOverhead:
    def test_unbudgeted_and_generous_budget_do_identical_work(self, doc):
        rule = parse_rule(JOIN_RULE)
        plain = EvalStats()
        evaluate_rule(rule, doc, stats=plain, indexes=DocumentIndexCache())
        generous = EvalStats()
        evaluate_rule(
            rule, doc,
            options=budgeted(
                deadline_ms=3_600_000, max_work=10**12,
                max_bindings=10**9, max_result_nodes=10**9,
                max_hashjoin_rows=10**12,
            ),
            stats=generous, indexes=DocumentIndexCache(),
        )
        a, b = plain.as_dict(), generous.as_dict()
        a.pop("seconds"), b.pop("seconds")
        assert a == b

    def test_no_budget_means_no_state(self, doc, indexes):
        stats = EvalStats()
        evaluate_rule(
            parse_rule(CHAIN_RULE), doc, stats=stats, indexes=indexes
        )
        assert stats.budget is None


class TestArming:
    def test_outermost_arm_wins(self):
        stats = EvalStats()
        first = arm_budget(stats, QueryBudget(max_work=10))
        second = arm_budget(stats, QueryBudget(max_work=99999))
        assert second is first
        assert stats.budget.budget.max_work == 10

    def test_arming_nothing_is_none(self):
        stats = EvalStats()
        assert arm_budget(stats, None) is None
        assert stats.budget is None


class TestTruncateElement:
    def _tree(self):
        root = Element("r")
        for i in range(5):
            child = Element("c")
            child.append(f"text-{i}")
            root.append(child)
        return root

    def test_prunes_to_cap_keeping_prefix(self):
        root = self._tree()
        before = root.size()
        dropped = truncate_element(root, 5)
        assert root.size() <= 5
        assert dropped == before - root.size()
        # Document-order prefix: the first child survives intact.
        assert root.children[0].text_content() == "text-0"

    def test_root_always_survives(self):
        root = self._tree()
        truncate_element(root, 0)
        assert root.tag == "r"
        assert root.size() == 1
