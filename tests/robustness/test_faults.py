"""Fault injection at named span sites: deterministic chaos, clean recovery.

:mod:`repro.engine.faults` piggybacks on the stable span-site taxonomy —
every evaluation stage announces its name through the trace hook, and an
installed :class:`FaultInjector` can sleep or raise there.  These tests
pin the seeds; CI replays them identically.
"""

import pytest

from repro.engine import trace as trace_module
from repro.engine.faults import FaultInjector, FaultRule, inject
from repro.engine.limits import QueryBudget
from repro.engine.options import ExecOptions
from repro.engine.stats import EvalStats
from repro.errors import DeadlineExceeded, EvaluationError
from repro.xmlgl.dsl import parse_rule
from repro.xmlgl.evaluator import evaluate_rule

from .conftest import CHAIN_RULE


class TestInjector:
    def test_sites_fire_without_tracing(self, doc, indexes):
        with inject(FaultInjector(seed=0)) as injector:
            evaluate_rule(parse_rule(CHAIN_RULE), doc, indexes=indexes)
        assert "match" in injector.sites_seen
        assert "construct" in injector.sites_seen
        assert "preflight" in injector.sites_seen

    def test_seeded_probability_is_deterministic(self, doc, indexes):
        def fires(seed):
            rule = FaultRule(site="match.fragment", probability=0.5)
            with inject(FaultInjector(seed=seed, rules=[rule])) as injector:
                for _ in range(10):
                    evaluate_rule(
                        parse_rule(CHAIN_RULE), doc, indexes=indexes
                    )
            return rule.fired, list(injector.sites_seen)

        # Same seed, same arrival order -> identical draws and fire count.
        assert fires(7) == fires(7)

    def test_exception_at_named_site(self, doc, indexes):
        boom = FaultRule(
            site="construct", exception=EvaluationError("injected fault")
        )
        with inject(FaultInjector(seed=0, rules=[boom])):
            with pytest.raises(EvaluationError, match="injected fault"):
                evaluate_rule(parse_rule(CHAIN_RULE), doc, indexes=indexes)
        assert boom.fired == 1

    def test_hook_restored_after_block(self, doc, indexes):
        previous = trace_module._SITE_HOOK
        with inject(FaultInjector(seed=0)):
            assert trace_module._SITE_HOOK is not previous
        assert trace_module._SITE_HOOK is previous

    def test_max_fires_allows_recovery(self, doc, indexes):
        flaky = FaultRule(
            site="match",
            exception=EvaluationError("transient"),
            max_fires=1,
        )
        with inject(FaultInjector(seed=0, rules=[flaky])):
            with pytest.raises(EvaluationError, match="transient"):
                evaluate_rule(parse_rule(CHAIN_RULE), doc, indexes=indexes)
            # Rule exhausted: the retry sails through untouched.
            result = evaluate_rule(
                parse_rule(CHAIN_RULE), doc, indexes=indexes
            )
        assert flaky.fired == 1
        assert flaky.exhausted()
        assert result.size() > 1


class TestFaultsMeetBudgets:
    def test_injected_delay_trips_the_deadline(self, doc, indexes):
        slow = FaultRule(site="match", delay_ms=80)
        stats = EvalStats()
        with inject(FaultInjector(seed=0, rules=[slow])):
            with pytest.raises(DeadlineExceeded):
                evaluate_rule(
                    parse_rule(CHAIN_RULE), doc,
                    options=ExecOptions(budget=QueryBudget(deadline_ms=20)),
                    stats=stats, indexes=indexes,
                )
        assert stats.extra.get("budget_exceeded") == 1

    def test_partial_mode_survives_a_slow_stage(self, doc, indexes):
        # Same slow stage, but on_limit="partial": the deadline trip is
        # absorbed into a truncated (here: empty-so-far) result instead of
        # an error — degradation, not failure.
        slow = FaultRule(site="match", delay_ms=80)
        stats = EvalStats()
        with inject(FaultInjector(seed=0, rules=[slow])):
            result = evaluate_rule(
                parse_rule(CHAIN_RULE), doc,
                options=ExecOptions(
                    budget=QueryBudget(deadline_ms=20, on_limit="partial")
                ),
                stats=stats, indexes=indexes,
            )
        assert stats.extra["truncated"] == 1
        assert stats.extra["truncated_by_deadline_ms"] == 1
        assert result.tag  # well-formed result element, however empty
