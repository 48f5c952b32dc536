"""``run_batch`` under failure: typed errors, row isolation, cache hygiene.

The contract: a failed, budget-tripped or cancelled row is captured in
its own :attr:`BatchResult.error` — sibling rows and the shared index
cache must be completely unaffected.
"""

from dataclasses import replace

import pytest

from repro.engine.cache import DocumentIndexCache
from repro.engine.faults import FaultInjector, FaultRule, inject
from repro.engine.limits import CancelToken, QueryBudget
from repro.errors import BudgetExceeded, EvaluationError, QueryCancelled
from repro.session import QuerySession

from .conftest import CHAIN_RULE, ONE_BINDING_RULE


@pytest.fixture
def session(doc):
    return QuerySession(doc, indexes=DocumentIndexCache())


def capped(session, budget):
    """The session defaults with ``budget`` for one call."""
    return replace(session.defaults, budget=budget)


class TestBudgetErrorRows:
    def test_tripped_rows_are_typed_and_isolated(self, session):
        # ONE_BINDING_RULE produces one binding; CHAIN_RULE produces one per
        # book — the cap splits them deterministically.
        results = session.run_batch(
            [ONE_BINDING_RULE, CHAIN_RULE, ONE_BINDING_RULE],
            options=capped(session, QueryBudget(max_bindings=5)),
        )
        ok_rows = [r for r in results if r.ok]
        failed = [r for r in results if not r.ok]
        assert [r.index for r in ok_rows] == [0, 2]
        assert [r.index for r in failed] == [1]
        row = failed[0]
        assert isinstance(row.error, BudgetExceeded)
        assert row.error.limit == "max_bindings"
        assert row.result is None
        # The error carries the row's own partial stats.
        assert row.error.stats is row.stats
        assert row.stats.extra.get("budget_exceeded") == 1
        # Siblings are untouched: results intact, no budget counters.
        for sibling in ok_rows:
            assert sibling.error is None
            assert sibling.result is not None
            assert "budget_exceeded" not in sibling.stats.extra

    def test_failed_row_does_not_poison_the_shared_cache(self, session):
        first = session.run_batch(
            [CHAIN_RULE, ONE_BINDING_RULE],
            options=capped(session, QueryBudget(max_bindings=5)),
        )
        assert not first[0].ok and first[1].ok
        # The cache was pre-warmed and survives the failed row: a rerun
        # without a budget takes pure cache hits and full results.
        second = session.run_batch([CHAIN_RULE, ONE_BINDING_RULE])
        assert all(r.ok for r in second)
        for row in second:
            # two hits per row: the plan-cache key lookup resolves the
            # index for its epoch, then the evaluator fetches it again
            assert row.stats.cache_misses == 0
            assert row.stats.cache_hits == 2
            assert row.stats.cache_misses == 0

    def test_partial_mode_rows_return_truncated_results(self, session):
        results = session.run_batch(
            [CHAIN_RULE],
            options=capped(
                session, QueryBudget(max_bindings=5, on_limit="partial")
            ),
        )
        (row,) = results
        assert row.ok
        assert row.result is not None
        assert row.stats.bindings_produced == 5
        assert row.stats.extra["truncated"] == 1


class TestCancellation:
    def test_shared_token_cancels_every_row(self, session):
        cancel = CancelToken()
        cancel.cancel()
        results = session.run_batch(
            [CHAIN_RULE, ONE_BINDING_RULE],
            options=capped(session, QueryBudget(deadline_ms=60_000)),
            cancel=cancel,
        )
        assert all(not r.ok for r in results)
        assert all(isinstance(r.error, QueryCancelled) for r in results)

    def test_cancel_mid_run_from_another_thread(self, big_doc):
        import threading

        session = QuerySession(big_doc, indexes=DocumentIndexCache())
        cancel = CancelToken()
        join_rule = (
            "query { book as B  * as C { title as T } where B.cites = C.id }"
            " construct { r { collect T } }"
        )
        timer = threading.Timer(0.02, cancel.cancel)
        timer.start()
        try:
            results = session.run_batch(
                [join_rule] * 4,
                options=capped(session, QueryBudget(deadline_ms=60_000)),
                cancel=cancel,
            )
        finally:
            timer.cancel()
        # Cooperative: every row either finished before the flag or
        # reports the typed cancellation — never a crash, never a hang.
        for row in results:
            assert row.ok or isinstance(row.error, QueryCancelled)
        assert cancel.cancelled()


class TestInjectedFaultRows:
    def test_one_faulty_row_leaves_siblings_standing(self, session):
        boom = FaultRule(
            site="construct",
            exception=EvaluationError("injected row fault"),
            max_fires=1,
        )
        with inject(FaultInjector(seed=3, rules=[boom])):
            # Serial workers: the first row to reach construct fails.
            results = session.run_batch(
                [ONE_BINDING_RULE, ONE_BINDING_RULE, ONE_BINDING_RULE], max_workers=1
            )
        failed = [r for r in results if not r.ok]
        assert len(failed) == 1
        assert failed[0].index == 0
        assert isinstance(failed[0].error, EvaluationError)
        assert "injected row fault" in str(failed[0].error)
        for row in results[1:]:
            assert row.ok and row.result is not None
