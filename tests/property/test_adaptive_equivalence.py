"""Hypothesis property: the adaptive engine is invisible in results.

The cost model (repro.engine.planner.choose_fragment_engine) may only
change *how* a fragment is evaluated — set-at-a-time pipeline vs
node-at-a-time backtracking — never *what* it returns.  Hypothesis draws
a seed for the same randomized document/query generators the seeded
equivalence suite uses (negation, ordered arcs, or-groups, cyclic
skeletons, equi-joins), and the adaptive binding multiset must equal both
forced engines' on every draw.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.engine.options import MatchOptions
from repro.engine.stats import EvalStats
from repro.xmlgl.matcher import match

from .test_matcher_equivalence import (
    binding_multiset,
    random_document,
    random_query,
)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_adaptive_agrees_with_both_forced_engines(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    graph = random_query(rng)
    adaptive = binding_multiset(
        match(graph, document, options=MatchOptions(engine="adaptive"))
    )
    for forced in ("pipeline", "backtracking"):
        assert adaptive == binding_multiset(
            match(graph, document, options=MatchOptions(engine=forced))
        ), f"seed {seed}: adaptive diverged from {forced}"


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_adaptive_decisions_are_accounted(seed):
    """Every coverable fragment an adaptive run evaluates shows up in the
    decision counters (hard-fallback fragments are counted separately)."""
    rng = random.Random(seed)
    document = random_document(rng)
    graph = random_query(rng)
    stats = EvalStats()
    bindings = match(
        graph, document, options=MatchOptions(engine="adaptive"), stats=stats
    )
    decided = stats.extra.get("adaptive_pipeline", 0) + stats.extra.get(
        "adaptive_backtracking", 0
    )
    # a producing run evaluated at least one fragment, and every fragment
    # either took a cost decision or a hard (shape/budget) fallback
    if bindings:
        assert decided + stats.pipeline_fallbacks >= 1
    # cost decisions never coexist with a forced engine's counters
    assert stats.extra.get("adaptive_pipeline", 0) <= stats.pipeline_fragments
