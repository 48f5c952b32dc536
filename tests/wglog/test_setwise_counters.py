"""Golden counters for the set-wise WG-Log matcher.

The five rules of the ``wglog-derive`` workload run on
``site_graph(100, seed=0)`` under the default ``pipeline`` engine.  The
binding counts and work counters below are golden values:
a change to how many pairs the set-wise matcher materialises, how many
candidates its semi-joins drop or which route a fragment takes shows up
here as a changed number.  ``step`` also runs after the ``reach``
closure, where it has bindings to join.  The pipeline counters depend on
the join order, whose ties follow the rule's declaration order, so they
are the same under every hash seed.
"""

import pytest

from repro.engine import EvalStats
from repro.engine.options import MatchOptions
from repro.wglog import apply_program, parse_wglog, query
from repro.workloads import site_graph

PROGRAM = """
schema {
  entity Page { title: string required, size: int }
  entity Index { title: string }
  relation Index -index-> Page
  relation Index -index-> Index
  relation Page -link-> Page
  relation Page -link-> Index
}
rule big {
  match { i: Index  p: Page  i -index-> p }
  where p.size > 250
}
rule triangle {
  match { a: Page  b: Page  c: Page  a -link-> b  b -link-> c  a -link-> c }
}
rule siblings {
  match { i: Index  p1: Page  p2: Page  i -index-> p1  i -index-> p2 }
  where p1.size < p2.size
}
rule base {
  match { a: Page  b: Page  a -link-> b }
  construct { a -reach-> b }
}
rule step {
  match { a: Page  b: Page  c: Page  a -reach-> b  b -link-> c }
  construct { a -reach-> c }
}
"""

SCHEMA, RULES = parse_wglog(PROGRAM)
BY_NAME = {rule.name: rule for rule in RULES}
#: Rules whose edges the schema declares; ``reach`` is derived.
SCHEMA_CHECKED = {"big", "triangle", "siblings"}

COUNTERS = (
    "edge_checks",
    "relation_pairs",
    "hashjoin_rows",
    "semijoins",
    "semijoin_dropped",
    "pipeline_fragments",
    "pipeline_fallbacks",
)

# (bindings, edge_checks, relation_pairs, hashjoin_rows, semijoins,
#  semijoin_dropped, pipeline_fragments, pipeline_fallbacks), extras
PIPELINE = {
    ("big", False): ((56, 1, 100, 110, 2, 0, 1, 0), {}),
    ("triangle", False): ((3, 0, 0, 0, 0, 0, 0, 1), {"fallback_cyclic": 1}),
    ("siblings", False): ((467, 2, 200, 1144, 4, 0, 1, 0), {}),
    ("base", False): ((131, 1, 131, 200, 2, 54, 1, 0), {}),
    ("step", False): ((0, 1, 0, 0, 0, 0, 1, 0), {}),
    ("step", True): ((3304, 2, 2655, 5039, 4, 116, 1, 0), {}),
}

CASES = [
    pytest.param(engine, name, closed, expected, id=f"{engine}-{name}"
                 + ("-closed" if closed else ""))
    for engine, table in (("pipeline", PIPELINE),)
    for (name, closed), expected in table.items()
]


@pytest.fixture(scope="module")
def sites():
    plain = site_graph(100, seed=0)
    closed = site_graph(100, seed=0)
    apply_program(closed, [BY_NAME["base"], BY_NAME["step"]])
    return {False: plain, True: closed}


@pytest.mark.parametrize("engine, name, closed, expected", CASES)
def test_counters_match_the_recorded_values(sites, engine, name, closed, expected):
    (bindings, *counters), extras = expected
    stats = EvalStats()
    result = query(
        BY_NAME[name],
        sites[closed],
        schema=SCHEMA if name in SCHEMA_CHECKED else None,
        stats=stats,
        options=MatchOptions(engine=engine),
    )
    assert len(result) == bindings
    assert {c: getattr(stats, c) for c in COUNTERS} == dict(zip(COUNTERS, counters))
    assert {
        key: value
        for key, value in stats.extra.items()
        if key.startswith("fallback_")
    } == extras
