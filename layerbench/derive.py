"""wglog-derive: WG-Log embedding queries and the ``reach`` fixpoint.

Each op works on a fresh pre-built copy of a 100-page site graph: three
schema-checked embedding queries through ``wglog.query`` (an indexed
size filter, a link triangle and a sibling join), then the two-rule
transitive closure through ``wglog.apply_program``.  It shares no parse,
index, construct or serialize work with the XML-GL workloads.

The graph has the shape of ``site_graph(100, seed=0)`` on every seed.
The cost of the closure depends on the random link structure far more
than on anything else (0.16 s to 0.80 s over structure seeds 0 to 9), so
a seed-dependent structure would make every bound meaningless.  The run
seed instead renames and reorders every node and edge and redraws every
slot value, which changes the order in which the matcher meets them and
the answers of the size-filtered queries, but not the closure's size.
"""

from __future__ import annotations

import time
from pathlib import Path

from harness import (
    Context, OpClock, Outcome, Part, measure_in_hash_orders, outcome_of_parts,
    part_main, ratio,
)

from repro.engine.stats import EvalStats
from repro.wglog import InstanceGraph, apply_program, apply_rule, parse_wglog, query
from repro.workloads import site_graph
from repro.workloads.generator import Rng

PAGES = 100
SHAPE_SEED = 0
MAX_ROUNDS = 100
SETUP_REPEATS = 21
COPIES_PER_BATCH = 8

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

QUERY_RULES = 3


def site(seed: int) -> InstanceGraph:
    """The fixed-shape site, renamed, reordered and re-valued by ``seed``."""
    shape = site_graph(PAGES, seed=SHAPE_SEED)
    rng = Rng(seed)
    entities = shape.entities()
    names = dict(zip(entities, rng.sample([f"n{k}" for k in range(len(entities))],
                                          len(entities))))
    instance = InstanceGraph()
    for entity in rng.sample(entities, len(entities)):
        label = shape.label(entity)
        node = instance.add_entity(label, names[entity])
        instance.add_slot(node, "title", rng.words(3))
        if label == "Page":
            instance.add_slot(node, "size", rng.integer(1, 500))
    edges = [
        (edge.source, edge.target, edge.label)
        for edge in shape.relationship_edges()
    ]
    for source, target, label in rng.sample(edges, len(edges)):
        instance.relate(names[source], names[target], label)
    return instance


# -- the bench-side oracle -----------------------------------------------------


def expected_answers(instance: InstanceGraph) -> tuple[list[int], set]:
    """Binding counts of the three queries and the ``reach`` pair set."""
    pages = set(instance.entities("Page"))
    size = {page: instance.slot_value(page, "size") for page in pages}
    indexed = {
        index: [e.target for e in instance.relationships(index, "index")
                if e.target in pages]
        for index in instance.entities("Index")
    }
    links = {
        page: {e.target for e in instance.relationships(page, "link")
               if e.target in pages}
        for page in pages
    }
    big = sum(1 for members in indexed.values() for page in set(members)
              if size[page] > 250)
    triangle = sum(
        len(links[b] & links[a]) for a in pages for b in links[a]
    )
    siblings = sum(
        1 for members in indexed.values()
        for first in set(members) for second in set(members)
        if size[first] < size[second]
    )
    reach = set()
    for start in pages:
        frontier = list(links[start])
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            for target in links[node]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        reach.update((start, target) for target in seen)
    return [big, triangle, siblings], reach


def _reach_pairs(instance: InstanceGraph) -> set:
    return {
        (edge.source, edge.target)
        for edge in instance.relationship_edges()
        if edge.label == "reach"
    }


# -- the workload --------------------------------------------------------------


class _Copies:
    """Fresh copies of the site, made in batches outside the timed ops."""

    def __init__(self, pristine: InstanceGraph) -> None:
        self._pristine = pristine
        self._ready: list[InstanceGraph] = []

    def take(self) -> InstanceGraph:
        if not self._ready:
            self._ready = [self._pristine.copy() for _ in range(COPIES_PER_BATCH)]
        return self._ready.pop()


class Fixture:
    """The seeded site, its expected answers and the parsed program."""

    def __init__(self, seed: int) -> None:
        self.pristine = site(seed)
        self.counts, self.reach = expected_answers(self.pristine)
        self.copies = _Copies(self.pristine)
        self.problems: list[str] = []
        self.setup_clock = OpClock()
        for _ in range(SETUP_REPEATS):
            start = time.monotonic()
            started = time.perf_counter()
            schema, rules = parse_wglog(PROGRAM)
            violations = schema.conform(self.pristine)
            self.setup_clock.record(start, time.perf_counter() - started)
        if violations:
            self.problems.append(f"schema conformance: {violations[:3]}")
        self.schema = schema
        self.queries, self.closure = rules[:QUERY_RULES], rules[QUERY_RULES:]

    def check(self, label: str, answers: list[int], instance: InstanceGraph) -> bool:
        if answers != self.counts or _reach_pairs(instance) != self.reach:
            self.problems.append(
                f"{label}: answers {answers} (expected {self.counts}) or "
                "reach edges differ from a breadth-first search over link edges"
            )
            return False
        return True

    def plain_op(self, label: str) -> tuple[bool, float, float]:
        """One untraced op on a fresh copy: queries, then ``apply_program``.

        Returns ``(correct, time.monotonic() at its start, seconds)``.
        """
        instance = self.copies.take()
        start = time.monotonic()
        started = time.perf_counter()
        answers = [
            len(query(rule, instance, schema=self.schema))
            for rule in self.queries
        ]
        apply_program(instance, self.closure, max_rounds=MAX_ROUNDS)
        seconds = time.perf_counter() - started
        return self.check(label, answers, instance), start, seconds

    def measure(self, seconds: float) -> Part:
        """The untraced ops for ``seconds``."""
        clock = OpClock()
        failed = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not clock.raw:
            correct, start, op_seconds = self.plain_op(f"op {len(clock.raw) + 1}")
            clock.record(start, op_seconds)
            failed += not correct
        return Part.of(clock, self.setup_clock, failed, self.problems)


def run(ctx: Context) -> Outcome:
    if not ctx.trace:
        return outcome_of_parts(*measure_in_hash_orders(ctx, Path(__file__)))

    # Traced run: half the time untraced in this process, then the same
    # ops with the fixpoint round by round through ``apply_rule``.  Each
    # traced op is paired with one untraced op (alternately before and
    # after it) for the untraced time of the overhead ratio.
    fixture = Fixture(ctx.seed)
    plain = fixture.measure(ctx.seconds / 2)
    attempted = len(plain.raw)
    outcome = Outcome(
        attempted=attempted, failed=plain.failed, problems=fixture.problems
    )
    tracer = ctx.tracer
    rounds = additions = embeddings = 0
    plain_seconds = []
    for position in range(attempted):
        label = f"traced op {position}"
        if position % 2:
            correct, _, plain_s = fixture.plain_op(label)
        instance = fixture.copies.take()
        tracer.op = position
        stats = EvalStats()
        with tracer.span("op"):
            answers = []
            for rule in fixture.queries:
                with tracer.span("wglog.query"):
                    answers.append(
                        len(query(rule, instance, schema=fixture.schema))
                    )
            with tracer.span("wglog.fixpoint"):
                for _ in range(MAX_ROUNDS):
                    rounds += 1
                    added = 0
                    with tracer.span("wglog.round"):
                        for rule in fixture.closure:
                            with tracer.span("wglog.apply_rule"):
                                added += apply_rule(instance, rule, stats=stats)
                    additions += added
                    if added == 0:
                        break
        embeddings += stats.bindings_produced
        if not position % 2:
            correct, _, plain_s = fixture.plain_op(label)
        plain_seconds.append(plain_s)
        outcome.failed += not (fixture.check(label, answers, instance) and correct)
    outcome.attempted += attempted
    outcome.notes = {"ops": attempted, "reach_edges": len(fixture.reach)}
    outcome.per_layer = {
        "wglog.query_s": sum(tracer.durations("wglog.query")) / attempted,
        "wglog.fixpoint_s": sum(tracer.durations("wglog.fixpoint")) / attempted,
        "wglog.rounds": rounds / attempted,
        "wglog.embeddings": embeddings / attempted,
        "wglog.additions": additions / attempted,
        "wglog.useful_ratio": ratio(additions, embeddings),
        "bench.trace_overhead_ratio": ratio(
            sum(tracer.durations("op")), sum(plain_seconds)
        ),
    }
    return outcome


if __name__ == "__main__":
    part_main(lambda seed, seconds, _shared: Fixture(seed).measure(seconds))
