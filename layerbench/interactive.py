"""xmlgl-interactive: the refine-and-rerun loop over warm caches.

One closed-loop client runs a fixed rotation of seven XML-GL queries —
one per query class of the comparative analyses of XML query languages
(chain, negation, IDREF value join, ``where`` selection,
grouping/aggregation, ``deep`` star, collect-all) — through
``QuerySession.execute`` and ``ssd.serialize``, over
``bibliography(1000)`` and ``nested_sections(9)``.  Parse, index and the
first compile of each query happen in set-up; the seven plans fit the
128-entry plan cache, so every timed op is a plan-cache and index-cache
hit and match, construct and serialize do all the work.
"""

from __future__ import annotations

import time
from pathlib import Path

from harness import (
    Context, OpClock, Outcome, Part, digest, measure_in_hash_orders,
    outcome_of_parts, part_main, ratio,
)
from xmllayers import LayerTally, execute_and_serialize, traced_execute, xml_layer_metrics

from repro.engine.cache import DocumentIndexCache
from repro.engine.plan_cache import PlanCache
from repro.session import ExecOptions, QuerySession
from repro.ssd import parse_document, serialize
from repro.ssd.builder import E
from repro.workloads import bibliography, nested_sections

#: (name, source document, query text), run in this order, round after round.
QUERIES = [
    ("chain", "bib",
     "query { root bib as R { book as B { title as T } } }"
     " construct { r { collect T } }"),
    ("negation", "bib",
     'query { book as B { @year = "1999" as Y  not publisher as P } }'
     " construct { r { collect B } }"),
    ("join", "bib",
     "query { book as B  * as C { title as T } where B.cites = C.id }"
     " construct { r { collect T } }"),
    ("select", "bib",
     "query { book as B { title as T  @year as Y } where Y >= 1995 }"
     " construct { r { collect T } }"),
    ("group", "bib",
     "query { book as B { @year as Y  title as T  price as P { text as PT } } }"
     " construct { stats { n { count(B) } lo { min(PT) }"
     " years { year for Y sortby Y { value Y  n { count(B) }"
     " titles { collect T } } } } }"),
    ("deep", "sections",
     "query { root report as R { deep para as P } }"
     " construct { r { collect P } }"),
    ("collect", "bib",
     "query { book as B } construct { r { collect B } }"),
]

def _documents(seed: int):
    return {
        "bib": bibliography(1000, seed=seed),
        "sections": nested_sections(9, seed=seed),
    }


def _join_reference(bib) -> str:
    """The IDREF join's result, computed here: cited entries' titles.

    The naive engine needs 6 to 11 s for this one query (it tries every
    element as the wildcard box), a third of a run, so the benchmark
    computes the join itself: every ``title`` child of an element whose
    ``id`` some book cites, in document order.
    """
    cited = {book.get("cites") for book in bib.root.iter("book") if book.get("cites")}
    result = E("r")
    for element in bib.root.iter():
        if element.get("id") in cited:
            for title in element.find_all("title"):
                result.append(title.copy())
    return serialize(result)


def _references(documents) -> list[str]:
    """Digest of each query's serialized result under the naive engine."""
    naive = ExecOptions(engine="naive")
    references = []
    for name, source, text in QUERIES:
        if name == "join":
            references.append(digest(_join_reference(documents[source])))
            continue
        session = QuerySession(
            documents[source], options=naive,
            indexes=DocumentIndexCache(), plans=PlanCache(),
        )
        row = session.execute(text)
        if row.error is not None:
            raise row.error
        references.append(digest(serialize(row.result.root)))
    return references


def _set_up(texts: dict[str, str], references: list[str], problems: list[str]):
    """Parse and index both documents, then run each query once cold."""
    started = time.perf_counter()
    indexes = DocumentIndexCache()
    plans = PlanCache()
    documents = {name: parse_document(text) for name, text in texts.items()}
    for document in documents.values():
        indexes.get(document)
    sessions = {
        name: QuerySession(document, indexes=indexes, plans=plans)
        for name, document in documents.items()
    }
    outputs = [
        execute_and_serialize(sessions[source], text)[0]
        for _name, source, text in QUERIES
    ]
    seconds = time.perf_counter() - started
    for position, output in enumerate(outputs):
        if digest(output) != references[position]:
            problems.append(f"set-up: {QUERIES[position][0]} result differs")
    return seconds, documents, sessions, indexes, plans


class Fixture:
    """Both documents parsed, indexed and warm, with their references."""

    def __init__(self, texts: dict[str, str], references: list[str]) -> None:
        self.references = references
        self.problems: list[str] = []
        self.setup_clock = OpClock()
        start = time.monotonic()
        seconds, self.documents, self.sessions, self.indexes, self.plans = (
            _set_up(texts, references, self.problems)
        )
        self.setup_clock.record(start, seconds)

    def measure(self, seconds: float) -> Part:
        """Whole rotations of the seven queries for ``seconds``."""
        clock = OpClock()
        failed = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for position, (name, source, text) in enumerate(QUERIES):
                start = time.monotonic()
                output, execute_s, serialize_s = execute_and_serialize(
                    self.sessions[source], text
                )
                clock.record(start, execute_s + serialize_s)
                if digest(output) != self.references[position]:
                    failed += 1
                    self.problems.append(f"op {len(clock.raw)}: {name} result differs")
        return Part.of(clock, self.setup_clock, failed, self.problems)


def _measure_part(seconds: float, shared) -> Part:
    """A measuring child: read the XML texts, set up, run the rotation.

    The child receives the texts as files, so its peak memory holds the
    program's documents and indexes and not the generator's.
    """
    texts = {
        name: Path(path).read_text(encoding="utf-8")
        for name, path in shared["paths"].items()
    }
    return Fixture(texts, shared["references"]).measure(seconds)


def run(ctx: Context) -> Outcome:
    generated = _documents(ctx.seed)
    references = _references(generated)
    texts = {name: serialize(doc.root) for name, doc in generated.items()}
    if not ctx.trace:
        paths = {}
        for name, text in texts.items():
            path = ctx.out_dir / f"interactive-{name}-{ctx.seed}.xml"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        shared = {"references": references, "paths": paths}
        return outcome_of_parts(*measure_in_hash_orders(ctx, Path(__file__), shared))

    # Traced run: half the time untraced, then the same ops again, each
    # through its layer calls.  Each op also runs once through ``execute``
    # and ``serialize`` (alternately before and after the layer calls), so
    # the session's own share and the untraced time of the overhead ratio
    # are measured side by side with the layers.
    fixture = Fixture(texts, references)
    plain = fixture.measure(ctx.seconds / 2)
    attempted = len(plain.raw)
    problems = fixture.problems
    outcome = Outcome(attempted=attempted, failed=plain.failed, problems=problems)
    outcome.notes = {"ops": attempted}
    tracer = ctx.tracer
    tally = LayerTally()
    sessions = fixture.sessions
    plain_seconds = []
    for position in range(attempted):
        name, source, text = QUERIES[position % len(QUERIES)]
        reference = references[position % len(QUERIES)]
        tracer.op = position
        if position % 2:
            checked, execute_s, serialize_s = execute_and_serialize(sessions[source], text)
        with tracer.span("op"):
            output = traced_execute(
                tracer, tally, text, fixture.documents[source],
                fixture.indexes, fixture.plans,
            )
        if not position % 2:
            checked, execute_s, serialize_s = execute_and_serialize(sessions[source], text)
        tally.execute_seconds[position] = execute_s
        plain_seconds.append(execute_s + serialize_s)
        tally.ops += 1
        if digest(output) != reference or digest(checked) != reference:
            outcome.failed += 1
            problems.append(f"traced op {position}: {name} result differs")
    outcome.attempted += attempted
    outcome.per_layer = xml_layer_metrics(tracer, tally)
    outcome.per_layer["bench.trace_overhead_ratio"] = ratio(
        sum(tracer.durations("op")), sum(plain_seconds)
    )
    return outcome


if __name__ == "__main__":
    part_main(lambda _seed, seconds, shared: _measure_part(seconds, shared))
