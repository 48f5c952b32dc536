"""xmlgl-cold: the one-shot ``repro run`` path on a 10^5-element document.

Each op takes the XML text of ``bibliography(10000)`` (about 92k
elements, 2.2 MB) through ``ssd.parse_document``, a fresh private index
cache and plan cache, one selective ``where`` query through
``QuerySession.execute``, and ``ssd.serialize``.  Parse and the index
build are most of every op.

Set-up is what a one-shot process pays before its first parse: a fresh
interpreter importing the program and running a trivial query, measured
in child processes.  The untraced run splits its time over string-hash
orders like the other in-process workloads (see ``harness.HASH_SEEDS``),
over two of them: an op takes about 3 s, and four orders would leave
each only one or two ops.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    HASH_SEEDS, BenchFailure, Context, OpClock, Outcome, Part, digest,
    measure_in_hash_orders, outcome_of_parts, part_main, program_env, ratio,
)
from xmllayers import LayerTally, execute_and_serialize, traced_execute, xml_layer_metrics

from repro.engine.cache import DocumentIndexCache
from repro.engine.plan_cache import PlanCache
from repro.engine.stats import EvalStats
from repro.session import ExecOptions, QuerySession
from repro.ssd import parse_document, serialize
from repro.workloads import bibliography

ENTRIES = 10_000

QUERY = (
    "query { book as B { title as T  price as P  @year as Y }"
    " where Y = 1999 and P > 90 } construct { r { collect B } }"
)

#: What a fresh process runs before it can parse the user's document.
STARTUP_PROBE = (
    "from repro import QuerySession\n"
    "from repro.ssd import parse_document, serialize\n"
    "row = QuerySession(parse_document('<bib><book year=\"1\"/></bib>'))"
    ".execute('query { book as B } construct { r { collect B } }')\n"
    "assert row.error is None\n"
    "serialize(row.result.root)\n"
)

SETUP_REPEATS = 2


def _startup_seconds(root: Path) -> float:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        cwd=root, env=program_env(root),
        capture_output=True, text=True, timeout=60, check=False,
    )
    seconds = time.perf_counter() - started
    if completed.returncode != 0:
        raise BenchFailure(f"start-up probe failed: {completed.stderr[-500:]}")
    return seconds


def _reference(generated) -> str:
    """Digest of the query's result under the naive engine."""
    session = QuerySession(
        generated, options=ExecOptions(engine="naive"),
        indexes=DocumentIndexCache(), plans=PlanCache(),
    )
    row = session.execute(QUERY)
    if row.error is not None:
        raise row.error
    return digest(serialize(row.result.root))


class Fixture:
    """The seeded document's XML text and the reference digest."""

    def __init__(self, text: str, reference: str) -> None:
        self.text = text
        self.reference = reference
        self.problems: list[str] = []

    def plain_op(self) -> tuple[str, float, float]:
        """Parse, execute on fresh caches, serialize.

        Returns ``(output, seconds, seconds inside execute)``.
        """
        started = time.perf_counter()
        document = parse_document(self.text)
        session = QuerySession(
            document, indexes=DocumentIndexCache(), plans=PlanCache()
        )
        output, execute_s, _ = execute_and_serialize(session, QUERY)
        return output, time.perf_counter() - started, execute_s

    def measure(self, seconds: float) -> Part:
        # The start-up probes inherit this process's CPU and hash order.
        root = Path(__file__).resolve().parent.parent
        setup_clock = OpClock()
        for _ in range(SETUP_REPEATS):
            start = time.monotonic()
            setup_clock.record(start, _startup_seconds(root))
        clock = OpClock()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not clock.raw:
            start = time.monotonic()
            output, op_seconds, _ = self.plain_op()
            clock.record(start, op_seconds)
            if digest(output) != self.reference:
                self.problems.append(f"op {len(clock.raw)}: result differs")
            # A one-shot process exits after its op and never collects the
            # previous document's cycles; keep that cost out of the next op.
            del output
            gc.collect()
        return Part.of(clock, setup_clock, len(self.problems), self.problems)


def _measure_part(seconds: float, shared) -> Part:
    """A measuring child: read the XML text from its file, run the ops.

    The child never builds the generator's document, so its peak memory
    is the program's.
    """
    text = Path(shared["path"]).read_text(encoding="utf-8")
    return Fixture(text, shared["reference"]).measure(seconds)


def run(ctx: Context) -> Outcome:
    generated = bibliography(ENTRIES, seed=ctx.seed)
    reference = _reference(generated)
    text = serialize(generated.root)
    del generated
    if not ctx.trace:
        path = ctx.out_dir / f"cold-bib-{ctx.seed}.xml"
        path.write_text(text, encoding="utf-8")
        shared = {"reference": reference, "path": str(path)}
        # An op takes about 3 s: two orders leave each a few ops.
        return outcome_of_parts(*measure_in_hash_orders(
            ctx, Path(__file__), shared, hash_seeds=HASH_SEEDS[:2]
        ))

    # Traced run: half the time untraced, then the same ops again through
    # their layer calls.  Each traced op is paired with one untraced op
    # (alternately before and after it), which gives the session's share
    # and the untraced time of the overhead ratio side by side.
    fixture = Fixture(text, reference)
    plain = fixture.measure(ctx.seconds / 2)
    attempted = len(plain.raw)
    problems = fixture.problems
    outcome = Outcome(attempted=attempted, failed=plain.failed, problems=problems)
    outcome.notes = {"ops": attempted}
    text = fixture.text
    tracer = ctx.tracer
    tally = LayerTally()
    plain_seconds = []
    for position in range(attempted):
        tracer.op = position
        if position % 2:
            checked, plain_s, execute_s = fixture.plain_op()
        with tracer.span("op"):
            with tracer.span("ssd.parse"):
                document = parse_document(text)
            indexes = DocumentIndexCache()
            lookup = EvalStats()
            with tracer.span("index.build"):
                index = indexes.get(document, stats=lookup)
            output = traced_execute(
                tracer, tally, QUERY, document, indexes, PlanCache()
            )
        tally.stats = tally.stats + lookup
        tally.parsed_bytes += len(text.encode())
        tally.indexed_elements += index.element_count()
        tally.ops += 1
        del document, index, indexes
        gc.collect()
        if not position % 2:
            checked, plain_s, execute_s = fixture.plain_op()
        # ``execute`` on fresh caches builds the index inside the call.
        tally.execute_seconds[position] = execute_s
        plain_seconds.append(plain_s)
        if digest(output) != fixture.reference or digest(checked) != fixture.reference:
            outcome.failed += 1
            problems.append(f"traced op {position}: result differs")
        del output, checked
        gc.collect()
    outcome.attempted += attempted
    outcome.per_layer = xml_layer_metrics(tracer, tally)
    outcome.per_layer["bench.trace_overhead_ratio"] = ratio(
        sum(tracer.durations("op")), sum(plain_seconds)
    )
    return outcome


if __name__ == "__main__":
    part_main(lambda _seed, seconds, shared: _measure_part(seconds, shared))
