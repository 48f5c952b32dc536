"""XML-GL layer calls: the untraced op, its traced replacement, the tally.

The untraced op is the program's single public call,
``QuerySession.execute`` followed by ``ssd.serialize``.  The traced op
replaces ``execute`` by the layer calls it makes, each under its own span:
``lookup_or_compile`` (parse, rewrite, plan cache), ``rule_bindings``
(match), ``xmlgl.construct.build`` and ``ssd.serialize``.  Both return the
serialized result, which the workloads compare against their references.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from harness import Tracer, median, ratio
from repro.engine.cache import DocumentIndexCache
from repro.engine.plan_cache import PlanCache
from repro.engine.stats import EvalStats
from repro.session import QuerySession
from repro.ssd import serialize
from repro.ssd.model import Document
from repro.xmlgl.construct import build
from repro.xmlgl.evaluator import lookup_or_compile, rule_bindings


def execute_and_serialize(session: QuerySession, text: str) -> tuple[str, float, float]:
    """The untraced op: ``(output, execute seconds, serialize seconds)``."""
    started = time.perf_counter()
    row = session.execute(text)
    executed = time.perf_counter()
    if row.error is not None:
        raise row.error
    output = serialize(row.result.root)
    return output, executed - started, time.perf_counter() - executed


@dataclass
class LayerTally:
    """Counters gathered at the layer boundaries of traced XML-GL ops."""

    ops: int = 0
    stats: EvalStats = field(default_factory=EvalStats)
    parsed_bytes: int = 0
    serialized_bytes: int = 0
    indexed_elements: int = 0
    constructed_nodes: int = 0
    #: Per op id: seconds the same op spent inside ``QuerySession.execute``.
    execute_seconds: dict[int, float] = field(default_factory=dict)


def traced_execute(
    tracer: Tracer,
    tally: LayerTally,
    text: str,
    document: Document,
    indexes: DocumentIndexCache,
    plans: PlanCache,
) -> str:
    """The traced op: the layer calls ``execute`` makes, then serialize."""
    stats = EvalStats()
    with tracer.span("compile"):
        rule, _source, plan = lookup_or_compile(
            text, document, indexes=indexes, stats=stats, plans=plans
        )
    with tracer.span("match"):
        bindings = rule_bindings(
            rule, document, stats=stats, indexes=indexes, plan=plan
        )
    with tracer.span("construct"):
        element = build(rule.construct, bindings)
    with tracer.span("ssd.serialize"):
        output = serialize(element)
    tally.stats = tally.stats + stats
    tally.constructed_nodes += element.size()
    tally.serialized_bytes += len(output.encode())
    return output


def xml_layer_metrics(tracer: Tracer, tally: LayerTally) -> dict[str, Any]:
    """Per-op layer figures of the traced XML-GL ops in ``tracer``."""
    selfs = tracer.self_seconds()
    ops = max(tally.ops, 1)
    stats = tally.stats
    parse_s = selfs.get("ssd.parse", 0.0)
    serialize_s = selfs.get("ssd.serialize", 0.0)
    build_s = selfs.get("index.build", 0.0)
    compile_s = selfs.get("compile", 0.0)
    match_s = selfs.get("match", 0.0)
    construct_s = selfs.get("construct", 0.0)
    work = (
        stats.candidates_tried
        + stats.edge_checks
        + stats.condition_checks
        + stats.relation_pairs
    )
    lookups = stats.cache_hits + stats.cache_misses
    plan_lookups = stats.plan_cache_hits + stats.plan_cache_misses
    return {
        "ssd.parse_s": parse_s / ops,
        "ssd.parse_mb_per_s": ratio(tally.parsed_bytes / 1e6, parse_s),
        "ssd.serialize_s": serialize_s / ops,
        "ssd.serialize_mb_per_s": ratio(tally.serialized_bytes / 1e6, serialize_s),
        "index.build_s": build_s / ops,
        "index.elements_per_s": ratio(tally.indexed_elements, build_s),
        "index.cache_hit_ratio": ratio(stats.cache_hits, lookups),
        "compile.s": compile_s / ops,
        "compile.misses": stats.plan_cache_misses / ops,
        "compile.hit_ratio": ratio(stats.plan_cache_hits, plan_lookups),
        "match.s": match_s / ops,
        "match.work": work / ops,
        "match.hashjoin_rows": stats.hashjoin_rows / ops,
        "match.bindings": stats.bindings_produced / ops,
        "match.bindings_per_work": ratio(stats.bindings_produced, work),
        "construct.s": construct_s / ops,
        "construct.nodes": tally.constructed_nodes / ops,
        "construct.nodes_per_s": ratio(tally.constructed_nodes, construct_s),
        "session.self_s": _session_self(tracer, tally),
    }


#: The spans whose work ``QuerySession.execute`` does through its callees.
_EXECUTE_LAYERS = ("index.build", "compile", "match", "construct")


def _session_self(tracer: Tracer, tally: LayerTally) -> float:
    """Median over ops of ``execute`` time minus the layers it calls.

    Each op's ``execute`` call and its layer calls run back to back, so
    the median of the per-op differences keeps a garbage collection that
    lands in one of them out of the figure.
    """
    layers: dict[int, float] = {}
    for record in tracer.spans:
        if record["name"] in _EXECUTE_LAYERS and record["op"] is not None:
            layers[record["op"]] = (
                layers.get(record["op"], 0.0) + record["end"] - record["start"]
            )
    differences = [
        seconds - layers.get(op, 0.0)
        for op, seconds in tally.execute_seconds.items()
    ]
    return median(differences) if differences else 0.0
