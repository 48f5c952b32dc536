"""Static query rewriting: canonicalization, minimization, pruning.

A sound, fixed-point rewrite engine that runs between parse/lint and the
planner.  Four rule families (see DESIGN.md "Query rewriting" for the
full catalog and soundness argument):

1. **canonicalization** (:mod:`.canonical`) — a stable text form per
   query meaning; the plan cache digests it so semantically equal
   drawings share one compiled plan.
2. **containment & minimization** (:mod:`.minimize`) — homomorphism-based
   deletion of subsumed branches and merging of duplicate arcs, built on
   the :mod:`repro.xmlgl.containment` oracle (re-exported here as
   :func:`contains` for the public API).
3. **condition simplification** (:mod:`.simplify`) — constant folding
   plus range/equality implication pruning; always-false conditions feed
   the evaluator's preflight short-circuit.
4. **schema-informed pruning** (:mod:`.schema_prune`) — wildcard
   tightening and empty-branch removal when a schema is registered.

Every rewrite emits an ``XGL1xx``/``WGL1xx`` diagnostic and bumps a
stable counter (:data:`~repro.analysis.rewrite.report.COUNTERS`); the
evaluator surfaces them as a ``rewrite`` trace span, ``rewrite_*``
EvalStats extras and an EXPLAIN ``rewrites:`` line.
"""

from __future__ import annotations

import re
from typing import Optional

from ...xmlgl.ast import (
    AttributePattern,
    QueryGraph,
    TextPattern,
)
from ...xmlgl.construct import (
    Aggregate,
    Collect,
    ConstructNode,
    Copy,
    GroupBy,
    NewElement,
    TextFrom,
    TextLiteral,
)
from ...xmlgl.containment import ContainmentError
from ...xmlgl.containment import contains as _graph_contains
from ...xmlgl.rule import Rule
from ...xmlgl.schema import SchemaGraph
from .canonical import canonical_graph_text, canonical_rule_text
from .minimize import (
    _copy_graph,
    merge_duplicate_arcs,
    prune_subsumed_branches,
)
from .report import COUNTERS, RewriteReport
from .schema_prune import schema_prune
from .simplify import simplify_conditions
from .wglog import rewrite_rulegraph

__all__ = [
    "COUNTERS",
    "RewriteReport",
    "canonical_graph_text",
    "canonical_rule_text",
    "contains",
    "rewrite_graph",
    "rewrite_rule",
    "rewrite_rulegraph",
]

_MAX_PASSES = 100  # termination backstop; rewrites strictly shrink


def _construct_variables(node: ConstructNode) -> set[str]:
    """Every query variable the construct part reads."""
    if isinstance(node, NewElement):
        result = set(node.for_each)
        if node.sort_by is not None:
            result.add(node.sort_by)
        if node.tag_from is not None:
            result.add(node.tag_from)
        for attribute in node.attributes:
            if attribute.from_variable is not None:
                result.add(attribute.from_variable)
        for child in node.children:
            result |= _construct_variables(child)
        return result
    if isinstance(node, (TextFrom, Copy, Collect, Aggregate)):
        return {node.variable}
    if isinstance(node, GroupBy):
        result = set(node.group_on)
        for child in node.children:
            result |= _construct_variables(child)
        return result
    assert isinstance(node, TextLiteral)
    return set()


def _multiplicity_sensitive(node: ConstructNode) -> bool:
    """Does the construct part aggregate per *row* rather than per value?

    ``sum``/``avg`` add atomic bindings once per binding row
    (:func:`repro.xmlgl.construct._numeric_occurrences`), so deleting a
    redundant branch — which changes row multiplicities while preserving
    the projected binding *set* — would change their results.  All other
    primitives are distinct-based.
    """
    if isinstance(node, Aggregate):
        return node.function in ("sum", "avg")
    children: list[ConstructNode] = []
    if isinstance(node, (NewElement, GroupBy)):
        children = list(node.children)
    return any(_multiplicity_sensitive(child) for child in children)


def _fold_nodes(
    graph: QueryGraph, *, report: RewriteReport
) -> tuple[QueryGraph, bool]:
    """Constant folding on pattern nodes (XGL106).

    A circle carrying both a literal ``value`` and a ``regex`` that
    fullmatches the literal keeps only the literal: value matching is
    verbatim string equality, so the regex test is implied.  (A regex the
    literal *fails* is a contradiction — left for the satisfiability
    pass, which already reports it.)
    """
    folded = dict(graph.nodes)
    changed = False
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        if not isinstance(node, (TextPattern, AttributePattern)):
            continue
        if node.value is None or node.regex is None:
            continue
        try:
            implied = re.fullmatch(node.regex, node.value) is not None
        except re.error:
            continue
        if not implied:
            continue
        if isinstance(node, TextPattern):
            folded[node_id] = TextPattern(id=node.id, value=node.value)
        else:
            folded[node_id] = AttributePattern(
                id=node.id, name=node.name, value=node.value
            )
        report.record(
            "folded",
            "XGL106",
            f"regex /{node.regex}/ on {node_id!r} is implied by its "
            f"literal value {node.value!r}; folded away",
            node=node_id,
        )
        changed = True
    if not changed:
        return graph, False
    rewritten = _copy_graph(graph)
    rewritten.nodes = folded
    return rewritten, True


def _protected_variables(
    graphs: list[QueryGraph], rule_conditions: list[object], construct: ConstructNode
) -> frozenset[str]:
    from ...engine.conditions import Condition, condition_variables

    protected = _construct_variables(construct)
    for condition in rule_conditions:
        assert isinstance(condition, Condition)
        protected |= condition_variables(condition)
    for graph in graphs:
        for condition in graph.conditions:
            protected |= condition_variables(condition)
    return frozenset(protected)


def rewrite_graph(
    graph: QueryGraph,
    *,
    protected: frozenset[str] = frozenset(),
    schema: Optional[SchemaGraph] = None,
    allow_prune: bool = True,
    report: Optional[RewriteReport] = None,
) -> tuple[QueryGraph, RewriteReport]:
    """Rewrite one extract graph to a fixed point.

    ``protected`` names variables that must survive (condition /
    construct references); the caller is responsible for completeness —
    :func:`rewrite_rule` computes the set over the whole rule.
    """
    if report is None:
        report = RewriteReport()
    known = set(graph.nodes) | protected
    for _ in range(_MAX_PASSES):
        changed = False
        conditions, conditions_changed = simplify_conditions(
            graph.conditions,
            report=report,
            prefix="XGL",
            known_variable=lambda v: v in known,
        )
        if conditions_changed:
            graph = _copy_graph(graph)
            graph.conditions = conditions
            changed = True
        graph, fired = _fold_nodes(graph, report=report)
        changed = changed or fired
        graph, fired = merge_duplicate_arcs(graph, report=report)
        changed = changed or fired
        if allow_prune:
            condition_protected = _protected_variables([graph], [], _NO_CONSTRUCT)
            graph, fired = prune_subsumed_branches(
                graph,
                protected=protected | condition_protected,
                report=report,
            )
            changed = changed or fired
        if schema is not None:
            condition_protected = _protected_variables([graph], [], _NO_CONSTRUCT)
            graph, fired = schema_prune(
                graph,
                schema,
                protected=protected | condition_protected,
                report=report,
            )
            changed = changed or fired
        if not changed:
            break
    return graph, report


#: Construct placeholder for graph-only rewriting (protects nothing).
_NO_CONSTRUCT = TextLiteral(text="")


def rewrite_rule(
    rule: Rule, schema: Optional[SchemaGraph] = None
) -> tuple[Rule, RewriteReport]:
    """Rewrite one XML-GL rule to a fixed point; never mutates the input.

    Returns the rewritten rule (the *original object* when nothing
    fired) and the :class:`RewriteReport` of what happened.  With
    ``schema`` set, schema-informed pruning additionally assumes the
    queried documents conform to it.
    """
    report = RewriteReport()
    allow_prune = not _multiplicity_sensitive(rule.construct)
    all_ids = {node_id for graph in rule.queries for node_id in graph.nodes}

    rule_conditions, rule_conditions_changed = simplify_conditions(
        rule.conditions,
        report=report,
        prefix="XGL",
        known_variable=lambda v: v in all_ids,
    )

    graphs = list(rule.queries)
    graphs_changed = False
    for _ in range(_MAX_PASSES):
        changed = False
        for index, graph in enumerate(graphs):
            protected = _protected_variables(
                graphs, rule_conditions, rule.construct
            )
            before = graph
            graph, _ = rewrite_graph(
                graph,
                protected=protected,
                schema=schema,
                allow_prune=allow_prune,
                report=report,
            )
            if graph is not before:
                graphs[index] = graph
                changed = True
        graphs_changed = graphs_changed or changed
        if not changed:
            break

    if not graphs_changed and not rule_conditions_changed:
        return rule, report
    rewritten = Rule(
        queries=graphs,
        construct=rule.construct,
        conditions=rule_conditions,
        name=rule.name,
    )
    return rewritten, report


def contains(
    q1: QueryGraph,
    q2: QueryGraph,
    *,
    target1: Optional[str] = None,
    target2: Optional[str] = None,
) -> bool:
    """Containment oracle: is every answer of ``q2`` an answer of ``q1``?

    Targets default to each graph's single root; both graphs must lie in
    the positive tree fragment (no negation, or-arcs, conditions, joins)
    or :class:`~repro.xmlgl.containment.ContainmentError` is raised.  A
    ``True`` answer is always correct; with descendant (starred) arcs a
    ``False`` may be a missed containment (Miklau & Suciu's gap between
    homomorphism and containment for tree patterns).
    """
    return _graph_contains(
        q1, target1 or _single_root(q1), q2, target2 or _single_root(q2)
    )


def _single_root(graph: QueryGraph) -> str:
    roots = graph.roots()
    if len(roots) != 1:
        raise ContainmentError(
            "containment targets must be given explicitly for "
            f"multi-root graphs (roots: {sorted(roots)})"
        )
    return roots[0]
