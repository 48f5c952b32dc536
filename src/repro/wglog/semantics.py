"""Generative semantics of WG-Log / G-Log.

A rule's declarative reading: an instance *satisfies* the rule when every
embedding of the red part extends to an embedding of the red+green part.
The *generative* reading (what the query system executes): for every red
embedding that has no green extension, add a **minimal** set of new nodes,
edges and slots realising the green part.

A program is a sequence of rules applied round-robin to a fixpoint.
Implementation choices (documented because G-Log's minimal-model semantics
leaves them open):

* Each unsatisfied embedding instantiates its own copies of the green
  nodes; satisfaction is re-checked before every instantiation, so rule
  application is idempotent and the fixpoint terminates whenever the rule
  set is *safe* (green labels do not re-trigger their own red parts with
  fresh nodes forever).  A ``max_rounds`` guard turns runaway recursion
  into an error instead of a hang.
* Collector (triangle) nodes are instantiated once per rule application
  and linked to every match; an existing node already linked to all
  matches satisfies the collector.
* Rules with crossed edges are treated as in stratified Datalog: apply
  them after the rules that derive their negated labels (the caller
  controls rule order; rounds re-run all rules, so a monotone program
  converges regardless).
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..engine.bindings import Binding
from ..engine.options import ExecOptions
from ..engine.stats import EvalStats
from ..errors import EvaluationError
from ..graph.matching import MatchSpec, find_homomorphisms
from ..graph.labeled_graph import LabeledGraph
from .ast import Color, RuleGraph
from .data import InstanceGraph
from .matcher import embeddings
from .schema import WGSchema

__all__ = ["satisfies", "apply_rule", "apply_program", "query", "answer_graph"]

NodeId = Hashable


def query(
    rule: RuleGraph,
    instance: InstanceGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
    stats: Optional[EvalStats] = None,
    *,
    options: ExecOptions = ExecOptions(),
):
    """Evaluate a rule as a query: the embeddings of its red part.

    Accepts the keyword-only ``options=`` run contract of
    :func:`repro.xmlgl.evaluator.evaluate_rule` — identical semantics and
    defaults: the :class:`~repro.engine.options.ExecOptions` bundle
    selects the evaluation engine, its ``trace`` flag records a span tree,
    and its ``budget`` (a :class:`~repro.engine.limits.QueryBudget`)
    governs the run — raising typed errors or returning a truncated
    binding set flagged ``stats.extra["truncated"]`` under
    ``on_limit="partial"``.
    """
    return embeddings(
        rule, instance, schema=schema, injective=injective, stats=stats,
        options=options,
    )


def satisfies(
    instance: InstanceGraph,
    rule: RuleGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
) -> bool:
    """Declarative reading: every red embedding has a green extension."""
    matched = embeddings(rule, instance, schema=schema, injective=injective)
    for binding in matched:
        if not _green_satisfied(rule, instance, binding):
            return False
    return _collectors_satisfied(rule, instance, list(matched))


def apply_rule(
    instance: InstanceGraph,
    rule: RuleGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
    stats: Optional[EvalStats] = None,
) -> int:
    """Generative reading: mutate ``instance`` minimally; return additions.

    The returned count is the number of nodes + edges + slots added; zero
    means the instance already satisfied the rule.
    """
    matched = list(
        embeddings(rule, instance, schema=schema, injective=injective, stats=stats)
    )
    additions = 0
    collector_ids = {n.id for n in rule.green_nodes() if n.collector}
    for binding in matched:
        if _green_satisfied(rule, instance, binding):
            continue
        additions += _instantiate_green(rule, instance, binding, collector_ids)
    additions += _instantiate_collectors(rule, instance, matched)
    return additions


def apply_program(
    instance: InstanceGraph,
    rules: list[RuleGraph],
    schema: Optional[WGSchema] = None,
    injective: bool = False,
    max_rounds: int = 100,
    stats: Optional[EvalStats] = None,
) -> int:
    """Apply rules round-robin until no rule adds anything.

    Returns total additions.  Raises :class:`EvaluationError` when
    ``max_rounds`` passes do not reach a fixpoint (unsafe recursion).
    """
    total = 0
    for _ in range(max_rounds):
        round_additions = 0
        for rule in rules:
            round_additions += apply_rule(
                instance, rule, schema=schema, injective=injective, stats=stats
            )
        total += round_additions
        if round_additions == 0:
            return total
    raise EvaluationError(
        f"program did not reach a fixpoint within {max_rounds} rounds; "
        "the rule set is likely unsafe (green part keeps re-triggering)"
    )


# ---------------------------------------------------------------------------
# Green-part satisfaction
# ---------------------------------------------------------------------------

def _resolve_slot_value(rule: RuleGraph, instance, binding: Binding, assertion):
    if assertion.value is not None:
        return assertion.value
    source = binding[assertion.from_node]
    value = instance.slot_value(source, assertion.from_slot)
    if value is None:
        raise EvaluationError(
            f"cannot copy slot {assertion.from_slot!r} of {source!r}: absent"
        )
    return value


def _green_satisfied(
    rule: RuleGraph, instance: InstanceGraph, binding: Binding
) -> bool:
    """Is this embedding's per-embedding green part already realised?

    Collectors are handled globally and skipped here.
    """
    collector_ids = {n.id for n in rule.green_nodes() if n.collector}
    # 1. green edges between red nodes
    for edge in rule.green_edges():
        if edge.source in collector_ids or edge.target in collector_ids:
            continue
        source_red = rule.nodes[edge.source].color is Color.RED
        target_red = rule.nodes[edge.target].color is Color.RED
        if source_red and target_red:
            if not instance.has_relationship(
                binding[edge.source], binding[edge.target], edge.label
            ):
                return False
    # 2. slot assertions on red nodes
    for assertion in rule.slot_assertions:
        if rule.nodes[assertion.node].color is Color.RED:
            wanted = _resolve_slot_value(rule, instance, binding, assertion)
            if instance.slot_value(binding[assertion.node], assertion.name) != wanted:
                return False
    # 3. green nodes (non-collector) with their incident green edges + slots
    green_plain = [
        n for n in rule.green_nodes() if not n.collector
    ]
    if not green_plain:
        return True
    return _green_nodes_embed(rule, instance, binding, green_plain)


def _green_nodes_embed(
    rule: RuleGraph, instance: InstanceGraph, binding: Binding, green_plain
) -> bool:
    """Check existence of instance nodes realising the plain green nodes."""
    pattern = LabeledGraph()
    boundary: set[str] = set()
    green_ids = {n.id for n in green_plain}
    for node in green_plain:
        pattern.add_node(node.id, node.label or "*")
    for edge in rule.green_edges():
        touched = {edge.source, edge.target} & green_ids
        if not touched:
            continue
        for endpoint in (edge.source, edge.target):
            if endpoint not in green_ids:
                if rule.nodes[endpoint].color is Color.GREEN:
                    return True  # collector endpoint: handled globally
                boundary.add(endpoint)
                if endpoint not in pattern:
                    pattern.add_node(endpoint, rule.nodes[endpoint].label or "*")
        pattern.add_edge(edge.source, edge.target, edge.label)

    slot_requirements: dict[str, dict[str, object]] = {}
    for assertion in rule.slot_assertions:
        if assertion.node in green_ids:
            value = _resolve_slot_value(rule, instance, binding, assertion)
            slot_requirements.setdefault(assertion.node, {})[assertion.name] = value

    def compat(pnode, dnode) -> bool:
        if pnode in boundary:
            return dnode == binding[pnode]
        if instance.is_slot(dnode):
            return False
        wanted = rule.nodes[pnode].label
        if wanted is not None and instance.label(dnode) != wanted:
            return False
        for name, value in slot_requirements.get(pnode, {}).items():
            if instance.slot_value(dnode, name) != value:
                return False
        return True

    spec = MatchSpec(injective=False, node_compat=compat)
    for _ in find_homomorphisms(pattern, instance.graph, spec):
        return True
    return False


def _instantiate_green(
    rule: RuleGraph,
    instance: InstanceGraph,
    binding: Binding,
    collector_ids: set[str],
) -> int:
    """Add the per-embedding green structure; returns additions count."""
    additions = 0
    created: dict[str, NodeId] = {}
    for node in rule.green_nodes():
        if node.collector:
            continue
        if node.label is None:
            raise EvaluationError(
                f"green node {node.id!r} needs a label to be created"
            )
        created[node.id] = instance.add_entity(node.label)
        additions += 1

    def resolve(node_id: str) -> NodeId:
        if node_id in created:
            return created[node_id]
        return binding[node_id]

    for edge in rule.green_edges():
        if edge.source in collector_ids or edge.target in collector_ids:
            continue
        before = instance.graph.edge_count()
        instance.relate(resolve(edge.source), resolve(edge.target), edge.label)
        if instance.graph.edge_count() > before:
            additions += 1
    for assertion in rule.slot_assertions:
        if assertion.node in collector_ids:
            continue
        target = resolve(assertion.node)
        value = _resolve_slot_value(rule, instance, binding, assertion)
        if instance.slot_value(target, assertion.name) != value:
            instance.add_slot(target, assertion.name, value)
            additions += 1
    return additions


# ---------------------------------------------------------------------------
# Collectors (the aggregation triangle)
# ---------------------------------------------------------------------------

def _collector_targets(
    rule: RuleGraph, matched: list[Binding], collector_id: str
) -> dict[str, set[NodeId]]:
    """Per edge-label target sets of one collector over all embeddings."""
    targets: dict[str, set[NodeId]] = {}
    for edge in rule.green_edges():
        if edge.source != collector_id:
            continue
        bucket = targets.setdefault(edge.label, set())
        for binding in matched:
            bucket.add(binding[edge.target])
    return targets


def _collectors_satisfied(
    rule: RuleGraph, instance: InstanceGraph, matched: list[Binding]
) -> bool:
    for node in rule.green_nodes():
        if not node.collector:
            continue
        if not matched:
            continue
        targets = _collector_targets(rule, matched, node.id)
        if _find_collector_host(instance, node.label, targets) is None:
            return False
    return True


def _find_collector_host(
    instance: InstanceGraph, label: Optional[str], targets: dict[str, set[NodeId]]
) -> Optional[NodeId]:
    """An existing entity already linked to every collected target."""
    for candidate in instance.entities(label):
        if all(
            all(
                instance.has_relationship(candidate, target, edge_label)
                for target in wanted
            )
            for edge_label, wanted in targets.items()
        ):
            return candidate
    return None


def _instantiate_collectors(
    rule: RuleGraph, instance: InstanceGraph, matched: list[Binding]
) -> int:
    additions = 0
    for node in rule.green_nodes():
        if not node.collector or not matched:
            continue
        if node.label is None:
            raise EvaluationError(
                f"collector {node.id!r} needs a label to be created"
            )
        targets = _collector_targets(rule, matched, node.id)
        host = _find_collector_host(instance, node.label, targets)
        if host is not None:
            continue
        # Reuse a partially linked collector of the same label if present,
        # so repeated applications extend instead of multiplying.
        partial = None
        for candidate in instance.entities(node.label):
            if any(
                instance.has_relationship(candidate, target, edge_label)
                for edge_label, wanted in targets.items()
                for target in wanted
            ):
                partial = candidate
                break
        if partial is None:
            partial = instance.add_entity(node.label)
            additions += 1
        for edge_label, wanted in targets.items():
            for target in wanted:
                if not instance.has_relationship(partial, target, edge_label):
                    instance.relate(partial, target, edge_label)
                    additions += 1
        for assertion in rule.slot_assertions:
            if assertion.node == node.id and assertion.value is not None:
                if instance.slot_value(partial, assertion.name) != assertion.value:
                    instance.add_slot(partial, assertion.name, assertion.value)
                    additions += 1
    return additions


def answer_graph(
    rule: RuleGraph,
    instance: InstanceGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
) -> InstanceGraph:
    """The query answer *as a graph* (G-Log's formal reading).

    The answer to a pure query is the sub-instance induced by all red
    embeddings: every matched entity (with its slots) and every instance
    edge realising a matched red edge.  Path edges contribute their
    endpoint entities only (the intermediate hops are not part of the
    answer).  The result is a fresh :class:`InstanceGraph` that conforms
    to any schema the input conformed to.
    """
    matched = list(embeddings(rule, instance, schema=schema, injective=injective))
    answer = InstanceGraph()
    included: set[NodeId] = set()
    for binding in matched:
        for node_id in binding.values():
            if node_id in included or instance.is_slot(node_id):
                continue
            included.add(node_id)
            answer.add_entity(instance.label(node_id), node_id)
            for name, value in instance.slots(node_id).items():
                answer.add_slot(node_id, name, value)
    for binding in matched:
        for edge in rule.red_edges():
            if edge.crossed or edge.path:
                continue
            source = binding.get(edge.source)
            target = binding.get(edge.target)
            if source is None or target is None:
                continue
            if instance.has_relationship(source, target, edge.label):
                answer.relate(source, target, edge.label)
    return answer
