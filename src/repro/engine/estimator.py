"""Cardinality estimation from per-document statistics.

The adaptive engine (``ExecOptions(engine="adaptive")``) decides, per
query fragment, whether the set-at-a-time semi-join pipeline or the
node-at-a-time backtracking core is cheaper.  That comparison needs real
numbers, not shapes, so :class:`DocumentStatistics` collects — in one
extra pass piggybacked on :class:`~repro.engine.index.DocumentIndex`
construction — the document facts both cost formulas consume:

* per-tag node counts (the candidate-pool sizes),
* depth and fanout histograms (tree shape),
* exact direct parent/child pair counts per ``(parent_tag, child_tag)``
  with row/column/total aggregates so wildcard endpoints estimate without
  guessing,
* the same family for ancestor/descendant ("deep") pairs, computed by
  walking each node's parent chain (``O(n * depth)`` — cheap on document
  trees, exact instead of sampled),
* a :class:`ValueSketch` per attribute name: occurrence count and a
  capped distinct-value count, the selectivity source for equality
  predicates.

:class:`DocumentStatistics` objects are immutable snapshots, but the
accumulator behind them — :class:`StatisticsBuilder` — is mutable and
lives on the index: document mutations (:mod:`repro.engine.mutate`) apply
*subtree deltas* (``O(k * depth)`` for a ``k``-node edit) instead of
recollecting, and the index re-snapshots lazily.  Structural edits bump
the index's *stats epoch*, which is what keys compiled plans out of the
plan cache (:mod:`repro.engine.plan_cache`); attribute/value edits update
the sketches without an epoch bump (cost inputs drift, plan validity does
not).  After deletions a sketch's ``distinct`` degrades to an upper bound
and its ``exact`` flag drops — deltas cannot un-count a vanished value.

:class:`CardinalityEstimator` is the read side: pool sizes, raw and
pool-scaled edge-pair estimates, and attribute selectivities, consumed by
:func:`repro.engine.planner.choose_fragment_engine`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..ssd.model import Element

__all__ = [
    "DISTINCT_CAP",
    "ValueSketch",
    "DocumentStatistics",
    "StatisticsBuilder",
    "CardinalityEstimator",
    "balanced_partition",
]


def _inc(table: dict, key, delta: int) -> None:
    """Adjust ``table[key]`` by ``delta``, dropping keys that reach zero."""
    value = table.get(key, 0) + delta
    if value:
        table[key] = value
    else:
        table.pop(key, None)

#: Distinct attribute values tracked exactly before a sketch saturates.
DISTINCT_CAP = 64


@dataclass(frozen=True)
class ValueSketch:
    """Selectivity sketch of one attribute name across a document."""

    #: Elements carrying the attribute.
    occurrences: int
    #: Distinct values seen (exact until :data:`DISTINCT_CAP`, then capped).
    distinct: int
    #: Whether ``distinct`` is exact or the cap was hit.
    exact: bool

    @property
    def selectivity(self) -> float:
        """Estimated fraction of carriers an ``= constant`` predicate keeps."""
        return 1.0 / max(1, self.distinct)


@dataclass(frozen=True)
class DocumentStatistics:
    """Immutable per-document statistics collected at index build."""

    element_count: int
    tag_counts: Mapping[str, int]
    #: depth -> number of elements at that depth (root = 0).
    depth_histogram: Mapping[int, int]
    #: child-element count -> number of elements with that fanout.
    fanout_histogram: Mapping[int, int]
    #: (parent_tag, child_tag) -> exact direct parent/child pair count.
    child_pairs: Mapping[tuple[str, str], int]
    #: parent_tag -> direct pairs with any child tag (row totals).
    child_parent_totals: Mapping[str, int]
    #: child_tag -> direct pairs with any parent tag (column totals).
    child_child_totals: Mapping[str, int]
    #: Direct pairs overall (= element_count - 1 on non-empty documents).
    child_total: int
    #: (ancestor_tag, descendant_tag) -> exact ancestor/descendant pairs.
    deep_pairs: Mapping[tuple[str, str], int]
    deep_parent_totals: Mapping[str, int]
    deep_child_totals: Mapping[str, int]
    #: Ancestor/descendant pairs overall (= sum of element depths).
    deep_total: int
    #: attribute name -> :class:`ValueSketch`.
    attributes: Mapping[str, ValueSketch]

    @classmethod
    def collect(
        cls,
        elements: Sequence[Element],
        parent_pre: Sequence[int],
        depth: Sequence[int],
    ) -> "DocumentStatistics":
        """One pass over the index's pre-order arrays (plus ancestor walks)."""
        return StatisticsBuilder.collect(elements, parent_pre, depth).snapshot()


class StatisticsBuilder:
    """Mutable accumulator behind :class:`DocumentStatistics`.

    The index owns one of these; :func:`collect` fills it in the same
    single pass the frozen ``DocumentStatistics.collect`` always did, and
    the mutation path (:mod:`repro.engine.mutate`) keeps it current with
    :meth:`add_subtree` / :meth:`remove_subtree` / :meth:`set_attribute`
    deltas.  :meth:`snapshot` freezes the current state.

    Delta costs are ``O(k * depth)`` for a ``k``-node subtree (each node
    contributes one deep pair per ancestor, exactly mirroring the build
    pass) and ``O(1)`` for attribute edits.  Deletions and value rewrites
    poison a sketch's exactness: the value set becomes an upper bound on
    the live distinct count and ``exact`` drops to ``False``.
    """

    __slots__ = (
        "element_count",
        "tag_counts",
        "depth_histogram",
        "fanout_histogram",
        "child_pairs",
        "child_parent_totals",
        "child_child_totals",
        "child_total",
        "deep_pairs",
        "deep_parent_totals",
        "deep_child_totals",
        "deep_total",
        "attr_occurrences",
        "attr_values",
        "attr_inexact",
    )

    def __init__(self) -> None:
        self.element_count = 0
        self.tag_counts: dict[str, int] = {}
        self.depth_histogram: dict[int, int] = {}
        self.fanout_histogram: dict[int, int] = {}
        self.child_pairs: dict[tuple[str, str], int] = {}
        self.child_parent_totals: dict[str, int] = {}
        self.child_child_totals: dict[str, int] = {}
        self.child_total = 0
        self.deep_pairs: dict[tuple[str, str], int] = {}
        self.deep_parent_totals: dict[str, int] = {}
        self.deep_child_totals: dict[str, int] = {}
        self.deep_total = 0
        self.attr_occurrences: dict[str, int] = {}
        self.attr_values: dict[str, set[str]] = {}
        #: Names whose distinct count is an upper bound (cap hit, or a
        #: deletion/rewrite removed occurrences the set cannot forget).
        self.attr_inexact: set[str] = set()

    @classmethod
    def collect(
        cls,
        elements: Sequence[Element],
        parent_pre: Sequence[int],
        depth: Sequence[int],
    ) -> "StatisticsBuilder":
        """Fill a builder from the index's pre-order arrays."""
        builder = cls()
        tag_counts = builder.tag_counts
        depth_histogram = builder.depth_histogram
        child_pairs = builder.child_pairs
        child_parent_totals = builder.child_parent_totals
        child_child_totals = builder.child_child_totals
        deep_pairs = builder.deep_pairs
        deep_parent_totals = builder.deep_parent_totals
        deep_child_totals = builder.deep_child_totals
        child_counts = [0] * len(elements)

        for pre, element in enumerate(elements):
            tag = element.tag
            tag_counts[tag] = tag_counts.get(tag, 0) + 1
            level = depth[pre]
            depth_histogram[level] = depth_histogram.get(level, 0) + 1
            ppre = parent_pre[pre]
            if ppre >= 0:
                child_counts[ppre] += 1
                parent_tag = elements[ppre].tag
                key = (parent_tag, tag)
                child_pairs[key] = child_pairs.get(key, 0) + 1
                child_parent_totals[parent_tag] = (
                    child_parent_totals.get(parent_tag, 0) + 1
                )
                child_child_totals[tag] = child_child_totals.get(tag, 0) + 1
                # Exact deep pairs: every ancestor of this element
                # contributes one (ancestor_tag, tag) pair.
                walk = ppre
                while walk >= 0:
                    ancestor_tag = elements[walk].tag
                    deep_key = (ancestor_tag, tag)
                    deep_pairs[deep_key] = deep_pairs.get(deep_key, 0) + 1
                    deep_parent_totals[ancestor_tag] = (
                        deep_parent_totals.get(ancestor_tag, 0) + 1
                    )
                    walk = parent_pre[walk]
                deep_child_totals[tag] = deep_child_totals.get(tag, 0) + level
                builder.deep_total += level
            for name, value in element.attributes.items():
                builder.attr_occurrences[name] = (
                    builder.attr_occurrences.get(name, 0) + 1
                )
                builder._track_value(name, value)

        for fanout in child_counts:
            builder.fanout_histogram[fanout] = (
                builder.fanout_histogram.get(fanout, 0) + 1
            )
        builder.element_count = len(elements)
        builder.child_total = max(0, len(elements) - 1)
        return builder

    # -- deltas ---------------------------------------------------------------

    def add_subtree(
        self,
        root: Element,
        parent_depth: int,
        ancestor_tags: Sequence[str],
        parent_fanout_after: int,
    ) -> int:
        """Count subtree ``root`` in, newly attached under a parent.

        ``ancestor_tags`` is the parent-upward tag chain (nearest first),
        ``parent_fanout_after`` the parent's element-child count *after*
        the attach.  Returns the node/ancestor touches performed (the work
        metric the incremental benchmark compares against rebuilds).
        """
        return self._apply_subtree(
            root, parent_depth, ancestor_tags, parent_fanout_after, +1
        )

    def remove_subtree(
        self,
        root: Element,
        parent_depth: int,
        ancestor_tags: Sequence[str],
        parent_fanout_after: int,
    ) -> int:
        """Count subtree ``root`` out (``parent_fanout_after`` = post-detach)."""
        return self._apply_subtree(
            root, parent_depth, ancestor_tags, parent_fanout_after, -1
        )

    def _apply_subtree(
        self,
        root: Element,
        parent_depth: int,
        ancestor_tags: Sequence[str],
        parent_fanout_after: int,
        sign: int,
    ) -> int:
        work = 0
        # The parent keeps its other children; only its fanout bucket moves.
        _inc(self.fanout_histogram, parent_fanout_after - sign, -1)
        _inc(self.fanout_histogram, parent_fanout_after, +1)
        stack: list[tuple[Element, int, tuple[str, ...]]] = [
            (root, parent_depth + 1, tuple(ancestor_tags))
        ]
        while stack:
            element, depth, chain = stack.pop()
            work += 1 + len(chain)
            tag = element.tag
            self.element_count += sign
            _inc(self.tag_counts, tag, sign)
            _inc(self.depth_histogram, depth, sign)
            _inc(self.child_pairs, (chain[0], tag), sign)
            _inc(self.child_parent_totals, chain[0], sign)
            _inc(self.child_child_totals, tag, sign)
            self.child_total += sign
            for ancestor_tag in chain:
                _inc(self.deep_pairs, (ancestor_tag, tag), sign)
                _inc(self.deep_parent_totals, ancestor_tag, sign)
            _inc(self.deep_child_totals, tag, sign * len(chain))
            self.deep_total += sign * len(chain)
            children = element.child_elements()
            _inc(self.fanout_histogram, len(children), sign)
            for name, value in element.attributes.items():
                _inc(self.attr_occurrences, name, sign)
                if sign > 0:
                    self._track_value(name, value)
                else:
                    self.attr_inexact.add(name)
            child_chain = (tag,) + chain
            for child in children:
                stack.append((child, depth + 1, child_chain))
        return work

    def set_attribute(
        self, name: str, old: Optional[str], new: Optional[str]
    ) -> None:
        """Register one attribute edit (set / overwrite / remove)."""
        if old is None and new is not None:
            _inc(self.attr_occurrences, name, 1)
            self._track_value(name, new)
        elif old is not None and new is None:
            _inc(self.attr_occurrences, name, -1)
            self.attr_inexact.add(name)
        elif new is not None and new != old:
            self._track_value(name, new)
            self.attr_inexact.add(name)

    def _track_value(self, name: str, value: str) -> None:
        seen = self.attr_values.setdefault(name, set())
        if len(seen) >= DISTINCT_CAP:
            self.attr_inexact.add(name)
            return
        seen.add(value)
        if len(seen) >= DISTINCT_CAP:
            self.attr_inexact.add(name)

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> DocumentStatistics:
        """Freeze the current state into a :class:`DocumentStatistics`."""
        attributes = {}
        for name, count in self.attr_occurrences.items():
            if count <= 0:
                continue
            distinct = len(self.attr_values.get(name, ()))
            attributes[name] = ValueSketch(
                occurrences=count,
                distinct=max(1, min(distinct, count)) if distinct else 0,
                exact=name not in self.attr_inexact,
            )
        return DocumentStatistics(
            element_count=self.element_count,
            tag_counts=dict(self.tag_counts),
            depth_histogram=dict(self.depth_histogram),
            fanout_histogram=dict(self.fanout_histogram),
            child_pairs=dict(self.child_pairs),
            child_parent_totals=dict(self.child_parent_totals),
            child_child_totals=dict(self.child_child_totals),
            child_total=self.child_total,
            deep_pairs=dict(self.deep_pairs),
            deep_parent_totals=dict(self.deep_parent_totals),
            deep_child_totals=dict(self.deep_child_totals),
            deep_total=self.deep_total,
            attributes=attributes,
        )


class CardinalityEstimator:
    """Pool and edge-pair estimates over one document's statistics.

    ``None`` tags mean wildcards throughout and resolve against the
    row/column/total aggregates, so every (tag, wildcard) combination has
    an exact answer rather than an independence guess.
    """

    def __init__(self, statistics: DocumentStatistics) -> None:
        self._statistics = statistics

    @property
    def statistics(self) -> DocumentStatistics:
        return self._statistics

    def pool(self, tag: Optional[str]) -> int:
        """Candidate-pool size for a box with ``tag`` (``None`` = wildcard)."""
        if tag is None:
            return self._statistics.element_count
        return self._statistics.tag_counts.get(tag, 0)

    def edge_pairs(
        self,
        parent_tag: Optional[str],
        child_tag: Optional[str],
        deep: bool = False,
    ) -> int:
        """Exact pair count one containment arc relates, over whole pools."""
        s = self._statistics
        if deep:
            if parent_tag is None and child_tag is None:
                return s.deep_total
            if parent_tag is None:
                return s.deep_child_totals.get(child_tag, 0)  # type: ignore[arg-type]
            if child_tag is None:
                return s.deep_parent_totals.get(parent_tag, 0)
            return s.deep_pairs.get((parent_tag, child_tag), 0)
        if parent_tag is None and child_tag is None:
            return s.child_total
        if parent_tag is None:
            return s.child_child_totals.get(child_tag, 0)  # type: ignore[arg-type]
        if child_tag is None:
            return s.child_parent_totals.get(parent_tag, 0)
        return s.child_pairs.get((parent_tag, child_tag), 0)

    def scaled_edge_pairs(
        self,
        parent_tag: Optional[str],
        child_tag: Optional[str],
        deep: bool,
        parent_pool: int,
        child_pool: int,
    ) -> float:
        """Pair estimate scaled to narrowed pools.

        The exact counts cover *whole* tag pools; anchoring, required
        attributes and constant circles narrow the actual pools, so the
        count is scaled by each endpoint's kept fraction (uniformity
        assumption, clamped to 1).
        """
        raw = self.edge_pairs(parent_tag, child_tag, deep)
        if raw <= 0:
            return 0.0
        parent_fraction = parent_pool / max(1, self.pool(parent_tag))
        child_fraction = child_pool / max(1, self.pool(child_tag))
        return raw * min(1.0, parent_fraction) * min(1.0, child_fraction)

    def attribute_selectivity(self, name: str) -> float:
        """Kept fraction of an ``@name = constant`` predicate (1.0 unknown)."""
        sketch = self._statistics.attributes.get(name)
        if sketch is None:
            return 1.0
        return sketch.selectivity


def balanced_partition(weights: Sequence[int], groups: int) -> list[list[int]]:
    """Split item indices into ``groups`` near-equal-weight groups.

    Greedy longest-processing-time: items are placed heaviest-first onto
    the currently lightest group, a 4/3-approximation of the optimal
    makespan — good enough to keep shard wall times balanced.  Weights are
    whatever cost proxy the caller has (the sharded executor uses element
    counts, the same statistic the cost model's pools are built from).

    Returns at most ``groups`` lists of indices into ``weights``; empty
    groups are dropped, and within a group the original order is kept so
    shard-major iteration stays deterministic.
    """
    if groups < 1:
        raise ValueError("groups must be at least 1")
    count = min(groups, len(weights))
    if count == 0:
        return []
    # (load, group position) heap; ties broken by position for determinism.
    heap: list[tuple[int, int]] = [(0, position) for position in range(count)]
    assignment: list[list[int]] = [[] for _ in range(count)]
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    for item in order:
        load, position = heapq.heappop(heap)
        assignment[position].append(item)
        heapq.heappush(heap, (load + weights[item], position))
    for bucket in assignment:
        bucket.sort()
    return [bucket for bucket in assignment if bucket]
