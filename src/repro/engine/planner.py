"""Match-order and join-tree planning.

Backtracking pattern matching is exponentially sensitive to the order in
which pattern nodes are assigned, and the set-at-a-time pipeline needs a
rooted join tree whose reduction order visits small relations first.  The
planner picks an order that is

1. *selective first* — start from the pattern node with the fewest data
   candidates (estimated from index label counts), and
2. *connected* — every subsequent node is adjacent to an already-planned
   node whenever the pattern is connected, so structural checks (or
   semi-joins) prune as early as possible.

The planner is deliberately engine-agnostic: it sees pattern nodes as
opaque ids with a candidate-count estimate and an adjacency relation, so
the XML-GL document matcher, the WG-Log graph matcher and the join
pipeline all share it.  The ``enabled=False`` path preserves the input
order — that is the ablation baseline (EXT-A1 in DESIGN.md).

The selection loop is heap-based: attachment counts (how many already
placed neighbours a node has) are maintained incrementally and stale heap
entries are discarded lazily, so planning costs ``O((N + E) log N)``
instead of the quadratic ``min(remaining, key=rank)`` rescan it replaces —
noticeable now that the pipeline plans a join tree per query fragment.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Iterable, Mapping, Sequence

__all__ = ["plan_order"]

NodeId = Hashable


def plan_order(
    nodes: Sequence[NodeId],
    estimate: Callable[[NodeId], int],
    adjacency: Mapping[NodeId, Iterable[NodeId]],
    enabled: bool = True,
) -> list[NodeId]:
    """Choose an assignment order for pattern nodes.

    Args:
        nodes: the pattern node ids to order.
        estimate: candidate-count estimate per node (lower = more selective).
        adjacency: undirected pattern adjacency (ids absent from the map are
            treated as isolated).
        enabled: when false, return ``nodes`` unchanged (planner ablation).

    Returns:
        A list containing every id from ``nodes`` exactly once.  Ranking is
        most-attached-first, then lowest estimate, then input position (the
        same total order the quadratic rescan produced).
    """
    if not enabled:
        return list(nodes)
    estimates = {node: estimate(node) for node in nodes}
    position = {node: i for i, node in enumerate(nodes)}
    attached = {node: 0 for node in nodes}

    # Heap entries are (-attached, estimate, position); stale entries (an
    # attachment count bumped after push) are skipped on pop.
    heap: list[tuple[int, int, int]] = [
        (0, estimates[node], position[node]) for node in nodes
    ]
    heapq.heapify(heap)
    by_position = list(nodes)

    order: list[NodeId] = []
    placed: set[NodeId] = set()
    while heap:
        neg_attached, _, pos = heapq.heappop(heap)
        node = by_position[pos]
        if node in placed or -neg_attached != attached[node]:
            continue
        order.append(node)
        placed.add(node)
        for neighbour in adjacency.get(node, ()):
            if neighbour in attached and neighbour not in placed:
                attached[neighbour] += 1
                heapq.heappush(
                    heap,
                    (-attached[neighbour], estimates[neighbour], position[neighbour]),
                )
    return order
