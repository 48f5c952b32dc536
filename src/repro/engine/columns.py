"""Columnar kernels over sorted ``pre``-label arrays.

The set-at-a-time pipeline keeps candidate pools and edge relations as
**columns**: flat sorted vectors of unique int ids.  For documents the ids
are the interval index's gap ``pre`` labels — the same labels every other
index lookup speaks — and the index's ``pre -> element`` side table defers
object materialisation to hash-join assembly; every semi-join before that
is integer work.

This module holds the int-only kernels that representation enables:

* :func:`intersect_sorted` — semi-joins as sorted-array intersections
  (galloping binary search when one side is much smaller);
* :func:`containment_pairs` / :func:`containment_count` — an
  ancestor/descendant arc between two pools, answered per parent by two
  binary searches over the child pre column against the parent's
  ``(pre, post]`` interval;
* :func:`direct_pairs` — a parent/child arc, answered per child by
  comparing its parent label with a membership probe into the parent pool.

The kernels never index a column by an id, so ids need not be dense:
per-id attributes (``post``, parent) come in as columns *aligned* with the
pool they describe.  Every kernel has a pure-Python ``array('i')``
implementation and an optional numpy fast path behind a feature probe:
numpy is **not** a dependency — when it is importable, inputs of at least
``_NUMPY_MIN`` items take the vectorised route, otherwise everything runs
on :mod:`array` + :mod:`bisect`.  Both paths produce identical output.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Optional, Sequence

__all__ = [
    "HAVE_NUMPY",
    "column",
    "containment_count",
    "containment_pairs",
    "direct_pairs",
    "intersect_sorted",
    "member_filter",
    "unique_sorted",
]

try:  # feature probe — numpy is optional, never required
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

#: Whether the numpy fast path is available in this process.
HAVE_NUMPY = _np is not None

#: Below this input size the numpy call overhead beats the win.
_NUMPY_MIN = 256


def _use_numpy(size: int) -> bool:
    return _np is not None and size >= _NUMPY_MIN


def _as_np(col: Sequence[int]):
    """Zero-copy numpy view of an ``array('i')`` (copying otherwise)."""
    if isinstance(col, array):
        return _np.frombuffer(col, dtype=_np.int32)
    return _np.asarray(col, dtype=_np.int32)


def _from_np(values) -> array:
    out = array("i")
    out.frombytes(values.astype(_np.int32, copy=False).tobytes())
    return out


def column(values: Iterable[int] = ()) -> array:
    """A fresh int column."""
    return array("i", values)


def unique_sorted(values: Iterable[int]) -> array:
    """Sorted de-duplicated column from arbitrary int values."""
    return array("i", sorted(set(values)))


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> array:
    """Intersection of two sorted unique columns, sorted ascending.

    Gallops the smaller column through the larger via binary search when
    the size ratio is lopsided; otherwise streams the smaller side through
    a membership set (both O-optimal in CPython for their regime).
    """
    if len(a) > len(b):
        a, b = b, a
    if not a or not b:
        return array("i")
    if _use_numpy(len(b)):
        na, nb = _as_np(a), _as_np(b)
        idx = _np.searchsorted(nb, na)
        idx_c = _np.minimum(idx, len(nb) - 1)
        return _from_np(na[nb[idx_c] == na])
    out = array("i")
    if len(b) >= 16 * len(a):
        hi = len(b)
        for value in a:
            i = bisect_left(b, value, 0, hi)
            if i < hi and b[i] == value:
                out.append(value)
    else:
        members = set(b)
        out.extend(value for value in a if value in members)
    return out


def containment_count(
    parent_pres: Sequence[int],
    parent_posts: Sequence[int],
    child_pres: Sequence[int],
) -> int:
    """Number of pairs :func:`containment_pairs` would materialise."""
    if not parent_pres or not child_pres:
        return 0
    if _use_numpy(len(parent_pres) + len(child_pres)):
        np_child = _as_np(child_pres)
        los = _np.searchsorted(np_child, _as_np(parent_pres), side="right")
        his = _np.searchsorted(np_child, _as_np(parent_posts), side="right")
        return int((his - los).sum())
    total = 0
    hi_bound = len(child_pres)
    for pre, post in zip(parent_pres, parent_posts):
        lo = bisect_right(child_pres, pre)
        if lo >= hi_bound:
            continue
        total += bisect_right(child_pres, post, lo) - lo
    return total


def containment_pairs(
    parent_pres: Sequence[int],
    parent_posts: Sequence[int],
    child_pres: Sequence[int],
) -> tuple[array, array]:
    """All ``(ancestor pre, descendant pre)`` pairs between two pools.

    ``parent_pres`` and ``child_pres`` must be sorted ascending;
    ``parent_posts[i]`` is the ``post`` label of ``parent_pres[i]``.  A
    child ``c`` is a proper descendant of parent ``p`` iff
    ``p < c <= post(p)``, so each parent contributes one contiguous bisect
    range of the child column.  Output is sorted lexicographically by
    ``(parent, child)``.
    """
    left = array("i")
    right = array("i")
    if not parent_pres or not child_pres:
        return left, right
    if _use_numpy(len(parent_pres) + len(child_pres)):
        np_child = _as_np(child_pres)
        np_parent = _as_np(parent_pres)
        los = _np.searchsorted(np_child, np_parent, side="right")
        his = _np.searchsorted(np_child, _as_np(parent_posts), side="right")
        counts = his - los
        total = int(counts.sum())
        if total == 0:
            return left, right
        reps = _np.repeat(_np.arange(len(np_parent)), counts)
        # Each output slot maps to one child index: its parent's ``lo``
        # plus the slot's offset within the parent's run.
        offsets = _np.arange(total) - _np.repeat(
            counts.cumsum() - counts, counts
        )
        return (
            _from_np(np_parent[reps]),
            _from_np(np_child[los[reps] + offsets]),
        )
    hi_bound = len(child_pres)
    for pre, post in zip(parent_pres, parent_posts):
        lo = bisect_right(child_pres, pre)
        if lo >= hi_bound:
            continue
        hi = bisect_right(child_pres, post, lo)
        if hi > lo:
            left.extend(array("i", [pre]) * (hi - lo))
            right.extend(child_pres[lo:hi])
    return left, right


def direct_pairs(
    parent_pres: Sequence[int],
    child_parents: Sequence[int],
    child_pres: Sequence[int],
) -> tuple[array, array]:
    """All ``(parent pre, child pre)`` pairs joined by the parent pointer.

    ``child_parents[i]`` is the parent's ``pre`` label of
    ``child_pres[i]`` (``-1`` at the root).  Each child costs one
    membership probe into the sorted parent pool.  Output is sorted by
    child; within one parent, children ascend.
    """
    left = array("i")
    right = array("i")
    if not parent_pres or not child_pres:
        return left, right
    if _use_numpy(len(child_pres)):
        np_child = _as_np(child_pres)
        np_parents_of = _as_np(child_parents)
        np_pool = _as_np(parent_pres)
        idx = _np.searchsorted(np_pool, np_parents_of)
        idx_c = _np.minimum(idx, len(np_pool) - 1)
        mask = (np_parents_of >= 0) & (np_pool[idx_c] == np_parents_of)
        return _from_np(np_parents_of[mask]), _from_np(np_child[mask])
    members = set(parent_pres)
    for pre, parent in zip(child_pres, child_parents):
        if parent >= 0 and parent in members:
            left.append(parent)
            right.append(pre)
    return left, right


def member_filter(pool: Sequence[int], keep: Optional[set]) -> array:
    """``pool`` restricted to members of ``keep`` (order preserved)."""
    if keep is None:
        return array("i", pool)
    return array("i", (value for value in pool if value in keep))
