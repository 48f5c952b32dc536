"""Unit tests for the columnar kernels (repro.engine.columns).

Every kernel is checked against a brute-force oracle, on both backends
when numpy is importable.  A backend is pinned by monkeypatching the
module: ``_np = None`` forces the pure-Python path, ``_NUMPY_MIN = 0``
sends every input down the vectorised one — so one test run covers both
paths with identical inputs.
"""

import random
from array import array

import pytest

from repro.engine import columns
from repro.engine.columns import (
    HAVE_NUMPY,
    column,
    containment_count,
    containment_pairs,
    direct_pairs,
    intersect_sorted,
    member_filter,
    unique_sorted,
)

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


def pin(monkeypatch, backend: str) -> None:
    """Route every kernel input to ``backend`` for the rest of the test."""
    if backend == "python":
        monkeypatch.setattr(columns, "_np", None)
    else:
        monkeypatch.setattr(columns, "_NUMPY_MIN", 0)


@pytest.fixture(params=BACKENDS)
def pinned_backend(request, monkeypatch):
    pin(monkeypatch, request.param)
    return request.param


def random_tree_labels(rng: random.Random, count: int):
    """A random tree's ``(labels, post_of, parent_of)`` in gap labels.

    Built the way DocumentIndex labels elements: pre order, ``post`` is
    the largest label in the subtree, the root's parent is -1.  Labels are
    spaced irregularly, as after local edits, so the kernels never see
    dense ids.
    """
    parent_pre = [-1] * count
    for pre in range(1, count):
        parent_pre[pre] = rng.randint(max(0, pre - 4), pre - 1)
    posts = list(range(count))
    for pre in range(count - 1, 0, -1):
        ancestor = parent_pre[pre]
        while ancestor >= 0:
            posts[ancestor] = max(posts[ancestor], posts[pre])
            ancestor = parent_pre[ancestor]
    labels = []
    label = 0
    for _ in range(count):
        label += rng.randint(1, 64)
        labels.append(label)
    post_of = {labels[pre]: labels[posts[pre]] for pre in range(count)}
    parent_of = {
        labels[pre]: labels[parent_pre[pre]] if parent_pre[pre] >= 0 else -1
        for pre in range(count)
    }
    return labels, post_of, parent_of


class TestBasics:
    def test_backend_report(self, pinned_backend):
        vectorised = pinned_backend == "numpy"
        assert columns._use_numpy(1) is vectorised
        assert columns._use_numpy(10_000) is vectorised

    def test_column_and_unique_sorted(self):
        assert list(column([3, 1])) == [3, 1]
        assert list(unique_sorted([5, 1, 5, 3, 1])) == [1, 3, 5]
        assert isinstance(unique_sorted([2]), array)

    def test_member_filter(self):
        pool = column([1, 4, 9])
        assert list(member_filter(pool, {4, 9, 12})) == [4, 9]
        assert list(member_filter(pool, None)) == [1, 4, 9]
        assert list(member_filter(pool, set())) == []


class TestIntersectSorted:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_set_intersection(self, pinned_backend, seed):
        rng = random.Random(seed)
        universe = range(600)
        a = unique_sorted(rng.sample(universe, rng.randint(0, 300)))
        b = unique_sorted(rng.sample(universe, rng.randint(0, 300)))
        expected = sorted(set(a) & set(b))
        assert list(intersect_sorted(a, b)) == expected
        assert list(intersect_sorted(b, a)) == expected

    def test_lopsided_sizes_take_galloping_route(self, pinned_backend):
        small = column([5, 100, 400])
        big = unique_sorted(range(0, 500, 2))
        assert list(intersect_sorted(small, big)) == [100, 400]

    def test_empty_sides(self, pinned_backend):
        assert list(intersect_sorted(column(), column([1, 2]))) == []
        assert list(intersect_sorted(column([1, 2]), column())) == []


class TestContainmentKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_pairs_match_interval_oracle(self, pinned_backend, seed):
        rng = random.Random(seed)
        count = rng.randint(2, 400)
        labels, post_of, _ = random_tree_labels(rng, count)
        parents = unique_sorted(rng.sample(labels, rng.randint(1, count)))
        children = unique_sorted(rng.sample(labels, rng.randint(1, count)))
        posts = column(post_of[p] for p in parents)
        expected = [
            (p, c)
            for p in parents
            for c in children
            if p < c <= post_of[p]
        ]
        left, right = containment_pairs(parents, posts, children)
        assert sorted(zip(left, right)) == sorted(expected)
        assert containment_count(parents, posts, children) == len(expected)

    def test_empty_pools(self, pinned_backend):
        assert containment_count(column(), column(), column([0])) == 0
        left, right = containment_pairs(column([0]), column([64]), column())
        assert (list(left), list(right)) == ([], [])


class TestDirectPairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_pairs_match_parent_pointer_oracle(self, pinned_backend, seed):
        rng = random.Random(seed)
        count = rng.randint(2, 400)
        labels, _, parent_of = random_tree_labels(rng, count)
        parents = unique_sorted(rng.sample(labels, rng.randint(1, count)))
        children = unique_sorted(rng.sample(labels, rng.randint(1, count)))
        parent_members = set(parents)
        expected = [
            (parent_of[c], c)
            for c in children
            if parent_of[c] >= 0 and parent_of[c] in parent_members
        ]
        child_parents = column(parent_of[c] for c in children)
        left, right = direct_pairs(parents, child_parents, children)
        assert list(zip(left, right)) == expected


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
class TestBackendAgreement:
    """The two backends must be bit-identical on the same inputs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_all_kernels_agree(self, monkeypatch, seed):
        rng = random.Random(1000 + seed)
        count = 500  # above _NUMPY_MIN so auto would vectorise too
        labels, post_of, parent_of = random_tree_labels(rng, count)
        parents = unique_sorted(rng.sample(labels, 200))
        children = unique_sorted(rng.sample(labels, 300))
        posts = column(post_of[p] for p in parents)
        child_parents = column(parent_of[c] for c in children)
        results = {}
        for backend in ("python", "numpy"):
            with monkeypatch.context() as patched:
                pin(patched, backend)
                results[backend] = (
                    list(intersect_sorted(parents, children)),
                    containment_count(parents, posts, children),
                    tuple(
                        list(side)
                        for side in containment_pairs(parents, posts, children)
                    ),
                    tuple(
                        list(side)
                        for side in direct_pairs(parents, child_parents, children)
                    ),
                )
        assert results["python"] == results["numpy"]
