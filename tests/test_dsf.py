import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdrepair import DisjointSetForest, Relation, Schema


def merge_pairs(d, pairs):
    """Merge each pair of rows into one class, through one ``merge``."""
    rows = np.array(pairs, dtype=np.intp).reshape(-1)
    d.merge(rows, np.repeat(np.arange(len(pairs)), 2))


def test_makeset_self_root():
    d = DisjointSetForest([7, 3, 5])
    assert d.roots().tolist() == [0, 1, 2]


def test_makeset_counts():
    d = DisjointSetForest(range(10))
    assert d.class_count == 10


def test_forest_keeps_the_relation_tid_array():
    rel = Relation(Schema(["a"]), [4, 2, 9], [["x"], ["y"], ["z"]])
    d = DisjointSetForest(rel.tid_array())
    assert np.shares_memory(d.tids, rel.tid_array())
    assert d.classes() == [[2], [4], [9]]


def test_makeset_duplicate_rejected():
    with pytest.raises(ValueError, match="1"):
        DisjointSetForest([1, 2, 1])


def test_union_connects():
    d = DisjointSetForest([1, 2])
    merge_pairs(d, [(0, 1)])
    assert d.roots()[0] == d.roots()[1]


def test_union_same_element():
    d = DisjointSetForest([1, 2])
    merge_pairs(d, [(0, 0)])
    assert d.classes() == [[1], [2]]
    assert d.class_count == 2


def test_union_decrements_class_count():
    d = DisjointSetForest([1, 2])
    merge_pairs(d, [(0, 1)])
    assert d.class_count == 1


def test_paper_style_classes():
    d = DisjointSetForest(range(1, 7))
    # rows 0..5 hold tids 1..6; two lhs groups, then two pairs chaining them
    d.merge(np.array([0, 1, 4, 5]), np.array([0, 0, 1, 1]))
    merge_pairs(d, [(1, 2), (2, 3)])
    assert d.classes() == [[1, 2, 3, 4], [5, 6]]
    roots = d.roots()
    assert roots[2] == roots[0]
    assert roots[4] == roots[5]
    assert roots[0] != roots[4]
    assert d.class_count == 2


def test_classes_fresh():
    assert DisjointSetForest([1, 2]).classes() == [[1], [2]]


def test_classes_all_union():
    d = DisjointSetForest(range(5))
    merge_pairs(d, [(i, i + 1) for i in range(4)])
    assert d.classes() == [list(range(5))]


class QuotientOracle:
    """Naive quotient-set model of union-find."""

    def __init__(self, elements):
        self.sets = [{e} for e in elements]

    def union(self, a, b):
        sa = next(s for s in self.sets if a in s)
        sb = next(s for s in self.sets if b in s)
        if sa is sb:
            return
        self.sets.remove(sb)
        sa.update(sb)

    def classes(self):
        return sorted((sorted(s) for s in self.sets), key=lambda s: s[0])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 100), st.lists(st.tuples(st.integers(0, 99),
                                               st.integers(0, 99)), max_size=200),
       st.integers(1, 50))
def test_matches_quotient_oracle(n, unions, batch):
    # pairs are merged ``batch`` at a time, so later merges start from
    # forests that earlier ones built
    d = DisjointSetForest(range(n))
    oracle = QuotientOracle(range(n))
    pairs = [(a, b) for a, b in unions if a < n and b < n]
    for start in range(0, len(pairs), batch):
        merge_pairs(d, pairs[start:start + batch])
    for a, b in pairs:
        oracle.union(a, b)
    assert d.classes() == oracle.classes()
    assert d.class_count == len(oracle.classes())
    # rows share a root exactly when the oracle puts them in one class
    for cls in oracle.classes():
        assert len(set(d.roots()[cls].tolist())) == 1
