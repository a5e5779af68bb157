import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdrepair.dsf import DisjointSetForest


def merge_pairs(d, pairs):
    """Merge each pair of rows into one class. A merge takes one label per
    row, so the pairs go in several merges in sequence, a new one whenever
    a pair names a row the current merge has already labelled."""
    n = len(d.roots())
    labels, used = np.arange(n), set()
    for a, b in pairs:
        if used & {a, b}:
            d.merge(labels)
            labels, used = np.arange(n), set()
        labels[b] = a
        used |= {a, b}
    d.merge(labels)


def test_makeset_self_root():
    d = DisjointSetForest(3)
    assert d.roots().tolist() == [0, 1, 2]


def test_makeset_counts():
    d = DisjointSetForest(10)
    assert d.class_count == 10


def test_union_connects():
    d = DisjointSetForest(2)
    merge_pairs(d, [(0, 1)])
    assert d.roots()[0] == d.roots()[1]


def test_union_same_element():
    d = DisjointSetForest(2)
    merge_pairs(d, [(0, 0)])
    assert d.classes() == [[0], [1]]
    assert d.class_count == 2


def test_union_decrements_class_count():
    d = DisjointSetForest(2)
    merge_pairs(d, [(0, 1)])
    assert d.class_count == 1


@pytest.mark.parametrize("n_labels", [0, 2, 4])
def test_merge_needs_one_label_per_row(n_labels):
    d = DisjointSetForest(3)
    with pytest.raises(ValueError, match="%d labels for 3 rows" % n_labels):
        d.merge(np.zeros(n_labels, dtype=np.int64))
    assert d.roots().tolist() == [0, 1, 2]


def test_paper_style_classes():
    d = DisjointSetForest(6)
    # two lhs groups, then two pairs chaining them
    d.merge(np.array([0, 0, 2, 3, 1, 1]))
    merge_pairs(d, [(1, 2), (2, 3)])
    assert d.classes() == [[0, 1, 2, 3], [4, 5]]
    roots = d.roots()
    assert roots[2] == roots[0]
    assert roots[4] == roots[5]
    assert roots[0] != roots[4]
    assert d.class_count == 2


def test_classes_fresh():
    assert DisjointSetForest(2).classes() == [[0], [1]]


def test_classes_all_union():
    d = DisjointSetForest(5)
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
    d = DisjointSetForest(n)
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60),
       st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=20),
       st.lists(st.dictionaries(st.integers(0, 59), st.integers(0, 6)),
                min_size=1, max_size=3))
def test_increasing_rows_match_quotient_oracle(n, pairs, merges):
    # one label per row, as update_dsf passes them: rows in ``labelled``
    # take any label, the rest a label of their own; into a fresh forest
    # when ``pairs`` is empty, else into one they already merged; each
    # merge leaves earlier root arrays alone
    d = DisjointSetForest(n)
    oracle = QuotientOracle(range(n))
    pairs = [(a, b) for a, b in pairs if a < n and b < n]
    if pairs:
        merge_pairs(d, pairs)
    for a, b in pairs:
        oracle.union(a, b)
    for labelled in merges:
        labels = np.array([labelled.get(r, 7 + r) for r in range(n)],
                          dtype=np.int64)
        before = d.roots()
        kept = before.copy()
        d.merge(labels)
        assert np.array_equal(before, kept)
        for label in set(labels.tolist()):
            group = np.flatnonzero(labels == label).tolist()
            for r in group[1:]:
                oracle.union(group[0], r)
        assert d.classes() == oracle.classes()
        assert d.class_count == len(oracle.classes())
        for cls in oracle.classes():  # every class's root is its least row
            assert d.roots()[cls].tolist() == [cls[0]] * len(cls)
