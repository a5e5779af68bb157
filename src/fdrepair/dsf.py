"""Disjoint set forest over the rows 0..n-1 of a relation.

The forest is flat: one numpy array holds the root row of every row, and
rows are known by position alone. ``merge`` is its only mutator. Given one
label per row, it unions every group of rows sharing a label, in the manner
of Shiloach and Vishkin (J. Algorithms 1982): each round takes every
label's least root and stops if every row already has it; if not, it hooks
each row's root onto that least root and pointer jumps until every tree has
height at most one. A fresh forest needs no rounds: each label's least row
becomes its root in one pass. Every class's root stays its least row,
``class_count`` stays exact, and a merge replaces the root array rather
than write into one it handed out.
"""

import numpy as np


def _jump(parent):
    """Follow parent pointers until every row points at a fixed point."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


class DisjointSetForest:

    def __init__(self, n):
        self._root = np.arange(n)
        self.class_count = n

    def roots(self):
        """The root row of every row, as an array."""
        return self._root

    def merge(self, labels):
        """Union the classes of all rows that share a label.

        ``labels`` are small non-negative integers, one per row. A merge
        that changes nothing costs one round: one ``np.minimum.at`` over
        the roots and one compare. A fresh forest needs no rounds: each
        label's least row becomes its root in one pass. Raises ValueError
        unless there is one label per row.
        """
        comp = self._root
        n = len(comp)
        if len(labels) != n:
            raise ValueError("%d labels for %d rows" % (len(labels), n))
        least = np.full(labels.max(initial=0) + 1, n)
        if self.class_count == n:
            np.minimum.at(least, labels, comp)
            self._root = least[labels]
            self.class_count = int((least < n).sum())
            return
        while True:
            np.minimum.at(least, labels, comp)
            target = least[labels]
            if np.array_equal(comp, target):
                break
            hooked = comp.copy()
            np.minimum.at(hooked, comp, target)
            comp = _jump(hooked)
            least[:] = n
        if comp is not self._root:
            self._root = comp
            self.class_count = int((comp == np.arange(n)).sum())

    def classes(self):
        """Partition of the rows, each class in row order, ordered by least
        row: each class's root is its least row."""
        order = np.argsort(self._root, kind="stable")
        cuts = np.flatnonzero(np.diff(self._root[order])) + 1
        return [part.tolist() for part in np.split(order, cuts) if len(part)]
