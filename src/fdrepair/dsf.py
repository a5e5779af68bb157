"""Disjoint set forest over the rows of a relation.

The forest is flat: one numpy array holds the root row of every row, and
``tids`` is the int64 tid array it was given, uncopied. ``merge`` is its
only mutator. It unions every group of rows sharing a label by hooking each
root onto the least root of its groups and pointer jumping until nothing
changes (in the manner of Shiloach and Vishkin, J. Algorithms 1982), so
every tree stays of height at most one and ``class_count`` stays exact.
"""

import numpy as np

from .relation import _unique_tids


def _jump(parent):
    """Follow parent pointers until every row points at a fixed point."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


class DisjointSetForest:

    def __init__(self, tids=()):
        self.tids = _unique_tids(tids)
        self._root = np.arange(len(self.tids))
        self.class_count = len(self.tids)

    def roots(self):
        """The root row of every row, as an array."""
        return self._root

    def merge(self, rows, labels):
        """Union the classes of all ``rows`` that share a label.

        ``labels`` are small non-negative integers, one per row.
        """
        if len(rows) == 0:
            return
        comp = self._root
        heads = comp[rows]
        while True:
            least = np.full(labels.max() + 1, len(comp))
            np.minimum.at(least, labels, comp[heads])
            hooked = comp.copy()
            np.minimum.at(hooked, heads, least[labels])
            hooked = _jump(hooked)
            if np.array_equal(hooked, comp):
                break
            comp = hooked
        self._root = comp
        self.class_count = int((comp == np.arange(len(comp))).sum())

    def classes(self):
        """Partition of the tids, ordered by minimal member tid."""
        order = np.lexsort((self.tids, self._root))
        cuts = np.flatnonzero(np.diff(self._root[order])) + 1
        return sorted(part.tolist() for part in
                      np.split(self.tids[order], cuts) if len(part))
