"""Disjoint set forest over the rows of a relation.

The forest is flat: one numpy array holds the root row of every row, and
``tids`` lists the tuple id of each row. ``merge`` is its only mutator. It
unions every group of rows sharing a label by hooking each root onto the
least root of its groups and pointer jumping until nothing changes (in the
manner of Shiloach and Vishkin, J. Algorithms 1982), so every tree stays of
height at most one and ``class_count`` stays exact.
"""

import numpy as np

from .relation import _first_duplicate


def _jump(parent):
    """Follow parent pointers until every row points at a fixed point."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


class DisjointSetForest:

    def __init__(self, tids=()):
        self.tids = list(tids)
        if len(set(self.tids)) != len(self.tids):
            tid = self.tids[_first_duplicate(self.tids)]
            raise ValueError("tid %r already registered" % (tid,))
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
        by_root = {}
        for tid, root in zip(self.tids, self._root.tolist()):
            by_root.setdefault(root, []).append(tid)
        members = [sorted(group) for group in by_root.values()]
        members.sort(key=lambda group: group[0])
        return members
