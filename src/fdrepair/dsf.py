"""Disjoint set forest over tuple ids.

Tids are mapped to dense slots in registration order, and the parent/rank
tables are flat C-int arrays. Single operations use union by rank with
full path compression on find, giving near-constant amortized cost each.
Bulk operations work on whole slot arrays with numpy: ``merge`` unions
every group of slots sharing a label by hooking each root onto the least
root of its groups and pointer jumping until nothing changes (in the
manner of Shiloach and Vishkin), and ``roots`` flattens every path.
"""

from array import array

import numpy as np


def _jump(parent):
    """Follow parent pointers until every slot points at a fixed point."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


class DisjointSetForest:

    def __init__(self, tids=()):
        self._tids = list(tids)
        self._slot = None  # tid -> slot, built on first use
        if len(set(self._tids)) != len(self._tids):
            self._slots()  # raises, naming the first repeated tid
        n = len(self._tids)
        self._parent = array("i", np.arange(n, dtype=np.intc).tobytes())
        self._rank = array("b", bytes(n))
        self.class_count = n

    def __len__(self):
        return len(self._tids)

    def __contains__(self, tid):
        return tid in self._slots()

    def _slots(self):
        if self._slot is None:
            self._slot = {}
            for slot, tid in enumerate(self._tids):
                if tid in self._slot:
                    raise ValueError("tid %r already registered" % (tid,))
                self._slot[tid] = slot
        return self._slot

    def makeset(self, tid):
        slots = self._slots()
        if tid in slots:
            raise ValueError("tid %r already registered" % (tid,))
        slot = len(self._tids)
        slots[tid] = slot
        self._tids.append(tid)
        self._parent.append(slot)
        self._rank.append(0)
        self.class_count += 1

    def _find_slot(self, slot):
        parent = self._parent
        root = parent[slot]
        while parent[root] != root:
            root = parent[root]
        while parent[slot] != root:  # path compression
            parent[slot], slot = root, parent[slot]
        return root

    def find(self, tid):
        return self._tids[self._find_slot(self._slots()[tid])]

    def union(self, tid1, tid2):
        """Merge the classes of tid1 and tid2; False if already merged."""
        slots = self._slots()
        r1 = self._find_slot(slots[tid1])
        r2 = self._find_slot(slots[tid2])
        if r1 == r2:
            return False
        rank = self._rank
        if rank[r1] < rank[r2]:
            r1, r2 = r2, r1
        self._parent[r2] = r1
        if rank[r1] == rank[r2]:
            rank[r1] += 1
        self.class_count -= 1
        return True

    def slots(self, tids):
        """The slot of each of ``tids``, as an array."""
        if tids == self._tids:
            return np.arange(len(tids))
        slots = self._slots()
        return np.array([slots[tid] for tid in tids], dtype=np.intp)

    def roots(self):
        """The root slot of every slot, as an array; flattens every path."""
        roots = _jump(np.array(self._parent, dtype=np.intp))
        self._parent = array("i", roots.astype(np.intc).tobytes())
        return roots

    def merge(self, slots, labels):
        """Union the classes of all ``slots`` that share a label.

        ``labels`` are small non-negative integers, one per slot. Afterwards
        every tree is flat, and ``class_count`` is exact.
        """
        comp = self.roots()
        if len(slots) == 0:
            return
        heads = comp[slots]
        while True:
            least = np.full(labels.max() + 1, len(comp))
            np.minimum.at(least, labels, comp[heads])
            hooked = comp.copy()
            np.minimum.at(hooked, heads, least[labels])
            hooked = _jump(hooked)
            if np.array_equal(hooked, comp):
                break
            comp = hooked
        is_root = comp == np.arange(len(comp))
        self._parent = array("i", comp.astype(np.intc).tobytes())
        # a flat tree of two or more slots has height one
        has_child = np.bincount(comp, minlength=len(comp)) > 1
        self._rank = array("b", (is_root & has_child).astype(np.int8).tobytes())
        self.class_count = int(is_root.sum())

    def classes(self):
        """Partition of registered tids, ordered by minimal member tid."""
        by_root = {}
        for tid, root in zip(self._tids, self.roots().tolist()):
            by_root.setdefault(root, []).append(tid)
        members = [sorted(group) for group in by_root.values()]
        members.sort(key=lambda group: group[0])
        return members
