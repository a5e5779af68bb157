"""Attribute partitioning for forward repair.

From a minimal cover we build a preorder over the attributes: (b, a) means
"b should not occur after a". Its transitive closure induces equivalence
classes (mutual reachability), and a topological sort of the quotient gives
an ordered partition whose classes can be repaired one at a time, each by
changing only its own attributes. That partition is maximally refined:
splitting any class breaks the property.
"""

from dataclasses import dataclass, field

import numpy as np

from .fds import project_fds


@dataclass
class Preorder:
    """Reflexive, transitively closed boolean relation over attributes."""
    attributes: list
    matrix: np.ndarray  # matrix[b, a]: b should not occur after a


@dataclass
class Partition:
    """Ordered disjoint attribute classes; earlier classes are repaired first."""
    classes: list = field(default_factory=list)  # list of sorted attribute lists

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def attributes(self):
        return [a for cls in self.classes for a in cls]

    def prefix(self, i):
        """Union of the first ``i`` classes."""
        out = set()
        for cls in self.classes[:i]:
            out.update(cls)
        return out


def build_preorder(cover, schema):
    """Preorder on the cover's attributes, closed under transitivity.

    Contains (b, a) for every lhs attribute b of every FD with rhs a.
    Attributes are listed in schema order; closure is Warshall-style.
    """
    attrs = [a for a in schema.attributes
             if any(a in fd.attributes for fd in cover)]
    pos = {a: i for i, a in enumerate(attrs)}
    n = len(attrs)
    m = np.eye(n, dtype=bool)
    for fd in cover:
        for b in fd.lhs:
            m[pos[b], pos[fd.rhs]] = True
    for k in range(n):
        m |= np.outer(m[:, k], m[k, :])
    return Preorder(attrs, m)


def induced_partition(pre, schema):
    """Equivalence classes of mutual reachability, topologically sorted.

    Ties between order-incomparable classes are broken by the minimum
    schema index of their attributes, so the result is deterministic.
    """
    attrs, m = pre.attributes, pre.matrix
    n = len(attrs)
    both = m & m.T
    assigned = [-1] * n
    classes = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        members = [j for j in range(n) if both[i, j]]
        for j in members:
            assigned[j] = len(classes)
        classes.append(members)

    # quotient edges: (b, a) in P+ across classes puts b's class first
    n_cls = len(classes)
    preds = [set() for _ in range(n_cls)]
    for b in range(n):
        for a in range(n):
            if m[b, a] and assigned[b] != assigned[a]:
                preds[assigned[a]].add(assigned[b])

    def rank(c):
        return min(schema.index(attrs[j]) for j in classes[c])

    order = []
    remaining = set(range(n_cls))
    placed = set()
    while remaining:
        ready = [c for c in remaining if preds[c] <= placed]
        nxt = min(ready, key=rank)
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)

    return Partition([sorted((attrs[j] for j in classes[c]), key=schema.index)
                      for c in order])


def fds_entering_at(cover, part, i):
    """FDs first in scope at class ``i`` (1-based): in the prefix projection
    of the first i classes but not of the first i-1."""
    prev = project_fds(cover, part.prefix(i - 1))
    return [fd for fd in project_fds(cover, part.prefix(i)) if fd not in prev]


def check_forward_repairable(part, cover):
    """True iff every FD entering at class i has its rhs in that class."""
    covered = set()
    for fd in cover:
        covered |= fd.attributes
    if not covered <= set(part.attributes()):
        return False
    for i, cls in enumerate(part.classes, start=1):
        for fd in fds_entering_at(cover, part, i):
            if fd.rhs not in cls:
                return False
    return True


def assert_maximally_refined(part, cover, max_class_size=12):
    """True iff no single-class split leaves the partition forward repairable.

    Enumerates every way of splitting one class into two non-empty halves,
    placed adjacently in either order. Classes larger than
    ``max_class_size`` make the enumeration infeasible and raise ValueError.
    """
    for i, cls in enumerate(part.classes):
        size = len(cls)
        if size < 2:
            continue
        if size > max_class_size:
            raise ValueError("class %r too large for exhaustive split check" % (cls,))
        for mask in range(1, 1 << (size - 1)):
            half_a = [a for j, a in enumerate(cls) if mask >> j & 1]
            half_b = [a for a in cls if a not in half_a]
            for first, second in ((half_a, half_b), (half_b, half_a)):
                split = Partition(part.classes[:i] + [first, second] + part.classes[i + 1:])
                if check_forward_repairable(split, cover):
                    return False
    return True
