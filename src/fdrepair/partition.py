"""Attribute partitioning for forward repair.

From a minimal cover we build a preorder over the attributes: (b, a) means
"b should not occur after a". Its transitive closure induces equivalence
classes (mutual reachability), and a topological sort of the quotient gives
an ordered partition whose classes can be repaired one at a time, each by
changing only its own attributes. That partition is maximally refined:
splitting any class breaks the property.

An FD enters scope at its entering class: the last class holding one of
its attributes, the first whose prefix of classes holds them all. Swipe
repairs each FD there, so the partition is forward repairable when every
FD's entering class holds its rhs.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Preorder:
    """Reflexive, transitively closed boolean relation over attributes."""
    attributes: list
    matrix: np.ndarray  # matrix[b, a]: b should not occur after a


@dataclass
class Partition:
    """Ordered disjoint attribute classes; earlier classes are repaired first."""
    classes: list = field(default_factory=list)  # list of sorted attribute lists

    def attributes(self):
        return [a for cls in self.classes for a in cls]


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
    assigned = np.full(len(attrs), -1)
    classes = []
    for i in range(len(attrs)):
        if assigned[i] < 0:
            members = np.flatnonzero(m[i] & m[:, i])
            assigned[members] = len(classes)
            classes.append(members.tolist())

    # quotient edges: b reaches every member of a class once it reaches one
    # (the closure is transitive), and then b's class comes first
    preds = [set(assigned[m[:, members[0]]].tolist()) - {c}
             for c, members in enumerate(classes)]

    def rank(c):
        return min(schema.index(attrs[j]) for j in classes[c])

    order, remaining = [], set(range(len(classes)))
    while remaining:  # a class is ready once none of its predecessors remain
        order.append(min((c for c in remaining
                          if preds[c].isdisjoint(remaining)), key=rank))
        remaining.remove(order[-1])

    return Partition([sorted((attrs[j] for j in classes[c]), key=schema.index)
                      for c in order])


def _class_index(part):
    """Attribute -> 1-based index of its class."""
    return {a: i for i, cls in enumerate(part.classes, start=1) for a in cls}


def _entering(fd, where):
    """``fd``'s entering class under the index ``where``; ``math.inf``
    (it never enters) if an attribute lies outside the partition."""
    return max(where.get(a, math.inf) for a in fd.attributes)


def fds_entering_at(cover, part, i):
    """FDs first in scope at class ``i`` (1-based), those whose entering
    class is ``i``: in the prefix projection of the first i classes but not
    of the first i-1. An FD with an attribute outside ``part`` never enters."""
    where = _class_index(part)
    return [fd for fd in cover if _entering(fd, where) == i]


def fds_by_entering_class(cover, part):
    """Per class of ``part``, in order, the FDs of ``cover`` entering there
    (see ``fds_entering_at``), found in one pass over the cover."""
    where = _class_index(part)
    entering = {i: [] for i in range(1, len(part.classes) + 1)}
    for fd in cover:  # an FD that never enters goes to a list dropped here
        entering.get(_entering(fd, where), []).append(fd)
    return list(entering.values())


def check_forward_repairable(part, cover):
    """True iff every FD's attributes lie in ``part`` and its entering class
    holds its rhs."""
    where = _class_index(part)
    return all(_entering(fd, where) == where.get(fd.rhs) for fd in cover)

