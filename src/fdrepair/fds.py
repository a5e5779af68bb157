"""Functional dependencies: implication, projection and minimal covers.

An FD is written X -> a with a non-empty attribute set X and a single
right-hand side attribute. Implication is decided through attribute
closures; minimal covers are computed deterministically given input order.
"""

from dataclasses import dataclass

import numpy as np

from .relation import NULL, SchemaError


@dataclass(frozen=True)
class FD:
    lhs: frozenset
    rhs: str

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("FD left-hand side must be non-empty")
        object.__setattr__(self, "lhs", frozenset(self.lhs))

    @property
    def attributes(self):
        return self.lhs | {self.rhs}

    def __str__(self):
        return "%s -> %s" % (",".join(sorted(self.lhs)), self.rhs)


def attribute_closure(attrs, fds):
    """Smallest superset S of ``attrs`` with rhs in S for every FD whose lhs is in S."""
    closure = set(attrs)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.rhs not in closure and fd.lhs <= closure:
                closure.add(fd.rhs)
                changed = True
    return frozenset(closure)


def implies(fds, fd):
    """True iff ``fd`` holds in every relation satisfying ``fds``."""
    return fd.rhs in attribute_closure(fd.lhs, fds)


def minimal_cover(fds):
    """Equivalent FD list with irreducible left-hand sides and no redundant FDs.

    Trivial FDs (rhs in lhs) are dropped. Left-hand sides are reduced one
    attribute at a time against the full set; redundant FDs are then removed
    in a fixed scan order, so the result is deterministic given input order.
    """
    work = []
    for fd in fds:
        if fd.rhs in fd.lhs:
            continue
        if fd not in work:
            work.append(fd)

    # lhs reduction: drop attributes whose removal keeps the FD implied
    for i, fd in enumerate(work):
        lhs = set(fd.lhs)
        for b in sorted(fd.lhs):
            if len(lhs) == 1:
                break
            reduced = frozenset(lhs - {b})
            if fd.rhs in attribute_closure(reduced, work):
                lhs.discard(b)
        work[i] = FD(frozenset(lhs), fd.rhs)

    deduped = []
    for fd in work:
        if fd not in deduped:
            deduped.append(fd)

    # redundancy elimination
    cover = list(deduped)
    for fd in deduped:
        rest = [f for f in cover if f != fd]
        if implies(rest, fd):
            cover = rest
    return cover


def project_fds(fds, z):
    """The FDs of ``fds`` whose attributes all lie in ``z`` (syntactic projection)."""
    z = set(z)
    return [fd for fd in fds if fd.lhs <= z and fd.rhs in z]


def group_rows(rel, attrs, null_equals_null=True):
    """Group the rows by their ``attrs`` values: (ids, may).

    ``ids`` gives each row a small non-negative group id, equal for two rows
    exactly when their values on ``attrs`` are equal. ``may`` marks the rows
    that may group with others: all of them, or, with ``null_equals_null``
    off, those without a NULL in ``attrs``, since a NULL key never matches
    any other key, NULL included.
    """
    n = len(rel)
    ids = np.zeros(n, dtype=np.int64)
    may = np.ones(n, dtype=bool)
    size = 1  # ids < size
    for a in attrs:
        codes = rel.codes(a)
        ids = ids * len(rel.values(a)) + codes
        size *= len(rel.values(a))
        if size > 2 * n + 2:  # keep ids below 2n + 2, products in int64
            uniq, ids = np.unique(ids, return_inverse=True)
            size = len(uniq)
        if not null_equals_null:
            may &= codes != NULL
    return ids, may


def mixed_rows(groups, codes):
    """Mask of the rows whose group (``groups``, small non-negative ids)
    shows two or more distinct ``codes``."""
    if not len(groups):
        return np.zeros(0, dtype=bool)
    codes = codes.astype(np.int64)
    least = np.full(groups.max() + 1, np.iinfo(np.int64).max)
    most = np.full(groups.max() + 1, -1)
    np.minimum.at(least, groups, codes)
    np.maximum.at(most, groups, codes)
    return (least != most)[groups]


def violates(rel, fd, null_equals_null=True):
    """Tid groups sharing lhs values but showing >= 2 distinct rhs values.

    Groups come in order of their first row and list their tids in row
    order. Only violated groups are materialised as tid lists, as in a
    stripped-partition check.
    """
    ids, may = group_rows(rel, sorted(fd.lhs), null_equals_null)
    rows = np.flatnonzero(may)
    ids = ids[rows]
    bad = mixed_rows(ids, rel.codes(fd.rhs)[rows])
    if not bad.any():
        return []
    rows, ids = rows[bad], ids[bad]
    _, first, group_of = np.unique(ids, return_index=True, return_inverse=True)
    first = first[group_of]  # position of each row's first group member
    order = np.argsort(first, kind="stable")
    rows, first = rows[order], first[order]
    cuts = np.flatnonzero(np.diff(first)) + 1
    return [part.tolist() for part in np.split(rel.tid_array()[rows], cuts)]


def parse_fd(line, schema=None):
    """Parse one ``lhs1,lhs2 -> rhs`` expression."""
    if "->" not in line:
        raise ValueError("malformed FD %r: expected 'lhs -> rhs'" % (line,))
    lhs_text, _, rhs_text = line.partition("->")
    lhs = [a.strip() for a in lhs_text.split(",") if a.strip()]
    rhs = rhs_text.strip()
    if not lhs or not rhs:
        raise ValueError("malformed FD %r: empty side" % (line,))
    if schema is not None:
        for a in lhs + [rhs]:
            if a not in schema:
                raise SchemaError("FD %r uses unknown attribute %r" % (line, a))
    return FD(frozenset(lhs), rhs)


def parse_fds(text, schema=None):
    """Parse an FD file body: one FD per line, ``#`` starts a comment."""
    fds = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fd = parse_fd(line, schema)
        if fd not in fds:
            fds.append(fd)
    return fds


def load_fds(path, schema=None):
    with open(path, encoding="utf-8") as fh:
        return parse_fds(fh.read(), schema)


def save_fds(fds, path):
    with open(path, "w", encoding="utf-8") as fh:
        for fd in fds:
            fh.write(str(fd) + "\n")
