"""Per-class repair engine.

Repairs one partition class at a time. FDs whose whole lhs lies in earlier
classes (pilot FDs) go first; the rest are ordered by estimated attribute
reliability: the more tuples an attribute would need changed under
independent per-FD majority resolution (Vio), the earlier its FDs run.
Each FD in this order has a pending flag, and the lowest flagged FD is
polled next. A disjoint set forest per attribute, over the relation's rows
in order, records which tuples must end up with equal values; fixing an FD
merges forest classes and rewrites every multi-valued class with the
attribute's repair function. When a fix changes an attribute appearing in
the lhs of an already-processed FD, that FD is flagged again for revision;
unary FDs whose lhs attribute uses a preservative function skip that step.
Cyclic unary classes of three or more attributes share one forest, built
from every FD of the class before the first poll, which is what makes the
skip sound there (see ``shares_forest``). A closing sweep flags anything
still violated as a backstop.

All of it runs on the relation's integer codes. One grouping primitive,
``group_rows``, turns an lhs into group ids, which ``update_dsf`` merges
into the forest in bulk; ``fix`` finds the forest classes holding two or
more rhs values with array operations. One counting kernel, ``_tally``,
sums votes per (group, code) pair both for Vio (lhs groups, one vote per
row) and for the array vote ``fix`` runs for ``mv``/``wv`` (forest classes,
weighted as the function declares). Each keeps its own tie rule: Vio
settles ties itself (see ``_minority_rows``), and the vote hands a class
whose top is tied to the repair function. Other repair functions are
called once per class. Results and the seeded rng stream are those of a
row-by-row run.
"""

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .dsf import DisjointSetForest
from .fds import group_rows, mixed_rows, violates
from .relation import NULL


class RepairInvariantError(AssertionError):
    """A repair broke one of its invariants: the final satisfaction sweep
    found a violated FD, the partition is not forward-repairable, or a class
    repair ran past its iteration bound."""


@dataclass
class RepairStats:
    """Counters for one class repair."""
    fixes_per_fd: Counter = field(default_factory=Counter)
    polls_per_fd: Counter = field(default_factory=Counter)
    revisions: int = 0
    cells_changed: int = 0
    vio_sizes: dict = field(default_factory=dict)
    priority: list = field(default_factory=list)


class ChangeLog(Sequence):
    """The (tid, attribute, old value, new value) records of a repair, in the
    order the cells changed. Fixes record whole arrays of codes; the tuples
    are only built when the log is read."""

    def __init__(self):
        self._parts = []  # (tids, attribute, code -> value list, old, new)
        self._records = None

    def record(self, tids, attr, values, old, new):
        self._parts.append((tids, attr, values, old, new))
        self._records = None

    def _decoded(self):
        if self._records is None:
            self._records = []
            for tids, attr, values, old, new in self._parts:
                self._records.extend(zip(
                    tids.tolist(), repeat(attr),
                    map(values.__getitem__, old.tolist()),
                    map(values.__getitem__, new.tolist())))
        return self._records

    def __len__(self):
        return sum(len(part[0]) for part in self._parts)

    def __getitem__(self, i):
        return self._decoded()[i]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._decoded() == list(other)

    def __repr__(self):
        return repr(self._decoded())


def _tally(groups, codes, weights=None):
    """Sum ``weights`` (1 per row by default) per (group, code) pair of the
    rows, and find each group's top.

    Returns ``(row_group, n_top, winner, tops)``: the dense group index of
    each row; per group, how many codes share its largest total and one of
    those codes; and the (group, code) pairs at their group's top, as two
    arrays in ascending (group, code) order. Totals are exact integers.
    """
    k = int(codes.max()) + 1
    pairs, row_pair = np.unique(groups.astype(np.int64, copy=False) * k
                                + codes, return_inverse=True)
    if weights is None:
        totals = np.bincount(row_pair)
    else:
        totals = np.zeros(len(pairs), dtype=np.int64)
        np.add.at(totals, row_pair, weights)
    is_first = np.diff(pairs // k, prepend=-1) != 0
    group = np.cumsum(is_first) - 1
    top = totals == np.maximum.reduceat(totals, np.flatnonzero(is_first))[group]
    top_group, top_code = group[top], (pairs % k)[top]
    winner = np.zeros(group[-1] + 1, dtype=codes.dtype)
    winner[top_group] = top_code
    return (group[row_pair], np.bincount(top_group), winner,
            (top_group, top_code))


def _group_min(row_group, keys, n_groups):
    """The least of ``keys`` (one per row) in each group."""
    least = np.full(n_groups, keys.max())
    np.minimum.at(least, row_group, keys)
    return least


def _minority_rows(rel, fd, rng, null_equals_null):
    """Mask of the rows whose rhs value differs from their lhs group's
    majority value.

    Several values sharing a group's top count are sorted with NULL last
    and settled by ``rng.choice``; such groups draw in order of their first
    row. Rows that may not group (NULL keys under NULL-unequal semantics)
    are groups of one and never differ.
    """
    minority = np.zeros(len(rel), dtype=bool)
    ids, may = group_rows(rel, sorted(fd.lhs), null_equals_null)
    rows = np.flatnonzero(may)
    if not len(rows):
        return minority
    codes = rel.codes(fd.rhs)[rows]
    row_group, n_top, winner, (top_group, top_code) = _tally(ids[rows], codes)
    tied = np.flatnonzero(n_top > 1)
    if len(tied):
        candidates = {}
        is_tied = n_top[top_group] > 1
        for g, c in zip(top_group[is_tied].tolist(),
                        top_code[is_tied].tolist()):
            candidates.setdefault(g, []).append(c)
        first = _group_min(row_group, np.arange(len(rows)), len(n_top))
        values = rel.values(fd.rhs)
        for g in tied[np.argsort(first[tied], kind="stable")].tolist():
            winner[g] = rng.choice(sorted(candidates[g], key=lambda c: (
                c == NULL, values[c])))
    minority[rows] = codes != winner[row_group]
    return minority


def _tids_of(rel, mask):
    return set(rel.tid_array()[mask].tolist())


def _vio_rows(rel, a, cover, rng, null_equals_null):
    minority = np.zeros(len(rel), dtype=bool)
    for fd in cover:
        if fd.rhs == a:
            minority |= _minority_rows(rel, fd, rng, null_equals_null)
    return minority


def vio_fd(rel, fd, rng, null_equals_null=True):
    """Tuples whose rhs value differs from the per-group majority."""
    return _tids_of(rel, _minority_rows(rel, fd, rng, null_equals_null))


def vio(rel, a, cover, rng, null_equals_null=True):
    """Union of vio_fd over all cover FDs with rhs == a."""
    return _tids_of(rel, _vio_rows(rel, a, cover, rng, null_equals_null))


def estimate_priority(rel, class_attrs, cover, rng, null_equals_null=True):
    """Class attributes ordered for repair: larger |Vio| first, then by
    schema index. Returns (ordered attributes, per-attribute |Vio|)."""
    sizes = {a: int(_vio_rows(rel, a, cover, rng, null_equals_null).sum())
             for a in class_attrs}
    order = sorted(class_attrs,
                   key=lambda a: (-sizes[a], rel.schema.index(a)))
    return order, sizes


def pilot_fds(class_attrs, fds_i, priority=None):
    """Split the class's FDs into (pilot, non_pilot).

    Pilots (lhs disjoint from the class) keep declaration order; the rest
    are sorted by the priority rank of their rhs, ties by declaration order.
    """
    cls = set(class_attrs)
    pilots = [fd for fd in fds_i if not (fd.lhs & cls)]
    rest = [fd for fd in fds_i if fd.lhs & cls]
    if priority is not None:
        rank = {a: i for i, a in enumerate(priority)}
        rest.sort(key=lambda fd: rank[fd.rhs])
    return pilots, rest


def update_dsf(rel, fd, dsf, null_equals_null=True):
    """Merge forest classes so tuples with equal lhs values share a root.

    The forest must be over the relation's tids in row order.
    """
    if not np.array_equal(dsf.tids, rel.tid_array()):
        raise ValueError("the forest's tids are not the relation's tids "
                         "in row order")
    ids, may = group_rows(rel, sorted(fd.lhs), null_equals_null)
    dsf.merge(np.flatnonzero(may), ids[may])


def _null_counts(rel, rows):
    return sum((rel.codes(a)[rows] == NULL).astype(np.int64)
               for a in rel.schema.attributes)


def _vote(rel, fn, rows, classes, old):
    """Sum a voting function's weights per (class, code) pair of the rows.

    Returns each row's dense class index, its class's top code, and a mask
    of the rows whose class has two or more codes sharing the top; the top
    code of such a class is one of them, left for ``fn`` to settle.
    """
    weights = None
    if fn.vote_exponent:
        nulls = _null_counts(rel, rows)
        weights = (len(rel.schema) - nulls) ** fn.vote_exponent
    row_class, n_top, winner, _ = _tally(classes, old, weights)
    return row_class, winner[row_class], n_top[row_class] > 1


def _call_per_class(rel, fd, fn, rng, rows, tids, least):
    """Call ``fn`` once per class (the rows sharing a ``least`` tid),
    classes by least tid and each bag's values and NULL counts in tid
    order; returns each row's new code."""
    order = np.lexsort((tids, least))
    rows, least = rows[order], least[order]
    bounds = [0, *(np.flatnonzero(np.diff(least)) + 1).tolist(), len(rows)]
    bag = list(map(rel.values(fd.rhs).__getitem__,
                   rel.codes(fd.rhs)[rows].tolist()))
    null_counts = _null_counts(rel, rows).tolist()
    width = len(rel.schema)
    new = np.empty(len(rows), dtype=rel.codes(fd.rhs).dtype)
    for start, end in zip(bounds, bounds[1:]):
        v_fix = fn(bag[start:end], null_counts[start:end], width, rng)
        new[order[start:end]] = rel.encode(fd.rhs, v_fix)
    return new


def fix(rel, fd, dsf, fn, rng, stats=None, change_log=None,
        null_equals_null=True):
    """Fix violations of ``fd``: after updating the forest, rewrite every
    class showing more than one rhs value with the repair function.
    Returns the number of violated classes.

    A voting function (``fn.vote_exponent`` set) first votes on codes over
    all classes at once: weights are summed per (class, code) pair, and a
    class whose top is one code takes it, which is the value ``fn`` would
    return, since no tie arises. Each winner is a (class, code) pair
    occurring in the class, so this vote is preservative by construction.
    The classes whose top is tied, and every class of any other function,
    are passed to ``fn`` itself, once per class, classes in order of their
    least tid and each bag's values and NULL counts in tid order; so the
    rng draws the ties of ``majority_vote``/``weighted_vote`` exactly as a
    call per class would. The change log lists classes by least tid and
    cells by tid.
    """
    update_dsf(rel, fd, dsf, null_equals_null)
    codes = rel.codes(fd.rhs)
    comp = dsf.roots()
    rows = np.flatnonzero(mixed_rows(comp, codes))
    if not len(rows):
        return 0
    tids = rel.tid_array()[rows]
    old = codes[rows]
    if fn.vote_exponent is None:
        _, row_class = np.unique(comp[rows], return_inverse=True)
        new = np.empty_like(old)
        called = np.ones(len(rows), dtype=bool)
    else:
        row_class, new, called = _vote(rel, fn, rows, comp[rows], old)
    n_classes = int(row_class.max()) + 1
    least = _group_min(row_class, tids, n_classes)[row_class]
    if called.any():
        new[called] = _call_per_class(rel, fd, fn, rng, rows[called],
                                      tids[called], least[called])
    changed = np.flatnonzero(new != old)
    changed = changed[np.lexsort((tids[changed], least[changed]))]
    rows, tids, old, new = (a[changed] for a in (rows, tids, old, new))
    if change_log is not None:
        change_log.record(tids, fd.rhs, rel.values(fd.rhs), old, new)
    if stats is not None:
        stats.cells_changed += len(rows)
    codes[rows] = new
    return n_classes


def skip_revision_unary(fd, functions):
    """Unary FDs whose lhs attribute repairs preservatively never need revision.

    With one forest per attribute this holds for classes of at most two
    attributes; larger cyclic classes get one shared forest instead (see
    ``shares_forest``), under which it holds again.
    """
    if len(fd.lhs) != 1:
        return False
    (a,) = fd.lhs
    fn = functions.get(a)
    return fn is not None and fn.preservative


def shares_forest(class_attrs, fds_i, functions):
    """True for classes repaired with one tuple forest for all attributes:
    three or more attributes, every FD whose lhs meets the class unary, and
    every class attribute repaired preservatively.

    Such a class is a cycle of unary FDs, so its attributes are functionally
    equivalent. Merging the shared forest on every FD of the class before
    the first poll leaves no two components sharing a value on any class
    attribute; a preservative rewrite picks a member's value and keeps it
    so. No fix can then merge components or undo an earlier fix, and each
    FD needs exactly one poll. Per-attribute forests lose this past two
    attributes: a fix of ``Y -> b`` rewrites ``b`` in classes of the ``b``
    forest, and tuples that now share a ``b`` value were never merged in
    the ``c`` forest, so an already fixed ``b -> c`` breaks again.
    """
    cls = set(class_attrs)
    return (len(cls) >= 3
            and all(len(fd.lhs) == 1 for fd in fds_i if fd.lhs & cls)
            and all(functions[a].preservative for a in cls))


def priority_repair(rel, fds_i, class_attrs, functions, rng, stats=None,
                    change_log=None, priority=None, null_equals_null=True,
                    skip_unary_revision=True):
    """Repair one partition class in place (mutates ``rel``).

    ``functions`` maps attribute -> RepairFunction. ``priority`` overrides
    the estimated attribute order (manual supervisor input).
    """
    if stats is None:
        stats = RepairStats()
    pilots, rest = pilot_fds(class_attrs, fds_i, priority=None)
    if rest:
        if priority is None:
            priority, stats.vio_sizes = estimate_priority(
                rel, class_attrs, fds_i, rng, null_equals_null)
        _, rest = pilot_fds(class_attrs, fds_i, priority)
    stats.priority = list(priority or [])
    ordered = pilots + rest
    pending = [True] * len(ordered)  # polled lowest index first
    if shares_forest(class_attrs, fds_i, functions):
        shared = DisjointSetForest(rel.tid_array())
        for fd in ordered:
            update_dsf(rel, fd, shared, null_equals_null)
        forests = dict.fromkeys(class_attrs, shared)
    else:
        forests = {a: DisjointSetForest(rel.tid_array()) for a in class_attrs}

    # Termination guard: every productive pass merges forest classes, so
    # polls are bounded by roughly |fds_i| * (n + 1).
    budget = (len(ordered) + 1) * (len(rel) + 2)
    while True:
        while True in pending:
            budget -= 1
            if budget < 0:
                raise RepairInvariantError(
                    "priority repair exceeded its iteration bound")
            i = pending.index(True)
            pending[i] = False
            fd = ordered[i]
            stats.polls_per_fd[fd] += 1
            fixes = fix(rel, fd, forests[fd.rhs], functions[fd.rhs], rng,
                        stats, change_log, null_equals_null)
            stats.fixes_per_fd[fd] += fixes
            if fixes:
                for j, other in enumerate(ordered):
                    if pending[j] or fd.rhs not in other.lhs:
                        continue
                    if skip_unary_revision and skip_revision_unary(other, functions):
                        continue
                    pending[j] = True
                    stats.revisions += 1
        # Closing sweep: the backstop for the unary-revision shortcut, which
        # flags again anything a skipped revision left violated. Shared
        # forests make the shortcut sound on cyclic classes of three or more
        # attributes; NULL-unequal two-attribute classes with pilot FDs can
        # still need it.
        still_bad = [j for j, fd in enumerate(ordered)
                     if violates(rel, fd, null_equals_null)]
        if not still_bad:
            return stats
        for j in still_bad:
            pending[j] = True
            stats.revisions += 1
