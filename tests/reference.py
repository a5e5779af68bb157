"""Row-by-row references for the repair engine: Vio, one fix, and a whole
``swipe``, as loops over decoded rows with a union-find over tids.

The engine (``fdrepair.priority``) works on integer codes in whole-array
passes and claims the outputs and rng stream of a row-by-row run. These
loops are that run. They share only the engine's policy: ``plan``,
``fds_by_entering_class``, ``pilot_fds``, ``shares_forest`` and
``skip_revision_unary``; the repair functions are called on whole bags,
and the results are kept in the engine's ``RepairStats`` record. Each
takes ``rel`` for its schema and tids and ``rows``, lists of cells that a
fix rewrites in place, for the cells as they stand.

``every_revision`` makes every revision, where the engine takes the
paper's unary-revision shortcut in the classes where it is proven: tests
compare the shortcut's outputs against that run.
"""

import random
from collections import Counter

from fdrepair.partition import fds_by_entering_class
from fdrepair.priority import (RepairInvariantError, RepairStats, pilot_fds,
                               shares_forest, skip_revision_unary)
from fdrepair.repair_functions import get_function
from fdrepair.swipe import plan


class RowUnionFind:
    """The reference's own union-find over tids, one union at a time."""

    def __init__(self, tids):
        self.parent = {tid: tid for tid in tids}

    def find(self, tid):
        parent = self.parent
        while parent[tid] != tid:
            parent[tid] = tid = parent[parent[tid]]  # path halving
        return tid

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)

    def classes(self):
        by_root = {}
        for tid in self.parent:
            by_root.setdefault(self.find(tid), []).append(tid)
        return sorted((sorted(c) for c in by_root.values()),
                      key=lambda c: c[0])


def lhs_groups(rel, rows, fd, null_equals_null):
    """The (tid, row) pairs grouped by their ``fd.lhs`` values, groups in
    order of their first row; under NULL-unequal semantics a key holding a
    NULL is a group of its own."""
    lhs = map(rel.schema.index, sorted(fd.lhs))
    keys = zip(*([row[i] for row in rows] for i in lhs))
    groups = {}
    for tid, row, key in zip(rel.tids, rows, keys):
        if not null_equals_null and None in key:
            key = ("\0tid", tid)
        groups.setdefault(key, []).append((tid, row))
    return groups.values()


def vio_fd_reference(rel, rows, fd, rng, null_equals_null):
    """Row-by-row majority per lhs group; ties drawn in first-row order."""
    rhs = rel.schema.index(fd.rhs)
    out = set()
    for members in lhs_groups(rel, rows, fd, null_equals_null):
        counts = Counter(row[rhs] for _, row in members)
        best = max(counts.values())
        tied = sorted((v for v, c in counts.items() if c == best),
                      key=lambda v: (v is None, v))
        majority = tied[0] if len(tied) == 1 else rng.choice(tied)
        out.update(tid for tid, row in members if row[rhs] != majority)
    return out


def union_lhs_groups(rel, rows, fd, forest, null_equals_null):
    """Union in ``forest`` the tids of each lhs group, one at a time."""
    for members in lhs_groups(rel, rows, fd, null_equals_null):
        for tid, _ in members[1:]:
            forest.union(tid, members[0][0])


def fix_reference(rel, rows, fd, forest, fn, rng, null_equals_null):
    """Row-by-row fix on ``rows`` (mutated) with single unions in
    ``forest``, a ``RowUnionFind``; returns the number of fixes."""
    union_lhs_groups(rel, rows, fd, forest, null_equals_null)
    rhs = rel.schema.index(fd.rhs)
    by_tid = dict(zip(rel.tids, rows))
    fixes = 0
    for cls in forest.classes():
        members = [by_tid[t] for t in cls]
        values = [row[rhs] for row in members]
        if len(set(values)) <= 1:
            continue
        nulls = [row.count(None) for row in members]
        v_fix = fn(values, nulls, len(rel.schema), rng)
        for row in members:
            row[rhs] = v_fix
        fixes += 1
    return fixes


def takes_shortcut(class_attrs, fds_i, functions, null_equals_null):
    """True for the classes where the unary-revision shortcut can save a
    revision: some FD's lhs meets the class (no other FD is ever revised),
    and the shortcut is proven there (see ``skip_revision_unary``): the
    class shares one forest, or has at most two attributes under
    NULL-equal semantics. Elsewhere a run making every revision is the same
    run."""
    cls = set(class_attrs)
    return any(fd.lhs & cls for fd in fds_i) and (
        shares_forest(class_attrs, fds_i, functions)
        or (len(cls) <= 2 and null_equals_null))


def priority_reference(rel, rows, fds_i, class_attrs, functions, rng,
                       priority=None, null_equals_null=True,
                       every_revision=False):
    """``priority_repair`` as a row loop on ``rows`` (mutated); returns its
    RepairStats.

    Vio sizes order the class unless ``priority`` is given; pilots go
    first. A class that ``shares_forest`` merges its one forest on every
    FD before the first poll; any other class keeps one forest per rhs.
    The lowest pending FD is polled next, and each fix flags again every
    processed FD whose lhs holds the rhs, unless the unary shortcut is
    proven for the class and ``every_revision`` is off.
    """
    stats = RepairStats()
    cls = set(class_attrs)
    if priority is None and any(fd.lhs & cls for fd in fds_i):
        for a in class_attrs:
            minority = set()
            for fd in fds_i:
                if fd.rhs == a:
                    minority |= vio_fd_reference(rel, rows, fd, rng,
                                                 null_equals_null)
            stats.vio_sizes[a] = len(minority)
        priority = sorted(class_attrs, key=lambda a: (
            -stats.vio_sizes[a], rel.schema.index(a)))
    stats.priority = list(priority or [])
    pilots, rest = pilot_fds(class_attrs, fds_i, priority)
    ordered = pilots + rest
    shared = shares_forest(class_attrs, fds_i, functions)
    if shared:
        forest = RowUnionFind(rel.tids)
        for fd in ordered:
            union_lhs_groups(rel, rows, fd, forest, null_equals_null)
        forests = dict.fromkeys(class_attrs, forest)
    else:
        forests = {fd.rhs: RowUnionFind(rel.tids) for fd in ordered}
    skip = not every_revision and takes_shortcut(class_attrs, fds_i,
                                                 functions, null_equals_null)
    pending = [True] * len(ordered)
    while True in pending:
        i = pending.index(True)
        pending[i] = False
        fd = ordered[i]
        stats.polls_per_fd[fd] += 1
        fixes = fix_reference(rel, rows, fd, forests[fd.rhs],
                              functions[fd.rhs], rng, null_equals_null)
        stats.fixes_per_fd[fd] += fixes
        if not fixes:
            continue
        for j, other in enumerate(ordered):
            if (not pending[j] and fd.rhs in other.lhs
                    and not (skip and skip_revision_unary(other, functions))):
                pending[j] = True
                stats.revisions += 1
    return stats


def swipe_reference(rel, fds, repair_fn, seed, null_equals_null=True,
                    every_revision=False):
    """``swipe(rel, fds, repair_fn, seed=seed, ...)`` as a row loop: returns
    the repaired rows, each class's RepairStats and the rng after the last
    draw. Raises RepairInvariantError, as ``swipe`` does, for a partition
    that is not forward repairable or an input FD left violated."""
    cover, part, _ = plan(fds, rel.schema, null_equals_null)
    rng = random.Random(seed)
    functions = dict.fromkeys(rel.schema.attributes, get_function(repair_fn))
    rows = rel.rows
    stats = [priority_reference(rel, rows, fds_i, cls, functions, rng,
                                null_equals_null=null_equals_null,
                                every_revision=every_revision)
             for cls, fds_i in zip(part.classes,
                                   fds_by_entering_class(cover, part))]
    for fd in fds:
        rhs = rel.schema.index(fd.rhs)
        if any(len({row[rhs] for _, row in members}) > 1
               for members in lhs_groups(rel, rows, fd, null_equals_null)):
            raise RepairInvariantError("repair left %s violated" % fd)
    return rows, stats, rng
