"""Per-class repair engine.

Repairs one partition class at a time. FDs whose whole lhs lies in earlier
classes (pilot FDs) go first; the rest are ordered by estimated attribute
reliability: the more tuples an attribute would need changed under
independent per-FD majority resolution (Vio), the earlier its FDs run.
Each FD in this order has a pending flag, and the lowest flagged FD is
polled next. A disjoint set forest per attribute that some FD enters, over
the relation's row positions, records which tuples must end up with equal
values; fixing an FD merges forest classes and rewrites every class that
shows more than one value. When a fix changes an attribute in the lhs of
an already-processed FD, that FD is flagged again for revision, except
where skipping it is proven sound (``skip_revision_unary``). Every FD of a
class then holds once its repair drains.

All of it runs on the relation's integer codes, in whole-array passes, yet
results and the seeded rng stream are those of a row-by-row run: a pass
settles every group whose top is one value, and each tied group is settled
by its picker's tie rule in the order a row loop reaches it (``_majority``):
Vio's all in one more pass, a repair function's one call per group. A poll
whose forest has not changed since the last fix of its rhs finds every
class uniform, and ``fix`` returns at once. ``tests/reference.py`` is that
row-by-row run, and the tests hold whole repairs to it: rows, polls,
fixes, revisions and the rng state.
"""

import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dsf import DisjointSetForest
# Nothing here calls violates; perfbench/trace.py wraps it here by name.
from .fds import group_rows, mixed_rows, violates
from .relation import NULL

_log = logging.getLogger("fdrepair")

# The largest (group, code) grid _tally sums on, in cells per row: its int64
# totals then take at most 32 bytes a row, no more than np.unique allocates
# to sort the rows.
_GRID_PER_ROW = 4


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
    vio_sizes: dict = field(default_factory=dict)
    priority: list = field(default_factory=list)


def _dense(ids):
    """Number the distinct ``ids`` (small non-negative integers) 0, 1, ...
    in ascending order: returns each id's number and how many there are, as
    ``np.unique(ids, return_inverse=True)`` would, from a presence mask
    instead of a sort."""
    present = np.zeros(ids.max(initial=0) + 1, dtype=bool)
    present[ids] = True
    rank = np.cumsum(present) - 1
    return rank[ids], int(rank[-1]) + 1


def _fits_grid(n_groups, k, n_rows):
    """True if a table of ``n_groups`` groups by codes below ``k`` has at
    most ``_GRID_PER_ROW`` cells per row of ``n_rows``: ``_tally`` then
    sums on that whole grid."""
    return n_groups * k <= _GRID_PER_ROW * n_rows


def _sums(slots, weights, size):
    """``weights`` (1 per row by default) summed per slot, as int64."""
    if weights is None:
        return np.bincount(slots, minlength=size)
    totals = np.zeros(size, dtype=np.int64)
    np.add.at(totals, slots, weights)
    return totals


def _tally(groups, codes, weights=None):
    """Sum ``weights`` (non-negative, 1 per row by default) per (group,
    code) pair of the rows, and find each group's top.

    Returns ``(row_group, n_codes, n_top, winner, tops)``: the dense group
    index of each row; per group, how many codes occur in it, how many share
    its largest total and the largest of those; and the (group, code) pairs
    at their group's top, as two arrays in ascending (group, code) order.
    Only pairs that occur in the rows can be tops. Totals are exact integers.

    Groups are numbered by ``_dense``. With ``g`` groups and codes below
    ``k`` there are two paths, chosen by ``_fits_grid`` alone. On the grid
    path ``np.bincount`` counts the rows of every pair of the ``g * k``
    grid, and the pairs it counts are the ones that occur, so a pair of
    zero weight occurs too; weighted sums go into the whole grid by
    ``np.add.at``. Otherwise ``np.unique`` sorts the pairs that occur and
    the sums go per pair.
    """
    row_group, n_groups = _dense(groups)
    k = int(codes.max(initial=0)) + 1
    keys = row_group * k + codes
    if _fits_grid(n_groups, k, len(keys)):
        counts = np.bincount(keys, minlength=n_groups * k)
        pairs = np.flatnonzero(counts)  # the pairs that occur
        totals = (counts if weights is None
                  else _sums(keys, weights, len(counts)))[pairs]
    else:
        pairs, row_pair = np.unique(keys, return_inverse=True)
        totals = _sums(row_pair, weights, len(pairs))
    group, code = np.divmod(pairs, k)
    n_codes = np.bincount(group)  # every group has a run of pairs, in order
    starts = np.cumsum(n_codes) - n_codes
    top = totals == np.maximum.reduceat(totals, starts)[group]
    top_group, top_code = group[top], code[top].astype(codes.dtype)
    n_top = np.bincount(top_group)
    return (row_group, n_codes, n_top, top_code[np.cumsum(n_top) - 1],
            (top_group, top_code))  # winner: each group's last top


def _group_min(row_group, keys, n_groups):
    """The least of ``keys`` (one per row) in each group."""
    least = np.full(n_groups, keys.max())
    np.minimum.at(least, row_group, keys)
    return least


def _vio_rows(rel, a, cover, rng, null_equals_null):
    """Mask of the rows whose ``a`` value differs from their lhs group's
    majority value under some FD of ``cover`` with rhs ``a``.

    Several values sharing a group's top count are settled by Vio's tie
    rule, a seeded draw among them with NULL last (``_settle_vio_ties``),
    groups in order of their first row.
    NULL keys under NULL-unequal semantics are groups of one, which never
    tie and never differ.
    """
    codes = rel.codes(a)
    minority = np.zeros(len(codes), dtype=bool)
    rows = np.arange(len(codes))
    for fd in cover:
        if fd.rhs == a:
            ids = group_rows(rel, sorted(fd.lhs), null_equals_null)
            _, winner = _majority(rel, fd, None, rng, ids, codes, rows)
            minority |= codes != winner
    return minority


def vio(rel, a, cover, rng, null_equals_null=True):
    """Tids of the tuples whose ``a`` value differs from its lhs group's
    majority under some FD of ``cover`` with rhs ``a``; ``vio(rel, fd.rhs,
    [fd], rng)`` is the Vio of one FD."""
    mask = _vio_rows(rel, a, cover, rng, null_equals_null)
    return set(rel.tid_array()[mask].tolist())


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

    The forest must be over the relation's rows; ``merge`` raises
    ValueError unless it has one label per row.
    """
    dsf.merge(group_rows(rel, sorted(fd.lhs), null_equals_null))


def _null_counts(rel, rows):
    return sum((rel.codes(a)[rows] == NULL).astype(np.int64)
               for a in rel.schema.attributes)


def _majority(rel, fd, fn, rng, groups, codes, keys, weights=None):
    """Each group's majority of the rhs ``codes``, as ``fn`` settles ties.

    ``weights`` (1 per row by default) are summed per (group, code) pair
    over all groups at once, and a group whose top is one code takes it.
    With ``fn`` None, the tied groups are settled together by Vio's tie
    rule (``_settle_vio_ties``). Otherwise each tied group is handed to
    ``fn`` with just its tied values, once each at zero NULLs
    (``_call_per_class``): ``fn`` applies its own tie rule and makes the
    draw it would make on the whole bag. Either way each draw is the one a
    row loop makes, in order of the groups' least ``keys``.

    Returns the number of groups showing two or more codes and each row's
    new code.
    """
    row_group, n_codes, n_top, winner, (top_group, top_code) = _tally(
        groups, codes, weights)
    tied = n_top[top_group] > 1
    if tied.any():
        least = _group_min(row_group, keys, len(n_top))
        grp, code = top_group[tied], top_code[tied]
        if fn is None:
            grp, code = _settle_vio_ties(rel.values(fd.rhs), rng, least,
                                         n_top, grp, code)
        else:
            order = np.argsort(least[grp], kind="stable")
            grp = grp[order]
            code = _call_per_class(rel, fd, fn, rng, least[grp], code[order],
                                   np.zeros(len(grp), dtype=np.int64))
        winner[grp] = code
    return int(np.count_nonzero(n_codes > 1)), winner[row_group]


def _settle_vio_ties(values, rng, least, n_top, grp, code):
    """Settle every tied group in one pass by Vio's tie rule: the draw
    ``rng.choice`` makes among the group's tied values sorted, NULL last.

    ``grp`` and ``code`` are the tied (group, code) pairs in ascending
    order, ``n_top`` counts each group's pairs and ``values`` decodes the
    codes. The distinct tied codes are ranked by their values in one
    ``sorted`` call, NULL last. Each group takes ``rng.choice(range(n))``
    of its ``n`` tied codes in rank order, the draw ``rng.choice`` makes on
    any ``n`` values, in order of the groups' ``least`` keys. Returns the
    tied groups and each one's pick.
    """
    dense, k = _dense(code)
    distinct = np.empty(k, dtype=code.dtype)
    distinct[dense] = code
    texts = list(map(values.__getitem__, distinct.tolist()))
    null = int(distinct[0] == NULL)  # NULL is code 0, so first if tied
    by_text = sorted(range(null, k), key=texts.__getitem__)
    rank = np.empty(k, dtype=np.int64)
    rank[by_text + [0] * null] = np.arange(k)
    ranked = code[np.argsort(grp * k + rank[dense], kind="stable")]
    tied_groups = np.flatnonzero(n_top > 1)
    n = n_top[tied_groups]
    starts = np.cumsum(n) - n
    draws = np.argsort(least[tied_groups], kind="stable")
    starts[draws] += np.array(
        [rng.choice(range(m)) for m in n[draws].tolist()], dtype=np.int64)
    return tied_groups, ranked[starts]


def _call_per_class(rel, fd, fn, rng, least, codes, null_counts):
    """Call ``fn`` once per class, a run of entries sharing a ``least``
    key, on the values of its rhs ``codes`` and its ``null_counts``; the
    entries come sorted by least key. Returns each entry's new code; the
    picks are encoded together, after the last call."""
    bounds = [0, *(np.flatnonzero(np.diff(least)) + 1).tolist(), len(least)]
    bag = list(map(rel.values(fd.rhs).__getitem__, codes.tolist()))
    null_counts = null_counts.tolist()
    width = len(rel.schema)
    picks = [fn(bag[start:end], null_counts[start:end], width, rng)
             for start, end in zip(bounds, bounds[1:])]
    return np.repeat(rel.encode_all(fd.rhs, picks), np.diff(bounds))


def fix(rel, fd, dsf, fn, rng, null_equals_null=True, fixed_count=None):
    """Fix violations of ``fd``: after updating the forest, rewrite every
    class showing more than one rhs value with the repair function, in
    place. Returns the number of such (mixed) classes.

    ``fixed_count``, if given, is the forest's ``class_count`` right after
    the last fix that wrote ``fd.rhs``, made on this forest, with no write
    to ``fd.rhs`` since. If ``update_dsf`` leaves the count there, no class
    has merged since that fix left every class uniform, so fix returns 0 at
    once, as the full pass would, with no draw.

    A voting function (``fn.vote_exponent`` set) votes on codes over all
    classes at once (``_majority``, as Vio does), summing weights per
    (class, code) pair. If the forest's table of classes by rhs codes fits
    ``_tally``'s grid (``_fits_grid``), the vote runs on every row and
    counts the mixed classes itself; otherwise it runs on the rows of mixed
    classes only, found by ``mixed_rows``. A class whose top is one code
    takes it, which is the value ``fn`` would return, since no tie arises;
    each such winner is a (class, code) pair occurring in the class, so
    this vote is preservative by construction. A class whose top is tied is
    handed to ``fn`` with its tied values only, once each at zero NULLs,
    which settles it as the whole bag would: the same value and the same
    rng draw. Any other function is called once per class on its whole
    bag, values and NULL counts in tid order, after ``mixed_rows``; so is a
    voting function whose totals could pass int64 (``n * width ** e`` for
    ``n`` rows, at least ``2 ** 63``). Calls go in order of the classes'
    least tids, through ``_call_per_class``.
    """
    update_dsf(rel, fd, dsf, null_equals_null)
    if dsf.class_count == fixed_count:
        return 0
    codes = rel.codes(fd.rhs)
    comp = dsf.roots()
    e = fn.vote_exponent
    vote = e is not None and len(codes) * len(rel.schema) ** e < 2 ** 63
    if vote and _fits_grid(
            dsf.class_count, int(codes.max(initial=0)) + 1, len(codes)):
        rows = slice(None)  # _tally's grid holds every class: vote on all
    else:
        rows = np.flatnonzero(mixed_rows(comp, codes))
        if not len(rows):
            return 0
    tids = rel.tid_array()[rows]
    old = codes[rows]
    if not vote:
        row_class, n_classes = _dense(comp[rows])
        least = _group_min(row_class, tids, n_classes)
        order = np.lexsort((tids, least[row_class]))
        new = np.empty_like(old)
        new[order] = _call_per_class(
            rel, fd, fn, rng, least[row_class][order], old[order],
            _null_counts(rel, rows[order]))
    else:
        weights = ((len(rel.schema) - _null_counts(rel, rows)) ** e
                   if e else None)
        n_classes, new = _majority(rel, fd, fn, rng, comp[rows], old, tids,
                                   weights)
    if n_classes:
        codes[rows] = new
    return n_classes


def skip_revision_unary(fd, functions):
    """Unary FDs whose lhs attribute repairs preservatively never need revision.

    This is the per-FD test; ``priority_repair`` applies it only in classes
    where it is proven. With one forest per attribute it holds for classes
    of at most two attributes under NULL-equal semantics; under NULL-unequal
    semantics a vote can turn a NULL into a constant and so make lhs groups
    the other attribute's forest never merged. Larger cyclic classes share
    one forest instead (see ``shares_forest``), and there it holds under
    either semantics. Elsewhere, such as in a class of three or more
    attributes that a non-unary FD enters, every revision is made.
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


def priority_repair(rel, fds_i, class_attrs, functions, rng, priority=None,
                    null_equals_null=True):
    """Repair one partition class in place (mutates ``rel``) and return its
    RepairStats.

    ``functions`` maps attribute -> RepairFunction. ``priority`` overrides
    the estimated attribute order (manual supervisor input).
    """
    stats = RepairStats()
    cls = set(class_attrs)
    if priority is None and any(fd.lhs & cls for fd in fds_i):
        priority, stats.vio_sizes = estimate_priority(
            rel, class_attrs, fds_i, rng, null_equals_null)
    pilots, rest = pilot_fds(class_attrs, fds_i, priority)
    stats.priority = list(priority or [])
    ordered = pilots + rest
    pending = [True] * len(ordered)  # polled lowest index first
    shared = shares_forest(class_attrs, fds_i, functions)
    if shared:
        forest = DisjointSetForest(len(rel))
        for fd in ordered:
            update_dsf(rel, fd, forest, null_equals_null)
        forests = dict.fromkeys(class_attrs, forest)
    else:
        entered = {fd.rhs for fd in ordered}
        forests = {a: DisjointSetForest(len(rel))
                   for a in class_attrs if a in entered}
    # where the unary-revision shortcut is proven (see skip_revision_unary)
    skip = shared or (len(cls) <= 2 and null_equals_null)
    # per rhs, its forest's class_count after the rhs's last fix: only fixes
    # on that forest write the rhs, so a shared forest is kept per rhs too
    fixed_counts = {}

    # Termination guard: every productive pass merges forest classes, so
    # polls are bounded by roughly |fds_i| * (n + 1).
    budget = (len(ordered) + 1) * (len(rel) + 2)
    while True in pending:
        budget -= 1
        if budget < 0:
            raise RepairInvariantError(
                "priority repair exceeded its iteration bound")
        i = pending.index(True)
        pending[i] = False
        fd = ordered[i]
        stats.polls_per_fd[fd] += 1
        forest = forests[fd.rhs]
        fixes = fix(rel, fd, forest, functions[fd.rhs], rng,
                    null_equals_null, fixed_counts.get(fd.rhs))
        fixed_counts[fd.rhs] = forest.class_count
        stats.fixes_per_fd[fd] += fixes
        _log.debug("poll %s: %d fixes", fd, fixes)
        if fixes:
            for j, other in enumerate(ordered):
                if pending[j] or fd.rhs not in other.lhs:
                    continue
                if skip and skip_revision_unary(other, functions):
                    continue
                pending[j] = True
                stats.revisions += 1
    # Every FD X -> a holds here. Unless its revision was skipped where that
    # is proven, it was polled after the last write to X, which left the X
    # groups inside uniform classes of a's forest; every later write to a
    # rewrites whole classes of that forest.
    return stats
