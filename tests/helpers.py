"""Helpers shared by several test modules: the example count of the
longer property tests, the random FD instances the property tests and the
output census draw, planted unary cycles, the census digest itself, an
exhaustive oracle for partition maximality, and a set-based reference for
``minimal_cover`` with the attribute closures it decides implication by.

The census repairs 3,600 generated instances and hashes every output into
one sha256, which ``tests/test_golden.py`` pins: any engine change that
moves one output byte, poll, fix or revision for a given seed fails there.
"""

import hashlib
import random

from hypothesis import settings

from fdrepair import FD, Relation, Schema, swipe
from fdrepair.fds import nontrivial
from fdrepair.partition import Partition, check_forward_repairable
from fdrepair.swipe import RepairInvariantError


def more(n):
    """``n`` examples, or the loaded profile's count where that is larger,
    as under ``--hypothesis-profile=ci``."""
    return max(n, settings().max_examples)


def random_relation(rng, k, null_rate):
    """Relation of ``k`` attributes and 30-200 rows over a domain of 2-5
    values, each cell NULL at ``null_rate``, and 1-k random FDs over it,
    all drawn from ``rng``."""
    attrs = ["a%d" % i for i in range(k)]
    n, d = rng.randint(30, 200), rng.randint(2, 5)
    rows = [[None if rng.random() < null_rate else str(rng.randrange(d))
             for _ in attrs] for _ in range(n)]
    fds = []
    for _ in range(rng.randint(1, k)):
        lhs = frozenset(rng.sample(attrs, rng.randint(1, min(3, k - 1))))
        fds.append(FD(lhs, rng.choice([a for a in attrs if a not in lhs])))
    return Relation(Schema(attrs), range(1, n + 1), rows), fds


def random_instance(seed):
    """Relation of 3-8 attributes, 10% of its cells NULL, and its FDs."""
    rng = random.Random(seed)
    return random_relation(rng, rng.randint(3, 8), 0.1)


def planted_cycle(k, seed, null_rate=0.1):
    """Relation over p, c1..ck with random cells from a three-symbol domain
    (NULL at ``null_rate``), the unary cycle c1 -> c2 -> ... -> ck -> c1 and
    the pilot FD p -> c1."""
    rng = random.Random(seed)
    cycle = ["c%d" % i for i in range(1, k + 1)]
    rel = Relation(Schema(["p"] + cycle))
    for tid in range(1, rng.randint(20, 60) + 1):
        rel.append(tid, [None if rng.random() < null_rate
                         else str(rng.randrange(3)) for _ in range(k + 1)])
    fds = [FD(frozenset({"p"}), "c1")]
    fds += [FD(frozenset({a}), b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return rel, fds, cycle


def census_runs(seeds):
    """Each census instance with its repair seed: per seed, k = 3 + seed %
    6 attributes at 0% and 10% NULLs, drawn as ``random_relation`` draws
    them, then the repair seed from the same rng."""
    for seed in seeds:
        for null_rate in (0.0, 0.1):
            rng = random.Random(seed)
            rel, fds = random_relation(rng, 3 + seed % 6, null_rate)
            yield rel, fds, rng.randrange(2**32)


def _per_fd(counts):
    return [(str(fd), n) for fd, n in counts.items()]


def census_digest(seeds=range(300)):
    """sha256 over every census repair under both NULL semantics and
    ``mv``, ``wv`` and ``max``: each output's rows and, per class, its polls
    and fixes per FD and its revisions; a repair that raises contributes
    its exception's name."""
    digest = hashlib.sha256()
    for rel, fds, seed in census_runs(seeds):
        for null_equals_null in (True, False):
            for fn in ("mv", "wv", "max"):
                try:
                    out = swipe(rel, fds, repair_fn=fn, seed=seed,
                                null_equals_null=null_equals_null)
                except RepairInvariantError as exc:
                    digest.update(type(exc).__name__.encode())
                    continue
                record = [out.repaired.rows]
                for c in out.classes:
                    record.append((_per_fd(c.stats.polls_per_fd),
                                   _per_fd(c.stats.fixes_per_fd),
                                   c.stats.revisions))
                digest.update(repr(record).encode())
    return digest.hexdigest()


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


def minimal_cover_reference(fds):
    """``minimal_cover`` on attribute sets and FD objects: each lhs reduced
    one attribute at a time, in sorted order, against the FDs as reduced so
    far; then each distinct FD, in order, dropped if the others left imply
    it."""
    work = nontrivial(fds)
    for i, fd in enumerate(work):
        lhs = set(fd.lhs)
        for b in sorted(fd.lhs):
            if len(lhs) == 1:
                break
            if fd.rhs in attribute_closure(lhs - {b}, work):
                lhs.discard(b)
        work[i] = FD(frozenset(lhs), fd.rhs)
    cover = deduped = list(dict.fromkeys(work))
    for fd in deduped:
        rest = [f for f in cover if f != fd]
        if implies(rest, fd):
            cover = rest
    return cover
