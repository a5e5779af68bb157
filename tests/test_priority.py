import random
from collections import Counter
from functools import partial
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fdrepair import FD, Relation, Schema, priority, swipe
from fdrepair.dsf import DisjointSetForest
from fdrepair.fds import minimal_cover, violates
from fdrepair.partition import fds_entering_at
from fdrepair.priority import (_GRID_PER_ROW, RepairStats, _call_per_class,
                               _group_min, _majority, _tally,
                               estimate_priority, fix, pilot_fds,
                               priority_repair, shares_forest,
                               skip_revision_unary, update_dsf, vio)
from fdrepair.repair_functions import (BUILTINS, MAX, MV, WV, RepairFunction,
                                       vote)
from fdrepair.swipe import plan, resolve_functions
from helpers import more, planted_cycle, random_instance
from reference import (RowUnionFind, fix_reference, priority_reference,
                       swipe_reference, vio_fd_reference)

NAME_PROV = FD(frozenset({"hospital name"}), "#provider")
PROV_NAME = FD(frozenset({"#provider"}), "hospital name")

# fix's two paths: with no grid every fix gathers its mixed rows first (and
# _tally sorts its pairs); with a huge one every voting fix tallies the
# whole forest (and _tally sums on its grid)
GRIDS = (0, 10 ** 9)


def grid(cells_per_row):
    return mock.patch.object(priority, "_GRID_PER_ROW", cells_per_row)


def sub_relation(rel, tids):
    """The rows of ``rel`` with the given tids, in that order."""
    return Relation(rel.schema, tids, [rel.row_of(tid) for tid in tids])


def test_vio_fd_hospital(hospital_snippet):
    for seed in range(8):
        out = vio(hospital_snippet, NAME_PROV.rhs, [NAME_PROV],
                  random.Random(seed))
        assert out in ({4, 5}, {4, 6})


def test_vio_fd_satisfied(hospital_snippet):
    assert vio(hospital_snippet, PROV_NAME.rhs, [PROV_NAME],
               random.Random(0)) == set()


def test_vio_fd_all_distinct_lhs(hospital_snippet):
    fd = FD(frozenset({"measure code"}), "city")
    rel = sub_relation(hospital_snippet, [2, 3, 4, 6])  # unique measure codes
    assert vio(rel, fd.rhs, [fd], random.Random(0)) == set()


def test_vio_hospital(hospital_snippet, hospital_fds):
    cover = minimal_cover(hospital_fds)
    assert vio(hospital_snippet, "hospital name", cover, random.Random(0)) == set()
    assert len(vio(hospital_snippet, "#provider", cover, random.Random(0))) == 2


def test_vio_attribute_without_fd(hospital_snippet, hospital_fds):
    assert vio(hospital_snippet, "measure code", hospital_fds,
               random.Random(0)) == set()


def test_priority_provider_first(hospital_snippet, hospital_fds):
    cover = minimal_cover(hospital_fds)
    order, sizes = estimate_priority(
        hospital_snippet, ["hospital name", "#provider"], cover,
        random.Random(0))
    assert order == ["#provider", "hospital name"]
    assert sizes == {"hospital name": 0, "#provider": 2}


def test_pilot_split_class_one(hospital_fds):
    pilots, rest = pilot_fds(["hospital name", "#provider"], hospital_fds[:2],
                             priority=["#provider", "hospital name"])
    assert pilots == []
    assert rest == [NAME_PROV, PROV_NAME]


def test_pilot_split_city_class(hospital_fds):
    pilots, rest = pilot_fds(["city"], [hospital_fds[2]])
    assert pilots == [hospital_fds[2]]
    assert rest == []


def test_pilot_split_empty():
    assert pilot_fds(["a"], []) == ([], [])


def tid_classes(forest, rel):
    """The forest's classes as tids, each sorted, ordered by least tid."""
    tids = rel.tid_array()
    return sorted(sorted(tids[c].tolist()) for c in forest.classes())


def test_update_dsf_reproduces_classes(hospital_snippet):
    d = DisjointSetForest(len(hospital_snippet))
    update_dsf(hospital_snippet, NAME_PROV, d)
    assert tid_classes(d, hospital_snippet) == [[1, 2, 3, 4], [5, 6]]


def test_update_dsf_distinct_lhs_no_change(hospital_snippet):
    fd = FD(frozenset({"measure code"}), "condition")
    rel = sub_relation(hospital_snippet, [2, 3, 4, 6])
    d = DisjointSetForest(len(rel))
    update_dsf(rel, fd, d)
    assert d.class_count == 4


def test_update_dsf_idempotent(hospital_snippet):
    d = DisjointSetForest(len(hospital_snippet))
    update_dsf(hospital_snippet, NAME_PROV, d)
    before = d.classes()
    update_dsf(hospital_snippet, NAME_PROV, d)
    assert d.classes() == before


cells = st.lists(st.lists(st.sampled_from(["0", "1", "2", None]),
                          min_size=3, max_size=3), max_size=14)


def components(elements, pairs):
    """Connected components of ``pairs`` over ``elements``, by closure."""
    comp = {e: {e} for e in elements}
    for a, b in pairs:
        if comp[a] is not comp[b]:
            merged = comp[a] | comp[b]
            for e in merged:
                comp[e] = merged
    return sorted((sorted(c) for c in {id(c): c for c in comp.values()}
                   .values()), key=lambda c: c[0])


@settings(max_examples=150, deadline=None)
@given(cells, st.sets(st.sampled_from(["a", "b"]), min_size=1),
       st.booleans(), st.randoms(use_true_random=False))
def test_update_dsf_matches_components(rows, lhs, null_equals_null, rng):
    # after the merge, two tuples share a class exactly when they are
    # connected by "same class before" or "equal lhs key", a key holding a
    # NULL matching nothing under NULL-unequal semantics
    tids = rng.sample(range(1, 100), len(rows))
    rel = Relation(Schema(["a", "b", "c"]), tids, rows)
    d = DisjointSetForest(len(tids))
    before = [tuple(rng.sample(tids, 2)) for _ in range(len(tids) // 3)]
    if before:
        row = {tid: i for i, tid in enumerate(tids)}
        for t1, t2 in before:  # one merge per pair
            labels = np.arange(len(tids))
            labels[row[t2]] = row[t1]
            d.merge(labels)
    update_dsf(rel, FD(frozenset(lhs), "c"), d, null_equals_null)
    idx = list(map(rel.schema.index, sorted(lhs)))
    keyed = [(tid, tuple(row[i] for i in idx)) for tid, row in zip(tids, rows)]
    same_key = [(t1, t2) for t1, k1 in keyed for t2, k2 in keyed
                if k1 == k2 and (null_equals_null or None not in k1)]
    expected = components(tids, before + same_key)
    assert tid_classes(d, rel) == expected
    assert d.class_count == len(expected)


def test_forest_over_other_row_count_rejected(hospital_snippet):
    # a forest is over the relation's rows; one over fewer or more rows is
    # refused before fix writes anything
    rel = hospital_snippet.copy()
    for n in (len(rel) - 1, len(rel) + 1):
        d = DisjointSetForest(n)
        with pytest.raises(ValueError, match="labels for %d rows" % n):
            update_dsf(rel, NAME_PROV, d)
        with pytest.raises(ValueError, match="labels for %d rows" % n):
            fix(rel, NAME_PROV, d, MV, random.Random(0))
        assert rel.rows == hospital_snippet.rows
        assert d.class_count == n


# A user-supplied, non-voting function, called once per class: its pick
# depends on the bag's order, the NULL counts and the rng.
FEWEST_NULLS = RepairFunction("fewest-nulls", True, lambda vs, ns, w, rng: vs[
    min(range(len(vs)), key=lambda i: (ns[i], rng.random()))])


# Vio ties of 2, 3 and 4 values, NULL among them. Under a -> c the groups'
# first rows come in the order a = 2, 1, NULL, their ids (a's codes, 0 for
# NULL) in the order NULL, 2, 1, and their lhs values in the order 1, 2,
# NULL; under ab -> c the tied groups' first rows and ids differ in order too.
VIO_TIES = [["2", "0", "1"], ["2", "0", "0"], ["1", "1", "2"],
            [None, "1", "0"], ["1", "1", None], [None, "0", "2"],
            ["2", "1", None], ["1", "0", "0"], ["1", "0", "1"],
            [None, "1", None]]


@settings(max_examples=more(150), deadline=None)
@given(cells, st.sampled_from([*BUILTINS.values(), FEWEST_NULLS]),
       st.booleans(), st.randoms(use_true_random=False))
@example(VIO_TIES, MV, True, random.Random(0))
@example(VIO_TIES, WV, False, random.Random(0))
def test_vio_and_fix_match_row_loop_reference(rows, fn, null_equals_null,
                                             rng):
    # same results and the same draws from the rng, with tids out of row
    # order and two FDs fixed into one forest in turn, on both of fix's paths
    tids = rng.sample(range(1, 100), len(rows))
    seed = rng.randrange(1000)
    for cells_per_row in GRIDS:
        rel = Relation(Schema(["a", "b", "c"]), tids, rows)
        ref_rows = [list(row) for row in rel.rows]
        with grid(cells_per_row):
            for fd in (FD(frozenset("a"), "c"), FD(frozenset("ab"), "c")):
                got_rng, ref_rng = random.Random(seed), random.Random(seed)
                assert vio(rel, fd.rhs, [fd], got_rng, null_equals_null) == \
                    vio_fd_reference(rel, ref_rows, fd, ref_rng,
                                     null_equals_null)
                assert got_rng.getstate() == ref_rng.getstate()
            forest = DisjointSetForest(len(tids))
            ref_forest = RowUnionFind(tids)
            for fd in (FD(frozenset("a"), "c"), FD(frozenset("b"), "c")):
                got_rng, ref_rng = random.Random(seed), random.Random(seed)
                fixes = fix(rel, fd, forest, fn, got_rng,
                            null_equals_null=null_equals_null)
                assert fixes == fix_reference(rel, ref_rows, fd, ref_forest,
                                              fn, ref_rng, null_equals_null)
                assert rel.rows == ref_rows
                assert got_rng.getstate() == ref_rng.getstate()
                assert tid_classes(forest, rel) == ref_forest.classes()


def recording(fn, bags):
    """``fn`` under its own exponent, appending each bag it is handed."""
    def pick(values, null_counts, width, rng):
        bags.append(values)
        return fn._pick(values, null_counts, width, rng)
    return RepairFunction(fn.name, True, pick, fn.vote_exponent)


# classes of (value, NULLs among p and q) entries over a small domain, so
# that ties are common
vote_bags = st.lists(st.lists(
    st.tuples(st.sampled_from(["x", "y", "z", None]), st.integers(0, 2)),
    min_size=1, max_size=6), min_size=1, max_size=8)


@settings(max_examples=more(300), deadline=None)
@given(vote_bags, st.booleans(), st.sampled_from([MV, WV]),
       st.randoms(use_true_random=False))
# two or more tied constants
@example([[("x", 0), ("y", 0), ("z", 1)], [("x", 0), ("y", 1), ("x", 1),
          ("y", 0)]], False, MV, random.Random(0))
# a constant tied with NULL (under wv, 3 ** 4 for one NULL each)
@example([[("y", 0), (None, 0)]], False, MV, random.Random(1))
@example([[("x", 1), (None, 0)]], False, WV, random.Random(1))
# an all-NULL top
@example([[(None, 0), (None, 1), ("x", 0)]], False, MV, random.Random(2))
# zero-weight rows: every cell NULL, so (4 - 4) ** 4 == 0 under wv
@example([[(None, 2), (None, 2), ("x", 2)], [(None, 2), ("y", 0)]], True, WV,
         random.Random(3))
# zero-weight rows beside tied constants, whose NULL pair totals 0
@example([[(None, 2), ("x", 2), ("y", 2)], [("z", 2), ("x", 2), (None, 2)]],
         True, WV, random.Random(4))
# NULL tied with one constant in some classes (no draw) and beside two in
# another
@example([[("y", 0), (None, 0)], [("x", 0), ("z", 0), (None, 0)],
          [(None, 1), ("x", 1)]], False, MV, random.Random(5))
# tied classes whose least tids come in another order than their roots
# (first rows)
@example([[("x", 0), ("y", 0)], [("z", 0), ("y", 0)],
          [("x", 1), ("z", 1), ("y", 1)], [("y", 0), ("x", 0)]], False, MV,
         random.Random(6))
@example([[("x", 0), ("y", 0)], [("z", 0), ("y", 0)],
          [("x", 1), ("z", 1), ("y", 1)], [("y", 0), ("x", 0)]], False, WV,
         random.Random(6))
def test_array_vote_matches_per_class_vote(bags, null_key, fn, rng):
    # fix's array vote, on both of its paths, against MV/WV called class by
    # class: same winners, same changed cells and the same rng draws; fix
    # hands the function only a tied top, each value once
    rows = [[None if null_key and i == 0 else str(i), v,
             *[None] * n, *["f"] * (2 - n)]
            for i, bag in enumerate(bags) for v, n in bag]
    tids = rng.sample(range(1, 1000), len(rows))
    fd = FD(frozenset("k"), "v")
    seed = rng.randrange(1000)
    for cells_per_row in GRIDS:
        rel = Relation(Schema(["k", "v", "p", "q"]), tids, rows)
        ref_rows = [list(row) for row in rel.rows]
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        handed = []
        with grid(cells_per_row):
            fixes = fix(rel, fd, DisjointSetForest(len(tids)),
                        recording(fn, handed), got_rng)
        assert fixes == fix_reference(rel, ref_rows, fd, RowUnionFind(tids),
                                      fn, ref_rng, True)
        assert rel.rows == ref_rows
        assert got_rng.getstate() == ref_rng.getstate()
        assert all(len(set(bag)) == len(bag) > 1 for bag in handed)


# relations on which every class of a -> c is uniform, under either NULL
# semantics: no rows, one row, an all-NULL rhs (one code), and classes of
# one value each beside NULL lhs keys
UNMIXED = [[], [["x", "1", "1"]], [["x", "1", None], [None, "2", None],
                                   ["y", None, None], ["x", "1", None]],
           [["x", "1", "1"], [None, "2", "2"], ["y", None, None],
            ["x", "2", "1"], [None, "1", "2"], ["y", "1", None]]]


@pytest.mark.parametrize("rows", UNMIXED)
@pytest.mark.parametrize("fn", [MV, WV])
@pytest.mark.parametrize("null_equals_null", [True, False])
def test_whole_forest_vote_without_mixed_class(rows, fn, null_equals_null):
    # the whole-forest tally finds no mixed class: fix returns 0, leaves the
    # codes as they were and draws nothing, and never gathers mixed rows
    rel = Relation(Schema(["a", "b", "c"]), range(1, len(rows) + 1), rows)
    before = rel.codes("c").copy()
    rng = random.Random(0)
    state = rng.getstate()
    with mock.patch.object(priority, "mixed_rows", side_effect=AssertionError):
        assert fix(rel, FD(frozenset("a"), "c"), DisjointSetForest(len(rel)),
                   fn, rng, null_equals_null) == 0
    assert rel.codes("c").tolist() == before.tolist()
    assert rel.rows == rows
    assert rng.getstate() == state


@settings(max_examples=more(100), deadline=None)
@given(cells, st.sampled_from([MAX, FEWEST_NULLS]),
       st.sampled_from([*GRIDS, _GRID_PER_ROW]), st.booleans())
def test_other_functions_see_only_mixed_classes(rows, fn, cells_per_row,
                                                null_equals_null):
    # max and user functions are called once per class fix counts, each on a
    # bag of two or more distinct values, whatever the grid size
    rel = Relation(Schema(["a", "b", "c"]), range(1, len(rows) + 1), rows)
    forest = DisjointSetForest(len(rel))
    for fd in (FD(frozenset("a"), "c"), FD(frozenset("b"), "c")):
        handed = []
        with grid(cells_per_row):
            fixes = fix(rel, fd, forest, recording(fn, handed),
                        random.Random(0), null_equals_null)
        assert fixes == len(handed)
        assert all(len(set(bag)) >= 2 for bag in handed)


def per_class_majority(rel, fd, fn, rng, groups, codes, keys, weights):
    """``_majority``'s winners with each tied group handed to ``fn`` in
    turn, through ``_call_per_class``, in order of least keys as a row loop
    reaches them: the reference for Vio's one-pass settle."""
    row_group, _, n_top, winner, (top_group, top_code) = _tally(
        groups, codes, weights)
    tied = n_top[top_group] > 1
    if tied.any():
        least = _group_min(row_group, keys, len(n_top))
        order = np.argsort(least[top_group[tied]], kind="stable")
        grp, code = top_group[tied][order], top_code[tied][order]
        winner[grp] = _call_per_class(rel, fd, fn, rng, least[grp], code,
                                      np.zeros(len(grp), dtype=np.int64))
    return winner[row_group]


def vio_pick(values, null_counts, width, rng):
    """Vio's tie rule as a row loop applies it to one group's tied values:
    a seeded draw among them, NULL last."""
    return rng.choice(sorted(values, key=lambda v: (v is None, v)))


# (group, value) rows; a value's code is the order in which it first appears
tie_rows = st.lists(st.tuples(st.integers(0, 3),
                              st.sampled_from([None, "9", "10", "x"])),
                    min_size=1, max_size=12)
IN_ORDER = list(range(12))


@settings(max_examples=more(300), deadline=None)
@given(tie_rows, st.permutations(range(12)), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
# NULL among the tied values
@example([(0, None), (0, "x"), (0, "9"), (1, "x"), (1, None), (1, "10")],
         IN_ORDER, False, 0)
@example([(0, "x"), (0, None), (1, None), (1, "9")], IN_ORDER, True, 1)
# text order against code order: "9" takes the lower code but sorts after
# "10" in group 0; "10" is entered before "9" in group 1
@example([(0, "9"), (0, "10"), (0, "x")], IN_ORDER, False, 2)
@example([(1, "10"), (1, "9"), (0, "x"), (0, "9")], IN_ORDER, False, 2)
# groups whose least keys come in another order than their ids and codes
@example([(0, "x"), (0, "9"), (1, "10"), (1, "x"), (2, "9"), (2, "10")],
         [9, 8, 1, 0, 5, 4, *range(10, 16)], False, 3)
def test_vio_batched_ties_match_per_class_picks(rows, keys, weighted, seed):
    # _majority settles Vio's tied groups in one pass; the per-class path
    # hands each tied group to vio_pick in order of least keys: the same
    # picks and the same rng draws, and never a per-class call
    rel = Relation(Schema(["g", "v"]), range(1, len(rows) + 1),
                   [[str(g), v] for g, v in rows])
    fd = FD(frozenset("g"), "v")
    draw = random.Random(seed)
    weights = (np.array([draw.randrange(3) for _ in rows]) if weighted
               else None)
    args = (np.array([g for g, _ in rows]), rel.codes("v"),
            np.array(keys[:len(rows)]), weights)
    got_rng, ref_rng = random.Random(seed), random.Random(seed)
    with mock.patch.object(priority, "_call_per_class",
                           side_effect=AssertionError):
        got = _majority(rel, fd, None, got_rng, *args)[1]
    assert got.tolist() == per_class_majority(rel, fd, vio_pick, ref_rng,
                                              *args).tolist()
    assert got_rng.getstate() == ref_rng.getstate()


def tally_reference(groups, codes, weights):
    """``_tally``'s five results from a Counter over (group, code) pairs."""
    totals = Counter()
    for g, c, w in zip(groups, codes, weights or repeat(1)):
        totals[g, c] += w  # a pair of zero total is still counted
    dense = {g: i for i, g in enumerate(sorted(set(groups)))}
    best = Counter()
    for (g, _), t in totals.items():
        best[g] = max(best[g], t)
    tops = sorted((dense[g], c) for (g, c), t in totals.items() if t == best[g])
    n_top = [sum(1 for i, _ in tops if i == j) for j in range(len(dense))]
    winner = [max(c for i, c in tops if i == j) for j in range(len(dense))]
    n_codes = Counter(dense[g] for g, _ in totals)
    return ([dense[g] for g in groups], [n_codes[j] for j in range(len(dense))],
            n_top, winner, tops)


# "grid": few groups and codes, so _tally sums on its (group, code) grid;
# "sparse": ids and codes far apart, so it takes the np.unique path
tally_rows = {
    "grid": st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                     min_size=4, max_size=40),
    "sparse": st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 4)),
                       min_size=1, max_size=40),
}


@pytest.mark.parametrize("side", ["grid", "sparse"])
@settings(max_examples=more(150), deadline=None)
@given(data=st.data())
def test_tally_matches_counter_reference(side, data):
    rows = data.draw(tally_rows[side])
    weights = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from([0, 1, 16, 81, 625]), min_size=len(rows),
        max_size=len(rows))))
    groups = [g for g, _ in rows]
    codes = [c for _, c in rows]
    n_groups, k = len(set(groups)), max(codes) + 1
    assume((n_groups * k <= _GRID_PER_ROW * len(rows)) == (side == "grid"))
    row_group, n_codes, n_top, winner, (top_group, top_code) = _tally(
        np.array(groups, dtype=np.int64), np.array(codes, dtype=np.int32),
        None if weights is None else np.array(weights, dtype=np.int64))
    ref_group, ref_n_codes, ref_n_top, ref_winner, ref_tops = tally_reference(
        groups, codes, weights)
    assert row_group.tolist() == ref_group
    assert n_codes.tolist() == ref_n_codes
    assert n_top.tolist() == ref_n_top
    assert winner.tolist() == ref_winner
    assert list(zip(top_group.tolist(), top_code.tolist())) == ref_tops


def test_fix_hospital_first_fd(hospital_snippet):
    for seed in range(6):
        rel = hospital_snippet.copy()
        d = DisjointSetForest(len(rel))
        fixes = fix(rel, NAME_PROV, d, MV, random.Random(seed))
        assert fixes == 2
        assert rel.get(4, "#provider") == "10006"
        assert rel.get(5, "#provider") == rel.get(6, "#provider")


def test_fix_satisfied_fd_unchanged(hospital_snippet):
    rel = hospital_snippet.copy()
    d = DisjointSetForest(len(rel))
    assert fix(rel, PROV_NAME, d, MV, random.Random(0)) == 0
    assert rel.rows == hospital_snippet.rows


@pytest.mark.parametrize("cells_per_row", [*GRIDS, _GRID_PER_ROW])
def test_vote_stays_exact_past_int64(cells_per_row):
    # weights of 10 ** 20 and 9 ** 20 pass int64: two x rows with no NULL
    # outweigh three y rows with one NULL each, for fix as for the function
    w20 = RepairFunction("w20", True, partial(vote, exponent=20),
                         vote_exponent=20)
    full = ["1"] * 8
    rel = Relation(Schema(["k", "v", *("c%d" % i for i in range(8))]),
                   range(1, 6), [["g", "x", *full]] * 2
                   + [["g", "y", None, *full[1:]]] * 3)
    assert w20(rel.column("v"), [0, 0, 1, 1, 1], 10, random.Random(0)) == "x"
    with grid(cells_per_row):
        assert fix(rel, FD(frozenset("k"), "v"), DisjointSetForest(len(rel)),
                   w20, random.Random(0)) == 1
    assert rel.column("v") == ["x"] * 5


@pytest.mark.parametrize("exponent", [0.5, -1, 4.0, "4"])
def test_vote_exponent_checked_at_construction(exponent):
    # fix sums (width - NULLs) ** exponent as exact int64 weights
    with pytest.raises(ValueError) as exc:
        RepairFunction("w", True, partial(vote, exponent=exponent),
                       vote_exponent=exponent)
    assert str(exc.value) == ("repair function w: vote_exponent must be None "
                              "or a non-negative int, not %r" % (exponent,))
    for fine in (None, 0, 4, 20):
        assert RepairFunction("w", True, MV, vote_exponent=fine)


def test_fix_counts_only_conflicted_classes():
    rel = Relation(Schema(["a", "b"]))
    for tid, row in enumerate([["x", "1"], ["x", "1"], ["y", "2"], ["y", "3"]], 1):
        rel.append(tid, row)
    d = DisjointSetForest(len(rel))
    assert fix(rel, FD(frozenset("a"), "b"), d, MV, random.Random(0)) == 1


def test_priority_repair_class_one(hospital_snippet, hospital_fds):
    rel = hospital_snippet.copy()
    fns = resolve_functions(rel.schema, "mv")
    stats = priority_repair(rel, hospital_fds[:2],
                            ["hospital name", "#provider"], fns,
                            random.Random(1))
    assert stats.priority == ["#provider", "hospital name"]
    assert stats.fixes_per_fd[NAME_PROV] == 2
    assert stats.fixes_per_fd[PROV_NAME] == 0
    assert violates(rel, NAME_PROV) == []
    assert violates(rel, PROV_NAME) == []


def test_priority_repair_pilot_only_no_revisions(hospital_snippet, hospital_fds):
    rel = hospital_snippet.copy()
    fns = resolve_functions(rel.schema, "mv")
    stats = priority_repair(rel, [hospital_fds[3]], ["condition"], fns,
                            random.Random(1))
    assert stats.revisions == 0


def test_priority_repair_only_touches_class(hospital_snippet, hospital_fds):
    rel = hospital_snippet.copy()
    fns = resolve_functions(rel.schema, "mv")
    priority_repair(rel, hospital_fds[:2], ["hospital name", "#provider"],
                    fns, random.Random(1))
    for attr in ("city", "measure code", "condition"):
        assert rel.column(attr) == hospital_snippet.column(attr)


def null_pair():
    """A two-attribute class {a, b} with a pilot FD into each attribute,
    NULLs in every column."""
    rel = Relation(Schema(["p", "q", "a", "b"]))
    rows = [[None, "1", "1", "0"], [None, "1", "1", "0"],
            [None, "0", "0", None], ["1", "1", "0", "1"], ["2", "1", "0", "2"],
            ["0", "1", None, "2"], ["1", "0", None, "2"], ["0", None, None, None]]
    for tid, row in enumerate(rows, 1):
        rel.append(tid, row)
    return rel, [FD(frozenset("p"), "a"), FD(frozenset("q"), "b"),
                 FD(frozenset("a"), "b"), FD(frozenset("b"), "a")]


def class_runs(rel, fds, cls, fn="mv", seed=0, null_equals_null=True):
    """One class repaired by the engine and by the row loop making every
    revision, each on its own copy from the same seed: ((the engine's
    relation, its RepairStats), (the row loop's rows, its RepairStats))."""
    work, rows = rel.copy(), rel.rows
    functions = resolve_functions(rel.schema, fn)
    stats = priority_repair(work, fds, cls, functions, random.Random(seed),
                            null_equals_null=null_equals_null)
    reference = priority_reference(rel, rows, fds, cls, functions,
                                   random.Random(seed),
                                   null_equals_null=null_equals_null,
                                   every_revision=True)
    return (work, stats), (rows, reference)


def unary_revisions(stats):
    """Polls past the first of the unary FDs in one class repair."""
    return sum(n - 1 for fd, n in stats.polls_per_fd.items()
               if len(fd.lhs) == 1)


def test_skip_revision_unary_rules():
    fns = {"a": MV, "b": RepairFunction("custom", False, lambda *a: None)}
    assert skip_revision_unary(FD(frozenset("a"), "c"), fns)
    assert not skip_revision_unary(FD(frozenset("ab"), "c"), fns)
    assert not skip_revision_unary(FD(frozenset("b"), "c"), fns)

    # the class-level rule: each fixture revises a unary FD when every
    # revision is made; the shortcut then saves all of them or none
    def revisions(rel, fds, cls, **kwargs):
        (_, taken), (_, reference) = class_runs(rel, fds, cls, **kwargs)
        taken, reference = unary_revisions(taken), unary_revisions(reference)
        assert reference > 0
        return taken, reference

    # three attributes and a non-unary FD into the class: no shortcut
    rel = Relation(Schema(["p", "a", "b", "c"]))
    for tid, row in enumerate(["0010", "1111", "0010", "1101", "1001",
                               "0000", "1010", "0110"], 1):
        rel.append(tid, list(row))
    fds = [FD(frozenset("a"), "b"), FD(frozenset("b"), "c"),
           FD(frozenset("cp"), "a")]
    taken, reference = revisions(rel, fds, list("abc"))
    assert taken == reference
    # two attributes: shortcut under NULL-equal semantics only
    rel, fds = null_pair()
    taken, reference = revisions(rel, fds, ["a", "b"],
                                 null_equals_null=False)
    assert taken == reference
    taken, reference = revisions(rel, fds, ["a", "b"])
    assert taken == 0
    # a cyclic class sharing one forest: shortcut
    rel, fds, cycle = planted_cycle(3, 0)
    assert shares_forest(cycle, fds, resolve_functions(rel.schema, "mv"))
    taken, reference = revisions(rel, fds, cycle)
    assert taken == 0


def test_skip_rule_matches_no_skip_output():
    # unary FD pair within one class: the skip rule must not change outputs
    rel = Relation(Schema(["a", "b"]))
    rows = [["1", "x"], ["1", "y"], ["2", "x"], ["2", "z"], ["3", "q"]]
    for tid, row in enumerate(rows, 1):
        rel.append(tid, row)
    fds = [FD(frozenset("a"), "b"), FD(frozenset("b"), "a")]
    (work, _), (reference, _) = class_runs(rel, fds, ["a", "b"], seed=9)
    for fd in fds:
        assert violates(work, fd) == []
    assert work.rows == reference


def test_null_unequal_pair_takes_no_shortcut():
    # under NULL-unequal semantics the unary-revision shortcut is not taken
    # in a two-attribute class: the {a, b} class makes both revisions and
    # repairs as the run making every revision does
    rel, fds = null_pair()
    (work, stats), (reference, ref_stats) = class_runs(
        rel, fds, ["a", "b"], null_equals_null=False)
    for fd in fds:
        assert violates(work, fd, False) == []
    assert stats.revisions == 2
    assert stats == ref_stats
    assert work.rows == reference


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(7)
@example(130)
def test_shortcut_changes_nothing(seed):
    # every cover FD of a class holds once the class is repaired, and
    # swipe (whose final check raises on a violated input FD) gives the
    # same output with the unary-revision shortcut as the row loop making
    # every revision; seeds 7 and 130 differed when the shortcut was taken
    # in every class
    rel, fds = random_instance(seed)
    for null_equals_null in (True, False):
        cover, part, _ = plan(fds, rel.schema, null_equals_null)
        for fn in ("mv", "wv", "max"):
            work, rng = rel.copy(), random.Random(seed)
            functions = resolve_functions(work.schema, fn)
            for i, cls in enumerate(part.classes, start=1):
                fds_i = fds_entering_at(cover, part, i)
                priority_repair(work, fds_i, cls, functions, rng,
                                null_equals_null=null_equals_null)
                for fd in fds_i:
                    assert violates(work, fd, null_equals_null) == [], (
                        fn, null_equals_null, fd)
            taken = swipe(rel, fds, repair_fn=fn, seed=seed,
                          null_equals_null=null_equals_null).repaired.rows
            reference, _, _ = swipe_reference(rel, fds, fn, seed,
                                              null_equals_null,
                                              every_revision=True)
            assert taken == reference, (fn, null_equals_null)


@pytest.mark.parametrize("null_equals_null", [True, False])
@pytest.mark.parametrize("fn", ["mv", "wv", "max"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_priority_repair_cyclic_class_revision_free(k, fn, null_equals_null):
    # the unary-revision shortcut holds on cyclic classes of 3+ attributes:
    # each FD is polled once, nothing is revised, and the output is that of
    # the row loop making every revision
    for seed in range(15):
        rel, fds, cycle = planted_cycle(k, seed)
        (work, stats), (reference, _) = class_runs(rel, fds, cycle, fn, seed,
                                                   null_equals_null)
        for fd in fds:
            assert violates(work, fd, null_equals_null) == [], (seed, fd)
        assert stats.revisions == 0, seed
        assert dict(stats.polls_per_fd) == dict.fromkeys(fds, 1), seed
        assert work.rows == reference, seed


def test_poll_of_an_unchanged_forest_skips_the_rewrite():
    # priority_repair hands fix the forest's class count after the last fix
    # of the rhs: a poll whose update_dsf leaves the count there calls
    # neither _tally nor mixed_rows, and the repair (rows, stats, rng draws)
    # is that of a run whose fix is never handed the count
    real_fix = priority.fix
    calls = Counter()
    polls = []  # per poll handed the count: (forest unchanged, calls made)

    def counting(name):
        real = getattr(priority, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def handed(rel, fd, dsf, fn, rng, null_equals_null, fixed_count):
        before = sum(calls.values())
        fixes = real_fix(rel, fd, dsf, fn, rng, null_equals_null, fixed_count)
        polls.append((dsf.class_count == fixed_count,
                      sum(calls.values()) - before))
        return fixes

    def never_handed(rel, fd, dsf, fn, rng, null_equals_null, fixed_count):
        return real_fix(rel, fd, dsf, fn, rng, null_equals_null)

    for seed in (1, 7, 10, 12):
        rel, fds = random_instance(seed)
        for null_equals_null in (True, False):
            cover, part, _ = plan(fds, rel.schema, null_equals_null)
            for fn in ("mv", "wv", "max"):
                runs = []
                for spy in (handed, never_handed):
                    work, rng = rel.copy(), random.Random(seed)
                    functions = resolve_functions(work.schema, fn)
                    with mock.patch.multiple(
                            priority, fix=spy, _tally=counting("_tally"),
                            mixed_rows=counting("mixed_rows")):
                        stats = [priority_repair(
                            work, fds_entering_at(cover, part, i), cls,
                            functions, rng, null_equals_null=null_equals_null)
                            for i, cls in enumerate(part.classes, start=1)]
                    runs.append((work.rows, stats, rng.getstate()))
                assert runs[0] == runs[1], (seed, null_equals_null, fn)
    assert all(n == 0 for unchanged, n in polls if unchanged)
    assert all(n > 0 for unchanged, n in polls if not unchanged)
    assert sum(unchanged for unchanged, _ in polls) >= 10


@settings(max_examples=more(150), deadline=None)
@given(cells, st.permutations("abc"), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_shared_forest_keeps_its_record_per_rhs(rows, order, null_equals_null,
                                                seed):
    # the cycle a -> b -> c -> a shares one forest, merged on every FD before
    # the first poll, and no fix merges it further: a record kept per forest
    # would see the count the previous rhs's fix left and skip the next
    # rhs's first fix; the repair must be the row loop's, one poll per FD
    fds = [FD(frozenset(x), y) for x, y in ("ab", "bc", "ca")]
    rel = Relation(Schema(["a", "b", "c"]), range(1, len(rows) + 1), rows)
    functions = dict.fromkeys("abc", MV)
    assert shares_forest("abc", fds, functions)
    ref_rows, ref_rng = rel.rows, random.Random(seed)
    reference = priority_reference(rel, ref_rows, fds, list("abc"), functions,
                                   ref_rng, priority=list(order),
                                   null_equals_null=null_equals_null)
    rng = random.Random(seed)
    stats = priority_repair(rel, fds, list("abc"), functions, rng,
                            priority=list(order),
                            null_equals_null=null_equals_null)
    assert rel.rows == ref_rows
    assert rng.getstate() == ref_rng.getstate()
    assert stats == reference
    assert dict(stats.polls_per_fd) == dict.fromkeys(fds, 1)
