import logging
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fdrepair
from fdrepair import (FD, GenConfig, Relation, RepairFunction, Schema,
                      SchemaError, evaluate, generate, priority, swipe)
from fdrepair.dsf import DisjointSetForest
from fdrepair.fds import mixed_rows, violates
from fdrepair.priority import _tally, fix, update_dsf, vio
from fdrepair.repair_functions import BUILTINS
from helpers import random_relation


def test_public_api():
    # the package root is what the README's library example and the CLI
    # use; engine internals are imported from their own modules
    assert sorted(fdrepair.__all__) == [
        "FD", "GenConfig", "Relation", "RepairFunction",
        "RepairInvariantError", "Schema", "SchemaError", "evaluate",
        "generate", "load_csv", "load_fds", "save_csv", "save_fds", "swipe"]
    for name in fdrepair.__all__:
        assert getattr(fdrepair, name) is not None
    for name in ("fix", "update_dsf", "DisjointSetForest"):
        assert not hasattr(fdrepair, name)


def test_hospital_snippet_repair(hospital_snippet, hospital_fds):
    out = swipe(hospital_snippet, hospital_fds, seed=3)
    for fd in hospital_fds:
        assert violates(out.repaired, fd) == []
    assert out.repaired.get(4, "#provider") == "10006"
    # the original relation is untouched
    assert hospital_snippet.get(4, "#provider") == "1x006"


def test_logs_each_class_and_poll(hospital_snippet, hospital_fds, caplog):
    with caplog.at_level(logging.DEBUG, logger="fdrepair"):
        out = swipe(hospital_snippet, hospital_fds, seed=0)
    assert {r.name for r in caplog.records} == {"fdrepair"}
    info = [r.getMessage() for r in caplog.records
            if r.levelno == logging.INFO]
    polls = [r.getMessage() for r in caplog.records
             if r.levelno == logging.DEBUG]
    assert len(info) == len(out.classes)
    for i, (line, c) in enumerate(zip(info, out.classes), start=1):
        assert line.startswith("class %d of %d %s: %d polls, %d revisions, "
                               "%d cells changed, " % (
                                   i, len(out.classes), c.attributes,
                                   sum(c.stats.polls_per_fd.values()),
                                   c.stats.revisions, c.cells_changed))
    assert Counter(line.partition(":")[0] for line in polls) == Counter({
        "poll %s" % fd: n for c in out.classes
        for fd, n in c.stats.polls_per_fd.items()})
    assert sum(int(line.split()[-2]) for line in polls) == sum(
        sum(c.stats.fixes_per_fd.values()) for c in out.classes)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="fdrepair"):
        swipe(hospital_snippet, hospital_fds, seed=0)
    assert [r.levelno for r in caplog.records] == [logging.INFO] * len(info)


def test_already_clean_zero_changes(hospital_snippet, hospital_fds):
    clean = swipe(hospital_snippet, hospital_fds, seed=1).repaired
    out = swipe(clean, hospital_fds, seed=99)
    assert out.changes() == []
    assert out.cells_changed == 0
    assert out.repaired.rows == clean.rows


def test_single_conflicted_pair_one_cell():
    rel = Relation(Schema(["a", "b"]))
    rel.append(1, ["x", "1"])
    rel.append(2, ["x", "2"])
    out = swipe(rel, [FD(frozenset("a"), "b")], seed=0)
    assert len(out.changes()) == out.cells_changed == 1


@pytest.mark.parametrize("null_equals_null", [True, False])
def test_zero_row_relation(null_equals_null):
    # no rows: no group, no label, no forest class, nothing to repair
    rel = Relation(Schema(["a", "b", "c"]))
    fds = [FD(frozenset("a"), "b"), FD(frozenset("b"), "a"),
           FD(frozenset("ab"), "c")]
    for repair_fn in BUILTINS:
        out = swipe(rel, fds, repair_fn, seed=0,
                    null_equals_null=null_equals_null)
        assert out.repaired.rows == []
        assert out.changes() == []
        assert out.cells_changed == 0
    # fix at either extreme grid size: zero rows fit even no grid, so the
    # votes tally the whole forest and max gathers its mixed rows at both
    for cells_per_row in (0, 10 ** 9):
        with mock.patch.object(priority, "_GRID_PER_ROW", cells_per_row):
            for fn in BUILTINS.values():
                for fd in fds:
                    assert fix(rel, fd, DisjointSetForest(len(rel)), fn,
                               random.Random(0), null_equals_null) == 0
    # the kernels take zero rows
    labels, codes = np.empty(0, dtype=np.int64), rel.codes("a")
    assert mixed_rows(labels, codes).tolist() == []
    for weights in (None, labels):
        *counts, tops = _tally(labels, codes, weights)
        assert [len(a) for a in (*counts, *tops)] == [0] * 6
    d = DisjointSetForest(0)
    d.merge(labels)
    assert d.class_count == 0 and d.roots().tolist() == []
    for fd in fds:
        assert violates(rel, fd, null_equals_null) == []
        d = DisjointSetForest(len(rel))
        update_dsf(rel, fd, d, null_equals_null)
        assert d.classes() == []
        assert d.class_count == 0
        assert len(d.roots()) == 0
    assert vio(rel, "b", fds, random.Random(0), null_equals_null) == set()


def test_change_log_replays(hospital_snippet, hospital_fds):
    out = swipe(hospital_snippet, hospital_fds, seed=5)
    replay = hospital_snippet.copy()
    for tid, attr, old, new in out.changes():
        assert replay.get(tid, attr) == old
        replay.set(tid, attr, new)
    assert replay.rows == out.repaired.rows


def test_replay_determinism(hospital_snippet, hospital_fds):
    a = swipe(hospital_snippet, hospital_fds, seed=11)
    b = swipe(hospital_snippet, hospital_fds, seed=11)
    assert a.repaired.rows == b.repaired.rows
    assert a.changes() == b.changes()
    assert a.partition == b.partition


def test_frame_condition_outside_cover(hospital_snippet):
    fds = [FD(frozenset({"hospital name"}), "#provider")]
    out = swipe(hospital_snippet, fds, seed=2)
    for attr in ("city", "measure code", "condition"):
        assert out.repaired.column(attr) == hospital_snippet.column(attr)
    assert set(out.non_repairable) == {"city", "measure code", "condition"}


def test_preservative_closure(hospital_snippet, hospital_fds):
    out = swipe(hospital_snippet, hospital_fds, seed=8)
    for attr in hospital_snippet.schema.attributes:
        assert set(out.repaired.column(attr)) <= set(hospital_snippet.column(attr))


def test_priority_override(hospital_snippet, hospital_fds):
    override = {1: ["hospital name", "#provider"]}
    out = swipe(hospital_snippet, hospital_fds, seed=4,
                priority_override=override)
    assert out.classes[0].stats.priority == ["hospital name", "#provider"]
    for fd in hospital_fds:
        assert violates(out.repaired, fd) == []


def test_schema_mismatch_rejected(hospital_snippet):
    for fd, name in ((FD(frozenset({"nope"}), "city"), "nope"),
                     (FD(frozenset({"city"}), "zz"), "zz")):
        with pytest.raises(SchemaError, match="FD %s uses unknown attribute "
                                              "'%s'" % (fd, name)):
            swipe(hospital_snippet, [fd], seed=0)


def test_bad_priority_override_is_value_error(hospital_snippet,
                                              hospital_fds):
    classes = swipe(hospital_snippet, hospital_fds, seed=0).partition
    pilot_only = classes.index(["city"]) + 1
    for override, message in (
            ({1: ["hospital name"]}, "class 1 leaves out #provider"),
            ({1: []}, "class 1 leaves out #provider, hospital name"),
            # a class whose FDs are all pilots uses no order, but the
            # override must still name its attributes
            ({pilot_only: []}, "class %d leaves out city" % pilot_only),
            ({1: ["hospital name", "#provider"], len(classes): []},
             "class %d leaves out" % len(classes)),
            ({0: []}, "names class 0, but the partition has %d"
             % len(classes)),
            # an override names its class's attributes once and no others
            ({1: ["hospital name", "#provider", "zzz", "city"]},
             "class 1 names city, zzz, outside the class"),
            ({1: ["hospital name", "#provider", "hospital name"]},
             "class 1 repeats hospital name")):
        # checked before any class is repaired
        calls = []
        spy = RepairFunction("spy", True, lambda vs, ns, w, rng: (
            calls.append(vs), vs[0])[1])
        with pytest.raises(ValueError, match=message):
            swipe(hospital_snippet, hospital_fds, repair_fn=spy, seed=0,
                  priority_override=override)
        assert calls == []


def test_fuzz_repairs_satisfy_all_fds():
    for seed in range(20):
        rel, fds = generate(GenConfig(60, 6, seed=seed))
        out = swipe(rel, fds, seed=seed)
        for fd in fds:
            assert violates(out.repaired, fd) == []


@pytest.mark.parametrize("fn", ["mv", "wv", "max"])
def test_all_builtin_functions_run(fn, hospital_snippet, hospital_fds):
    out = swipe(hospital_snippet, hospital_fds, repair_fn=fn, seed=6)
    for fd in hospital_fds:
        assert violates(out.repaired, fd) == []


def test_nulls_grouped_by_default():
    rel = Relation(Schema(["a", "b"]))
    rel.append(1, [None, "1"])
    rel.append(2, [None, "2"])
    fd = FD(frozenset("a"), "b")
    out = swipe(rel, [fd], seed=0)
    assert len(set(out.repaired.column("b"))) == 1
    # with null-equals-null off the two rows never conflict
    out2 = swipe(rel, [fd], seed=0, null_equals_null=False)
    assert out2.changes() == []
    assert out2.cells_changed == 0


def test_null_unequal_leaves_satisfying_relation_unchanged():
    # every input FD holds when NULLs never match, but the lhs reduction
    # a,d -> c to a -> c (through b) does not: NULL in b breaks the chain
    rel = Relation(Schema(["a", "b", "c", "d"]))
    rel.append(1, ["1", None, "x", "5"])
    rel.append(2, ["1", None, "y", "6"])
    fds = [FD(frozenset("a"), "b"), FD(frozenset("b"), "c"),
           FD(frozenset("ad"), "c")]
    out = swipe(rel, fds, seed=0, null_equals_null=False)
    assert out.changes() == []
    assert out.repaired.rows == rel.rows


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.sampled_from([0.0, 0.1]),
       st.sampled_from(["mv", "wv", "max"]), st.booleans(),
       st.integers(0, 2**32 - 1))
# under NULL-unequal semantics an FD implied through transitivity can stay
# violated when the FDs implying it hold, so swipe repairs every input FD
@example(5, 0.1, "mv", False, 19)
@example(5, 0.1, "wv", False, 19)
@example(6, 0.1, "mv", False, 134)
def test_changes_are_the_net_difference(k, null_rate, fn, null_equals_null,
                                        seed):
    # 30-200 rows over a domain of 2-5 values and 1-k random FDs: the change
    # set is the cells in which the output differs from the input, each
    # listed once, counted per class and in total as evaluate counts them
    rng = random.Random(seed)
    rel, fds = random_relation(rng, k, null_rate)
    out = swipe(rel, fds, repair_fn=fn, seed=rng.randrange(2**32),
                null_equals_null=null_equals_null)
    changes = out.changes()
    assert out.cells_changed == len(changes) == \
        evaluate(rel, out.repaired, rel).repaired_cells
    cells = [(tid, a) for tid, a, _, _ in changes]
    assert len(set(cells)) == len(cells)
    assert all(old != new for _, _, old, new in changes)
    per_attribute = Counter(a for _, a, _, _ in changes)
    for c in out.classes:
        assert c.cells_changed == sum(a in c.attributes
                                      for _, a, _, _ in changes)
        assert sum(c.cells_changed_per_attribute.values()) == c.cells_changed
        assert c.cells_changed_per_attribute == \
            {a: per_attribute[a] for a in c.attributes}
    replay = rel.copy()
    for tid, a, old, new in changes:
        assert replay.get(tid, a) == old
        replay.set(tid, a, new)
    assert replay.rows == out.repaired.rows
