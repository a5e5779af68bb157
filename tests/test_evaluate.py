import pytest

from fdrepair import Relation, Schema, evaluate


def make_rel(rows):
    rel = Relation(Schema(["a", "b"]))
    for tid, row in rows:
        rel.append(tid, list(row))
    return rel


DIRTY = [(1, ["x", "1"]), (2, ["y", "2"]), (3, ["z", "3"])]


def test_perfect_repair():
    dirty = make_rel(DIRTY)
    gold = make_rel([(1, ["x", "9"]), (2, ["y", "2"]), (3, ["w", "3"])])
    rep = evaluate(dirty, gold.copy(), gold)
    assert (rep.precision, rep.recall, rep.f_score) == (1.0, 1.0, 1.0)
    assert rep.repaired_cells == rep.correctly_repaired_cells == 2
    assert rep.erroneous_cells == 2


def test_half_right_half_wrong():
    # one correct fix (1,b), one spurious change (2,b), one miss (3,a)
    dirty = make_rel(DIRTY)
    gold = make_rel([(1, ["x", "9"]), (2, ["y", "2"]), (3, ["w", "3"])])
    repaired = make_rel([(1, ["x", "9"]), (2, ["y", "5"]), (3, ["z", "3"])])
    rep = evaluate(dirty, repaired, gold)
    assert rep.repaired_cells == 2
    assert rep.correctly_repaired_cells == 1
    assert rep.erroneous_cells == 2
    assert rep.precision == rep.recall == rep.f_score == 0.5


def test_no_changes_zero_scores():
    dirty = make_rel(DIRTY)
    gold = make_rel([(1, ["x", "9"]), (2, ["y", "2"]), (3, ["z", "3"])])
    rep = evaluate(dirty, dirty.copy(), gold)
    assert rep.repaired_cells == 0
    assert (rep.precision, rep.recall, rep.f_score) == (0.0, 0.0, 0.0)


def test_clean_data_zero_recall_denominator():
    dirty = make_rel(DIRTY)
    rep = evaluate(dirty, dirty.copy(), dirty.copy())
    assert rep.erroneous_cells == 0
    assert rep.recall == 0.0


def test_counts_restricted_to_gold_sample():
    dirty = make_rel(DIRTY)
    repaired = make_rel([(1, ["x", "9"]), (2, ["q", "q"]), (3, ["q", "q"])])
    gold = make_rel([(1, ["x", "9"])])  # only tid 1 is verified
    rep = evaluate(dirty, repaired, gold)
    assert rep.repaired_cells == 1
    assert rep.correctly_repaired_cells == 1
    assert rep.precision == 1.0


def test_null_vs_constant_counts_as_difference():
    dirty = make_rel([(1, [None, "1"])])
    gold = make_rel([(1, ["x", "1"])])
    rep = evaluate(dirty, gold.copy(), gold)
    assert rep.repaired_cells == rep.correctly_repaired_cells == 1


def test_schema_mismatch_rejected():
    dirty = make_rel(DIRTY)
    other = Relation(Schema(["a", "c"]))
    with pytest.raises(ValueError):
        evaluate(dirty, dirty.copy(), other)


def test_gold_tid_outside_dirty_rejected():
    dirty = make_rel(DIRTY)
    gold = make_rel([(7, ["x", "1"])])
    with pytest.raises(ValueError,
                       match=r"gold tids \[7\] absent from dirty relation"):
        evaluate(dirty, dirty.copy(), gold)


def test_misaligned_repaired_rejected():
    dirty = make_rel(DIRTY)
    repaired = make_rel(DIRTY[:2])
    with pytest.raises(
            ValueError, match="repaired relation is not tid-aligned with dirty"):
        evaluate(dirty, repaired, dirty.copy())


def test_f_is_harmonic_mean():
    dirty = make_rel(DIRTY)
    gold = make_rel([(1, ["x", "9"]), (2, ["y", "8"]), (3, ["w", "3"])])
    repaired = make_rel([(1, ["x", "9"]), (2, ["y", "5"]), (3, ["z", "3"])])
    rep = evaluate(dirty, repaired, gold)
    p, r = rep.precision, rep.recall
    assert rep.f_score == pytest.approx(2 * p * r / (p + r))


def test_as_dict_round_trip():
    dirty = make_rel(DIRTY)
    rep = evaluate(dirty, dirty.copy(), dirty.copy())
    d = rep.as_dict()
    assert set(d) == {"repaired_cells", "correctly_repaired_cells",
                      "erroneous_cells", "precision", "recall", "f_score"}
