"""``evaluate`` against a row-by-row reference, on relations whose rows come
in different orders and whose dictionaries may or may not be shared."""

from hypothesis import given, strategies as st

from fdrepair import Relation, Schema, evaluate

SCHEMA = Schema(["x", "y"])
cell = st.sampled_from([None, "", "a", "b", "1"])


def reference(dirty, repaired, gold):
    repaired_cells = correct = erroneous = 0
    for tid in gold.tids:
        for d, r, g in zip(dirty.row_of(tid), repaired.row_of(tid),
                           gold.row_of(tid)):
            erroneous += g != d
            if r != d:
                repaired_cells += 1
                correct += r == g
    return repaired_cells, correct, erroneous


@st.composite
def triples(draw):
    tids = draw(st.lists(st.integers(-5, 30), unique=True, max_size=12))

    def relation(order):
        return Relation(SCHEMA, order, [[draw(cell), draw(cell)] for _ in order])

    dirty = relation(tids)
    if draw(st.booleans()):
        repaired = dirty.copy()  # shares dirty's dictionaries
        for tid in tids:
            repaired.set(tid, "x", draw(cell))
    else:
        repaired = relation(draw(st.permutations(tids)))
    gold = relation([t for t in draw(st.permutations(tids)) if draw(st.booleans())])
    return dirty, repaired, gold


@given(triples())
def test_evaluate_matches_row_reference(rels):
    report = evaluate(*rels)
    assert (report.repaired_cells, report.correctly_repaired_cells,
            report.erroneous_cells) == reference(*rels)
