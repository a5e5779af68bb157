import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdrepair import Relation, Schema, load_csv, save_csv


def make_rel(attrs, rows):
    rel = Relation(Schema(attrs))
    for i, row in enumerate(rows, start=1):
        rel.append(i, row)
    return rel


def test_tid_array_follows_appends():
    rel = make_rel(["a"], [["x"], ["y"]])
    assert rel.tid_array().tolist() == [1, 2]
    rel.append(7, ["z"])
    assert rel.tid_array().tolist() == [1, 2, 7]
    assert rel.copy().tid_array().tolist() == [1, 2, 7]


def test_tids_from_any_integer_sequence():
    rows = [["x"], ["y"], ["z"]]
    for tids in (np.arange(1, 4), np.array([1, 2, 3], dtype=np.uint8),
                 range(1, 4), [1, np.int64(2), 3]):
        rel = Relation(Schema(["a"]), tids, rows)
        assert rel.tids == [1, 2, 3]
        assert rel.tid_array().dtype == np.int64


@pytest.mark.parametrize("tids", [["1", "2"], [1.0, 2.0], [True, False],
                                  [1, 2**63], [-1, 2**63], [1, 2**64],
                                  np.array([1, 2**63], dtype=np.uint64)])
def test_tids_not_int64_integers_rejected(tids):
    with pytest.raises(ValueError, match="int64"):
        Relation(Schema(["a"]), tids, [["x"], ["y"]])
    rel = make_rel(["a"], [])
    with pytest.raises(ValueError, match="int64"):
        rel.append(tids[1], ["y"])


def test_duplicate_tid_rejected():
    with pytest.raises(ValueError, match="duplicate tid 5"):
        Relation(Schema(["a"]), [5, 6, 5], [["x"], ["y"], ["z"]])
    rel = make_rel(["a"], [["x"], ["y"]])
    with pytest.raises(ValueError, match="duplicate tid 2"):
        rel.append(2, ["z"])
    assert rel.tids == [1, 2]
    rel.append(9, ["z"])
    assert [rel.get(t, "a") for t in (1, 2, 9)] == ["x", "y", "z"]


def test_tid_array_is_read_only():
    rel = make_rel(["a"], [["x"], ["y"]])
    with pytest.raises(ValueError):
        rel.tid_array()[0] = 2
    assert rel.tids == [1, 2]


def test_load_csv_assigns_tids(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    rel = load_csv(p)
    assert rel.tids == [1, 2]
    assert rel.rows == [["1", "2"], ["3", "4"]]


def test_load_csv_tid_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("tid,a\n7,x\n9,y\n")
    rel = load_csv(p, tid_column="tid")
    assert rel.tids == [7, 9]
    assert rel.schema.attributes == ["a"]


def test_load_csv_null_token(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\nx,?\n")
    rel = load_csv(p, null_token="?")
    assert rel.rows == [["x", None]]


def test_load_csv_duplicate_tid(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("tid,a\n1,x\n1,y\n")
    with pytest.raises(ValueError):
        load_csv(p, tid_column="tid")


def test_load_csv_duplicate_tid_across_chunks(tmp_path):
    # the first repeat lies in the second chunk of 4096 rows, and its first
    # occurrence in the first; a later repeat of the same tid is not reported
    tids = list(range(1, 6001))
    tids[4500] = tids[5000] = 17
    p = tmp_path / "d.csv"
    p.write_text("tid,a\n" + "".join("%d,x\n" % t for t in tids))
    with pytest.raises(ValueError, match=r"d\.csv:4502: duplicate tid 17$"):
        load_csv(p, tid_column="tid")


@pytest.mark.parametrize("cell", ["x", "1.5", str(2**63), str(-2**63 - 1)])
def test_load_csv_bad_tid_names_its_line(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text("tid,a\n1,x\n" + "2,x\n" * 4096 + "%s,y\n" % cell)
    with pytest.raises(ValueError, match=r"d\.csv:4099: malformed tid"):
        load_csv(p, tid_column="tid")


def test_load_csv_int64_extremes(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("tid,a\n%d,x\n%d,y\n" % (2**63 - 1, -2**63))
    rel = load_csv(p, tid_column="tid")
    assert rel.tids == [2**63 - 1, -2**63]
    assert rel.tid_array().dtype == np.int64


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\nx\n")
    with pytest.raises(ValueError):
        load_csv(p)


def test_save_csv_header_and_nulls(tmp_path):
    rel = make_rel(["a", "b"], [["x", None]])
    p = tmp_path / "out.csv"
    save_csv(rel, p, null_token="?")
    assert p.read_text() == "a,b\nx,?\n"


cell = st.one_of(st.none(), st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\0<>"),
    max_size=8).filter(lambda s: s != "<NULL>"))


@given(st.lists(st.lists(cell, min_size=2, max_size=2), max_size=20))
def test_csv_round_trip(tmp_path_factory, rows):
    rel = make_rel(["a", "b"], rows)
    p = tmp_path_factory.mktemp("csv") / "rt.csv"
    save_csv(rel, p, null_token="<NULL>", tid_column="tid")
    back = load_csv(p, null_token="<NULL>", tid_column="tid")
    assert back.schema == rel.schema
    assert back.tids == rel.tids
    assert back.rows == rel.rows
