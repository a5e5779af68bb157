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
    assert rel.tid_array() is rel.tid_array()
    rel.append(7, ["z"])
    assert rel.tid_array().tolist() == [1, 2, 7]
    assert rel.copy().tid_array().tolist() == [1, 2, 7]


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
