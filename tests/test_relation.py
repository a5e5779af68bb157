import csv
import gc
import io
import itertools
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdrepair import (FD, Relation, Schema, SchemaError, evaluate, load_csv,
                      save_csv, swipe)
from fdrepair import relation
from fdrepair.relation import _CHUNK_ROWS, NULL
from fdrepair.repair_functions import RepairFunction


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


@pytest.mark.parametrize("rows, bad", [([[1], [1.0], [True]], 1),
                                       ([["x"], [2.5]], 2.5),
                                       ([["x"], [b"x"]], b"x"),
                                       ([["x"], [["l"]]], ["l"])])
def test_non_string_cells_rejected(rows, bad):
    # a cell is a str or None; equal non-strings such as 1, 1.0 and True
    # would share one dictionary entry and read back as the first, and an
    # unhashable one gets the same ValueError, not a TypeError. Every cell
    # is checked before the first is entered: a refused row leaves no value
    # in a dictionary, which copies share and save_csv writes
    message = "cells must be str or None, not %r" % (bad,)
    with pytest.raises(ValueError) as exc:
        Relation(Schema(["a"]), range(len(rows)), rows)
    assert str(exc.value) == message
    rel = make_rel(["a", "b"], [["x", "y"]])
    refusals = [partial(rel.append, 2, [bad, "y"]),
                partial(rel.append, 2, ["z", bad]),
                partial(rel.set, 1, "b", bad),
                partial(rel.encode_all, "a", ["z", bad])]
    for refused in refusals:
        with pytest.raises(ValueError) as exc:
            refused()
        assert str(exc.value) == message
        assert rel.tids == [1] and rel.rows == [["x", "y"]]
        assert rel.values("a") == [None, "x"] and rel.values("b") == [None, "y"]
    rel.append(2, ["z", None])
    assert rel.tids == [1, 2] and rel.rows == [["x", "y"], ["z", None]]
    assert rel.values("a") == [None, "x", "z"]


def test_repair_function_returning_non_string_rejected():
    seven = RepairFunction("seven", False, lambda vs, ns, w, rng: 7)
    rel = make_rel(["a", "b"], [["k", "x"], ["k", "y"], ["j", "z"]])
    with pytest.raises(ValueError) as exc:
        swipe(rel, [FD({"a"}, "b")], repair_fn=seven, seed=0)
    assert str(exc.value) == "cells must be str or None, not 7"
    assert rel.tids == [1, 2, 3]
    assert rel.rows == [["k", "x"], ["k", "y"], ["j", "z"]]
    assert rel.values("b") == [None, "x", "y", "z"]


def test_malformed_relation_errors():
    with pytest.raises(SchemaError) as exc:
        Schema(["a", "a"])
    assert str(exc.value) == "duplicate attribute names: ['a', 'a']"
    with pytest.raises(SchemaError) as exc:
        Schema(["a", 1, 2])
    assert str(exc.value) == "attribute names must be str, not 1"
    with pytest.raises(SchemaError) as exc:
        Schema(["a"]).index("b")
    assert str(exc.value) == "unknown attribute 'b'"
    with pytest.raises(ValueError) as exc:
        Relation(Schema(["a"]), [1, 2], [["x"]])
    assert str(exc.value) == "tids and rows must have equal length"
    with pytest.raises(SchemaError) as exc:
        Relation(Schema(["a"]), [1], [["x", "y"]])
    assert str(exc.value) == "row arity 2 does not match schema arity 1"
    rel = make_rel(["a", "b"], [["x", "y"]])
    with pytest.raises(SchemaError) as exc:
        rel.append(2, ["z"])
    assert str(exc.value) == "row arity 1 does not match schema arity 2"
    with pytest.raises(KeyError) as exc:
        rel.get(7, "a")
    assert exc.value.args == ("unknown tid 7",)


def test_load_csv_empty_file_and_missing_tid_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(ValueError) as exc:
        load_csv(path)
    assert str(exc.value) == "%s: empty file, expected a header row" % path
    path.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError) as exc:
        load_csv(path, tid_column="id")
    assert str(exc.value) == "tid column 'id' not in header"


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


# " 5", "+5", "1_0" and "\u0663" (Arabic-Indic three) are integers to int(),
# but a tid cell is ASCII -?[0-9]+; here they would repeat tids 5, 10 and 3
@pytest.mark.parametrize("cell", ["x", "1.5", str(2**63), str(-2**63 - 1),
                                  " 5", "+5", "1_0", "\u0663"])
def test_load_csv_bad_tid_names_its_line(tmp_path, cell):
    p = tmp_path / "d.csv"
    # distinct tids, so that the malformed one is the file's first fault
    p.write_text("tid,a\n" + "".join("%d,x\n" % t for t in range(1, 4098))
                 + "%s,y\n" % cell)
    with pytest.raises(ValueError, match=r"d\.csv:4099: malformed tid"):
        load_csv(p, tid_column="tid")


@pytest.mark.parametrize("text", ["zip,city\n1,x\n2,\n1,y\n",
                                  'tid,zip,city\r\n7,1,"x,y"\r\n3,2,z\r\n'],
                         ids=["split", "csv-reader"])
def test_load_csv_skips_a_leading_bom(tmp_path, text):
    # spreadsheets often save a UTF-8 byte order mark; it is not part of
    # the first attribute's name, on the split path or csv.reader's
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    tid_column = "tid" if text.startswith("tid") else None
    want, got = (load_csv(p, tid_column=tid_column) for p in (plain, bom))
    assert got.schema == want.schema
    assert (got.tids, got.rows) == (want.tids, want.rows)


@pytest.mark.parametrize("data, where", [
    (b"a,b\n" + b"x,y\n" * 5000 + b"x,\xff\n",
     "5002: byte 0xff at offset 20006"),
    (b"\xffa,b\n", "1: byte 0xff at offset 0"),
    (b"a,b\r\nx,y\r\n\xe9,z\n", "3: byte 0xe9 at offset 10"),
    (b"a,b\rx,\xc3\n", "2: byte 0xc3 at offset 6"),
    (b'a,b\n"x\ny",\x80\n', "3: byte 0x80 at offset 10"),
    (b"\xef\xbb\xbfa,b\nx,\xff\n", "2: byte 0xff at offset 9"),
], ids=["line-5002", "header", "crlf", "lone-cr", "quoted-line-end", "bom"])
def test_load_csv_not_utf8_names_line_and_offset(tmp_path, data, where):
    # the line counts line ends as csv.reader does; the offset is the
    # byte's in the file, not in the decoder's current read
    p = tmp_path / "d.csv"
    p.write_bytes(data)
    with pytest.raises(ValueError) as exc:
        load_csv(p)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "%s:%s is not UTF-8" % (p, where)


@pytest.mark.parametrize("data, tid_column, message", [
    (b"a,b\nx\nx,\xff\n", None, "2: expected 2 fields, got 1"),
    (b"tid,a\n1,x\n1,y\n\xff", "tid", "3: duplicate tid 1"),
    (b"tid,a\n1,x\nq,y\n2,\xff\n", "tid", "3: malformed tid 'q'"),
    (b"a,b\nx,\xff\ny\n", None, "2: byte 0xff at offset 6 is not UTF-8"),
    (b'a,b\n"x\n\xff",y\n', None, "3: byte 0xff at offset 7 is not UTF-8"),
    (b"tid,a\n1,x\n\xff,y\n1,z\n", "tid",
     "3: byte 0xff at offset 10 is not UTF-8"),
], ids=["ragged-before", "repeat-before", "malformed-before", "ragged-after",
        "record-spans-bad-line", "repeat-after"])
@pytest.mark.parametrize("chunk_rows", [1, _CHUNK_ROWS])
def test_load_csv_not_utf8_after_earlier_fault(tmp_path, data, tid_column,
                                              message, chunk_rows):
    # a ragged row, malformed tid or repeated tid that starts on a line
    # before the bad byte is the file's first fault, even in the same read
    p = tmp_path / "d.csv"
    p.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_CHUNK_ROWS", chunk_rows)
        with pytest.raises(ValueError) as exc:
            load_csv(p, tid_column=tid_column)
    assert str(exc.value) == "%s:%s" % (p, message)


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


@pytest.mark.parametrize("text, tid_column, message", [
    ('a,b\n"x\ny",1\nz\n', None, "4: expected 2 fields, got 1"),
    ('tid,a\n1,"x\ny"\n1,z\n', "tid", "4: duplicate tid 1"),
    ('tid,a\n1,"x\ny"\nq,z\n', "tid", "4: malformed tid 'q'"),
    ('a,b\n"x\r\n\r\ny",1\n"",""\nz\n', None, "6: expected 2 fields, got 1"),
])
def test_load_csv_error_line_after_multiline_cell(tmp_path, text, tid_column,
                                                  message):
    # the line of the file on which the bad row starts, not its row number
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    with pytest.raises(ValueError, match=r"d\.csv:%s$" % message):
        load_csv(p, tid_column=tid_column)


@pytest.mark.parametrize("body, message", [
    ("x\nx,y,z\n", "2: expected 2 fields, got 1"),  # the total is right
    ("x,y,z\nx\n", "2: expected 2 fields, got 3"),
    ("x,y\n" * (_CHUNK_ROWS - 1) + "x\nx,y,z\n",
     "%d: expected 2 fields, got 1" % (_CHUNK_ROWS + 1)),  # across chunks
    ("x,y\n" * _CHUNK_ROWS + "x,y,z\nx\n",
     "%d: expected 2 fields, got 3" % (_CHUNK_ROWS + 2)),  # second chunk
    ("x,y\n" * _CHUNK_ROWS + "\n", "%d: expected 2 fields, got 0"
     % (_CHUNK_ROWS + 2)),
])
def test_load_csv_checks_every_row_width(tmp_path, body, message):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n" + body)
    with pytest.raises(ValueError, match=r"d\.csv:%s$" % message):
        load_csv(p)


@pytest.mark.parametrize("body, message", [
    ("q,1\n1,2,3\n", "2: malformed tid 'q'"),
    ("1,2,3\nq,1\n", "2: expected 2 fields, got 3"),
    ("1,x\n1,y\n2,3,4\n", "3: duplicate tid 1"),
    ("1,x\n2,3,4\n1,y\n", "3: expected 2 fields, got 3"),
    ("1,x\n1,y\nq,z\n", "3: duplicate tid 1"),
    ("1,x\nq,z\n1,y\n", "3: malformed tid 'q'"),
])
@pytest.mark.parametrize("chunk_rows", [1, 2, _CHUNK_ROWS])
def test_load_csv_names_first_bad_record(tmp_path, body, message,
                                         chunk_rows):
    # two of a ragged row, a malformed tid and a repeated tid: the one
    # earlier in the file is reported, whether or not both fall in one chunk
    p = tmp_path / "d.csv"
    p.write_text("tid,a\n" + body)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_CHUNK_ROWS", chunk_rows)
        with pytest.raises(ValueError, match=r"d\.csv:%s$" % message):
            load_csv(p, tid_column="tid")


def test_load_csv_leaves_no_work_for_older_gc_generations(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,c\n" + "".join("%d,v%d,%d\n" % (i % 7, i, i % 13)
                                     for i in range(50_000)))
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])
    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(hook)
    try:
        rel = load_csv(p)
    finally:
        gc.callbacks.remove(hook)
    assert len(rel) == 50_000
    assert [g for g in started if g > 0] == []


def test_load_csv_long_cell_among_short_rows(tmp_path):
    # a cell longer than one word is grouped by a dict of its bytes, so
    # one 20 KB cell among 5,000 short rows costs memory in proportion to
    # the file, not to the rows times the longest cell (100 MB here)
    long = "x" * 20_000
    p = tmp_path / "d.csv"
    p.write_text("a,b\n" + "1,a\n" * 2_500 + "2,%s\n" % long + "1,a\n" * 2_500)
    tracemalloc.start()
    try:
        rel = load_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rel.values("b") == [None, "a", long]
    assert rel.codes("b").tolist() == [1] * 2_500 + [2] + [1] * 2_500
    assert peak < 100 * p.stat().st_size


NULL_TOKEN = "?"
grid_cell = st.one_of(st.just(NULL_TOKEN),
                      st.text(alphabet='ab ,"\r\n', max_size=4))


@st.composite
def csv_grids(draw):
    """A header, the data rows, and whether a ``tid`` column is among them.
    Up to two rows may be ragged, their widths possibly cancelling out, and
    tids may repeat."""
    width = draw(st.integers(1, 4))
    tid_at = draw(st.one_of(st.none(), st.integers(0, width - 1)))
    header = ["c%d" % j for j in range(width)]
    rows = draw(st.lists(st.lists(grid_cell, min_size=width,
                                  max_size=width), max_size=12))
    if tid_at is not None:
        header[tid_at] = "tid"
        for row in rows:
            row[tid_at] = str(draw(st.integers(-3, 40)))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append("a")
        elif row:
            row.pop()
    return header, rows, tid_at is not None


def _written_line(row):
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    return buf.getvalue()


@given(csv_grids(), st.sampled_from([1, 2, 3, 5]))
@example(grid=(["tid"], [["a"]], True), chunk_rows=1)  # a pop, then "a"
def test_load_csv_matches_csv_reader(tmp_path_factory, grid, chunk_rows):
    header, rows, has_tid = grid
    lines = [_written_line(header)] + [_written_line(r) for r in rows]
    p = tmp_path_factory.mktemp("grid") / "g.csv"
    p.write_bytes("".join(lines).encode())
    with open(p, newline="", encoding="utf-8") as fh:
        parsed = list(csv.reader(fh))[1:]
    assert parsed == rows  # the grid itself survives csv.writer/csv.reader

    def line_of(i):  # where data row i starts, counted without csv.reader
        return len("".join(lines[:i + 1]).splitlines()) + 1
    tid_at = header.index("tid") if has_tid else None
    # the first ragged row, malformed tid (two ragged mutations of one row
    # can cancel out and leave the appended "a" in a last tid column) or
    # repeated tid is the error
    tids, fault = _first_fault(parsed, len(header), tid_at)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_CHUNK_ROWS", chunk_rows)
        if fault:
            i, error = fault
            with pytest.raises(ValueError, match=r"g\.csv:%d: %s$" % (
                    line_of(i), re.escape(error))):
                load_csv(p, null_token=NULL_TOKEN,
                         tid_column="tid" if has_tid else None)
            return
        rel = load_csv(p, null_token=NULL_TOKEN,
                       tid_column="tid" if has_tid else None)
    _assert_loaded(rel, header, parsed, tids, tid_at)


def _first_fault(records, width, tid_at):
    """The tids load_csv gives the data ``records`` before their first
    fault, and that fault as (index, message), or None: a record without
    ``width`` fields, a tid that is not ASCII digits with an optional
    leading ``-`` and within int64, or a repeat."""
    tids = []
    for i, r in enumerate(records):
        if len(r) != width:
            return tids, (i, "expected %d fields, got %d" % (width, len(r)))
        if tid_at is None:
            tids.append(i + 1)
            continue
        cell = r[tid_at]
        digits = cell[1:] if cell.startswith("-") else cell
        tid = (int(cell) if digits and all(c in "0123456789" for c in digits)
               else None)
        if tid is None or not -2**63 <= tid < 2**63:
            return tids, (i, "malformed tid %r" % r[tid_at])
        if tid in tids:
            return tids, (i, "duplicate tid %d" % tid)
        tids.append(tid)
    return tids, None


def _assert_loaded(rel, header, records, tids, tid_at):
    keep = [j for j in range(len(header)) if j != tid_at]
    assert rel.schema.attributes == [header[j] for j in keep]
    assert rel.tids == tids
    for j in keep:
        column = [None if r[j] == NULL_TOKEN else r[j] for r in records]
        # NULL, then the other values in the order they first appear
        values = rel.values(header[j])
        assert values == [None, *dict.fromkeys(v for v in column
                                               if v is not None)]
        assert [values[c] for c in rel.codes(header[j]).tolist()] == column
        assert rel.column(header[j]) == column
        # the map is built at the first repeat or NULL, and only then
        assert rel._dicts[keep.index(j)].mapped is (
            len(set(column)) < len(column) or None in column)


# Raw text, not csv.writer's: "\x0b", "\x85" and "\u2028" break lines for
# str.splitlines but not for csv.reader
RAW_CELL = st.text(alphabet="ab é?\x0b\x85\u2028", max_size=3)
# how a line may break the rules a split block keeps; a quote may open a
# cell that runs on over later lines
SPECIAL = st.sampled_from(['"x,\ny"', '"\r\n"', 'a"b', '"', '""""', "a\0b",
                           "a\rb"])


@st.composite
def raw_csv_texts(draw):
    """The text of a CSV file, and whether its header has a ``tid`` column.
    Most lines are rows of plain cells ending in ``\n`` or ``\r\n``; a
    line may be blank, ragged, end in a lone ``\r`` or hold a quote, a NUL
    or a lone ``\r``, and the last line end may be missing."""
    width = draw(st.integers(1, 4))
    tid_at = draw(st.one_of(st.none(), st.integers(0, width - 1)))
    header = ["c%d" % j for j in range(width)]
    if tid_at is not None:
        header[tid_at] = "tid"
    text = ",".join(header) + "\n"
    for _ in range(draw(st.integers(0, 30))):
        row = [draw(RAW_CELL) for _ in header]
        if tid_at is not None:
            row[tid_at] = str(draw(st.integers(-3, 40)))
        kind = draw(st.sampled_from(
            ["row"] * 8 + ["blank", "ragged", "special", "lone cr"]))
        if kind == "blank":
            row = []
        elif kind == "ragged":
            row = row[1:] if draw(st.booleans()) else row + ["a"]
        elif kind == "special":
            row[draw(st.integers(0, width - 1))] = draw(SPECIAL)
        end = "\r" if kind == "lone cr" else draw(
            st.sampled_from(["\n", "\r\n"]))
        text += ",".join(row) + end
    if draw(st.booleans()):  # no final line end
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    return text, tid_at is not None


@given(raw_csv_texts(), st.integers(1, 5))
@example(raw=("tid,c\n" + "".join("%d,x\n" % t for t in range(20))
              + '20,"q\n,"\n21,y\n', True), chunk_rows=1)
@example(raw=("c0,c1\n" + "a,b\n" * 12 + "\na,b\n", False), chunk_rows=2)
@example(raw=("c0,c1\n" + "a,b\r\n" * 12 + "a\rb,c\n", False), chunk_rows=1)
def test_load_csv_matches_csv_reader_on_raw_text(tmp_path_factory, raw,
                                                  chunk_rows):
    text, has_tid = raw
    p = tmp_path_factory.mktemp("raw") / "r.csv"
    p.write_bytes(text.encode())
    _check_like_csv_reader(p, has_tid, chunk_rows)


@pytest.mark.parametrize("text, splits", [
    ("c0,c1\na\rb,c\nd,e\n", False),  # a lone \r inside a cell
    ("c0,c1\na,b\rc\nd,e\r\n", False),  # one more \r than line ends
    ("c0,c1\r\na,b\r\nc,\r\n,d\r\n", True),  # \r\n line ends
    ("c0,c1\na,b\r\nc,d\ne,f", True),  # mixed ends, no final one
    ("c0,c1\na,b\nc,d", True),  # no final line end
    ("c0,c1\na,b\nc,d\r", True),  # a \r ends the file: a line end
])
@pytest.mark.parametrize("has_tid", [False, True])
@pytest.mark.parametrize("chunk_rows", [1, _CHUNK_ROWS])
def test_split_line_ends_match_csv_reader(tmp_path, text, splits, has_tid,
                                          chunk_rows):
    # _split counts the lines from its byte mask and the \r only when the
    # block holds one; a block it cannot read as csv.reader does is left
    # to csv.reader
    if has_tid:
        header, *lines = text.split("\n")
        text = "\n".join(["tid," + header] + ["%d,%s" % (i, line) if line
                          else line for i, line in enumerate(lines, 1)])
    body = text.split("\n", 1)[1]
    width = 3 if has_tid else 2
    split = relation._split(body, width)
    assert (split is not None) == splits
    if split:
        assert split[1] == len(list(csv.reader(io.StringIO(body, newline=""))))
    p = tmp_path / "r.csv"
    p.write_bytes(text.encode())
    _check_like_csv_reader(p, has_tid, chunk_rows)


def _check_like_csv_reader(p, has_tid, chunk_rows):
    """Load ``p`` in blocks of ``chunk_rows`` and check the relation, or the
    error, against csv.reader's records."""
    # csv.reader is the oracle, down to the line each record starts on
    records, starts, error = [], [], None
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        while True:
            starts.append(reader.line_num + 1)
            try:
                records.append(next(reader))
            except StopIteration:
                break
            except csv.Error as exc:  # a NUL, before Python 3.11
                error = str(exc)
                break
    tid_at = header.index("tid") if has_tid else None
    tids, fault = _first_fault(records, len(header), tid_at)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_CHUNK_ROWS", chunk_rows)
        if fault or error:
            with pytest.raises((ValueError, csv.Error)) as raised:
                load_csv(p, null_token=NULL_TOKEN,
                         tid_column="tid" if has_tid else None)
            # csv.reader's error stops the block it falls in, so a fault in
            # an earlier block comes first
            expected = {error} - {None}
            if fault:
                expected.add("%s:%d: %s" % (p, starts[fault[0]], fault[1]))
            assert str(raised.value) in expected
            return
        rel = load_csv(p, null_token=NULL_TOKEN,
                       tid_column="tid" if has_tid else None)
    _assert_loaded(rel, header, records, tids, tid_at)


# Cells for the split path's byte keys: longer than one 8-byte word in
# UTF-8, with 2-, 3- and 4-byte characters; byte prefixes of one another;
# and empty cells next to the non-empty NULL token
KEY_CELL = st.one_of(
    st.sampled_from(["", NULL_TOKEN, "a", "ab", "ab\x01", "abcdefgh",
                     "abcdefgh\x01", "abcdefgh" * 2, "abcdefgh" * 2 + "\x01",
                     "éééé", "€€€", "😀😀", "😀😀a", "a😀€é" * 3]),
    st.text(alphabet="ab\x01é€😀", max_size=12))
# tids, some of them repeated, malformed or out of int64
KEY_TID = st.one_of(st.integers(-3, 60).map(str),
                    st.sampled_from(["q", "1é", "-", "+1", "9" * 20]))


@st.composite
def key_csvs(draw, has_tid=st.booleans()):
    """The text of a CSV file of 2 or more fields that only split blocks
    hold, and whether its header has a ``tid`` column. Its cells come from
    a small pool, so most values repeat, many first in a later block."""
    width = draw(st.integers(2, 4))
    header = ["c%d" % j for j in range(width)]
    tid_at = draw(st.integers(0, width - 1)) if draw(has_tid) else None
    if tid_at is not None:
        header[tid_at] = "tid"
    pool = draw(st.lists(KEY_CELL, min_size=1, max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 40))):
        row = [draw(st.sampled_from(pool)) for _ in header]
        if tid_at is not None:
            row[tid_at] = draw(KEY_TID)
        lines.append(",".join(row))
    text = end.join(lines) + end * draw(st.booleans())
    return text, tid_at is not None


@given(key_csvs(), st.integers(1, 5))
@example(raw=("c0,c1\n" + "ab,€€€\n" * 12 + "ab\x01,ab\n" + "€€€,ab\n",
              False), chunk_rows=1)  # values first seen in a later block
@example(raw=("tid,c\r\n" + "".join("%d,😀😀a\r\n" % t for t in range(12))
              + "3,a\r\n", True), chunk_rows=2)  # a repeat in a later block
def test_load_csv_matches_csv_reader_on_byte_keys(tmp_path_factory, raw,
                                                  chunk_rows):
    text, has_tid = raw
    p = tmp_path_factory.mktemp("keys") / "k.csv"
    p.write_bytes(text.encode())
    _check_like_csv_reader(p, has_tid, chunk_rows)


@pytest.mark.parametrize("has_tid", [False, True])
@given(data=st.data(), chunk_rows=st.integers(1, 5))
def test_load_csv_every_key_in_one_bucket(tmp_path_factory, has_tid, data,
                                          chunk_rows):
    # a hash that sends every key to one bucket leaves all rows whose key
    # is not the first row's to the dict, which must still number the
    # cells exactly
    text, _ = data.draw(key_csvs(st.just(has_tid)))
    raw = data.draw(distinct_csvs(st.just(has_tid)))
    p = tmp_path_factory.mktemp("bucket") / "k.csv"
    p.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_HASH", 0)
        _check_like_csv_reader(p, has_tid, chunk_rows)
        _check_distinct_numbering(tmp_path_factory, raw, chunk_rows)


# cells as long as one another that share their first 8 bytes and differ
# only in the last byte of a later word, some of them repeated, and a cell
# of just those 8 bytes, which only its length tells apart from them
SAME_START = ["abcdefgha", "abcdefgh\x01", "abcdefgha", "😀😀a", "😀😀b",
              "abcdefgh" * 2 + "a", "abcdefgh" * 2 + "\x01", "😀😀b",
              "abcdefgh"]


@pytest.mark.parametrize("one_bucket", [False, True])
@pytest.mark.parametrize("chunk_rows", [1, 5])
def test_load_csv_keys_apart_in_a_later_word(tmp_path, one_bucket,
                                             chunk_rows):
    p = tmp_path / "k.csv"
    p.write_bytes(("c0,c1\n" + "".join(
        "%s,%s\n" % row for row in zip(SAME_START, SAME_START[::-1]))).encode())
    with pytest.MonkeyPatch.context() as mp:
        if one_bucket:
            mp.setattr(relation, "_HASH", 0)
        _check_like_csv_reader(p, False, chunk_rows)


@pytest.mark.parametrize("chunk_rows", [1, _CHUNK_ROWS])
def test_load_csv_field_size_error_matches_csv_reader(tmp_path, chunk_rows):
    # one block, or a split path up to the block with the long cell
    p = tmp_path / "d.csv"
    p.write_text("a,b\n" + "x,y\n" * 40 + "x," + "y" * 30 + "\n")
    limit = csv.field_size_limit(20)
    try:
        with open(p, newline="", encoding="utf-8") as fh, \
                pytest.raises(csv.Error) as expected:
            list(csv.reader(fh))
        with pytest.MonkeyPatch.context() as mp, \
                pytest.raises(csv.Error) as raised:
            mp.setattr(relation, "_CHUNK_ROWS", chunk_rows)
            load_csv(p)
    finally:
        csv.field_size_limit(limit)
    assert str(raised.value) == str(expected.value)


@st.composite
def distinct_csvs(draw, has_tid=st.booleans()):
    """The text of a CSV file whose row i holds ``u<i>`` in every column,
    a tid column or none, and which columns still hold only distinct values.
    Up to two cells per column are drawn as NULL or as an earlier cell."""
    width = draw(st.integers(1, 3))
    n = draw(st.integers(0, 30))
    columns = []
    for _ in range(width):
        column = ["u%d" % i for i in range(n)]
        for _ in range(draw(st.integers(0, 2)) if n else 0):
            i = draw(st.integers(0, n - 1))
            column[i] = (column[draw(st.integers(0, i - 1))]
                         if i and draw(st.booleans()) else NULL_TOKEN)
        columns.append(column)
    distinct = [len(set(c) | {NULL_TOKEN}) == n + 1 for c in columns]
    header = ["c%d" % j for j in range(width)]
    if draw(has_tid):
        tid_at = draw(st.integers(0, width))
        header.insert(tid_at, "tid")
        columns.insert(tid_at, [str(t) for t in draw(st.permutations(
            range(-3, n - 3)))])
    text = "".join(",".join(row) + "\n" for row in [header, *zip(*columns)])
    return text, "tid" in header, distinct


@given(distinct_csvs(), st.integers(1, 5))
def test_load_csv_numbers_distinct_columns_in_order(tmp_path_factory, raw,
                                                    chunk_rows):
    _check_distinct_numbering(tmp_path_factory, raw, chunk_rows)


def _check_distinct_numbering(tmp_path_factory, raw, chunk_rows):
    # a column is numbered 1..n in order while every cell is new, and
    # mapped from the first block with a repeat or a NULL; either way its
    # codes are a per-cell encoding's
    text, has_tid, distinct = raw
    p = tmp_path_factory.mktemp("distinct") / "d.csv"
    p.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_CHUNK_ROWS", chunk_rows)
        rel = load_csv(p, null_token=NULL_TOKEN,
                       tid_column="tid" if has_tid else None)
    header, *records = [line.split(",") for line in text.splitlines()]
    tid_at = header.index("tid") if has_tid else None
    assert rel.tids == [int(r[tid_at]) if has_tid else i + 1
                        for i, r in enumerate(records)]
    for a, is_distinct in zip(rel.schema.attributes, distinct):
        index = {NULL_TOKEN: NULL}
        codes = [index.setdefault(r[header.index(a)], len(index))
                 for r in records]
        assert rel.values(a) == [None, *list(index)[1:]]
        assert rel.codes(a).tolist() == codes
        assert rel._dicts[rel.schema.index(a)].mapped is not is_distinct
        assert [rel.encode(a, v) for v in rel.values(a)] == list(
            range(len(index)))


def test_distinct_column_lookups_after_load(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,z\n" + "".join("%d,%d,u%d\n" % (i % 3, i % 5, i)
                                      for i in range(3 * _CHUNK_ROWS)))
    rel = load_csv(p)
    z = rel._dicts[rel.schema.index("z")]
    assert not z.mapped
    out = swipe(rel, [FD({"a"}, "b")], seed=0)
    save_csv(out.repaired, tmp_path / "out.csv", tid_column="tid")
    evaluate(rel, out.repaired, rel)
    # neither the repair, the save nor the scoring looks a value of z up
    assert not z.mapped
    # the copy shares z's dictionary, so a value has one code in both
    copied = rel.copy()
    copied.set(3, "z", "u7")
    rel.append(-1, ["0", "0", "u5"])
    assert rel.encode("z", "u9") == copied.encode("z", "u9") == 10
    assert copied.codes("z")[2] == copied.codes("z")[7] == 8
    assert rel.codes("z")[-1] == copied.codes("z")[5] == 6
    assert rel.codes("z")[2] == 3
    n = 3 * _CHUNK_ROWS + 1
    assert len(rel.values("z")) == n  # no value was entered twice
    assert rel.encode("z", "new") == copied.encode("z", "new") == n


def _load_per_cell(tmp_path, columns, chunk_rows, null_token=NULL_TOKEN,
                   one_bucket=False):
    """Write ``columns`` (two or more) as a CSV file, load it in blocks of
    ``chunk_rows`` and check that each column's codes, values and
    ``mapped`` are a per-cell encoding's. Returns each block's row count;
    every block is split."""
    header = ["c%d" % j for j in range(len(columns))]
    p = tmp_path / ("c%d.csv" % chunk_rows)
    p.write_bytes("".join(",".join(row) + "\n"
                          for row in [header, *zip(*columns)]).encode())
    sizes, split = [], relation._split

    def counted(block, width):
        parts = split(block, width)
        sizes.append(parts[1] if parts else None)
        return parts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_CHUNK_ROWS", chunk_rows)
        mp.setattr(relation, "_split", counted)
        if one_bucket:
            mp.setattr(relation, "_HASH", 0)
        rel = load_csv(p, null_token=null_token)
    for a, column in zip(header, columns):
        index = {null_token: NULL}
        codes = [index.setdefault(cell, len(index)) for cell in column]
        assert rel.values(a) == [None, *list(index)[1:]]
        assert rel.codes(a).tolist() == codes
        # the map is built at the first repeat or NULL, and only then
        assert rel._dicts[rel.schema.index(a)].mapped is (
            len(index) <= len(column))
    assert sum(sizes) == len(columns[0])
    return sizes


@st.composite
def growing_columns(draw):
    """Two or three columns of up to 80 rows, row i drawing each cell from
    the first i // 6 + 1 cells of a pool, so that most values are first
    seen in a later block and then repeat in the blocks after it."""
    pool = draw(st.lists(KEY_CELL, min_size=1, max_size=16, unique=True))
    n = draw(st.integers(0, 80))
    return [[pool[min(k, i // 6, len(pool) - 1)] for i, k in enumerate(
        draw(st.lists(st.integers(0, 15), min_size=n, max_size=n)))]
            for _ in range(draw(st.integers(2, 3)))]


@pytest.mark.parametrize("one_bucket", [False, True])
@given(columns=growing_columns(), chunk_rows=st.integers(1, 5))
def test_load_csv_word_cache_values_first_seen_later(tmp_path_factory,
                                                     one_bucket, columns,
                                                     chunk_rows):
    # a value first seen in a later block misses the word cache in all its
    # rows, so it is numbered in order of its first row; once cached, it
    # is served from the cache in the blocks after, even when every key
    # shares one slot
    _load_per_cell(tmp_path_factory.mktemp("cache"), columns, chunk_rows,
                   one_bucket=one_bucket)


EIGHT = ["abcdefgh", "😀😀", "€€ab", "12345678"]  # 8 bytes each


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4, 5])
def test_load_csv_word_cache_never_serves_a_long_cell(tmp_path, chunk_rows):
    # c2's cells are all exactly 8 bytes. In c0 and c1 each 8-byte cell
    # sits next to the 9-byte cell made of it and one more byte, which has
    # its key: in runs of 32 rows, c0 meets the 8-byte cell first and c1
    # the 9-byte one, so that each comes in a block after the other
    n = 240
    c0 = [EIGHT[i % 4] + "x" * (i // 32 % 2) for i in range(n)]
    c1 = [EIGHT[i % 4] + "\x01" * (1 - i // 32 % 2) for i in range(n)]
    c2 = [EIGHT[i // 3 % 4] for i in range(n)]
    assert len(_load_per_cell(tmp_path, [c0, c1, c2], chunk_rows)) > 10


@pytest.mark.parametrize("null_token", ["NULL", "missing-cell"])
@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4, 5])
def test_load_csv_word_cache_with_null_tokens(tmp_path, null_token,
                                              chunk_rows):
    # a 4-byte NULL token is cached with code NULL, a 12-byte one never
    # is; the empty cell is a value, and its key, 0, is also what an empty
    # slot holds
    cells = [null_token, "", "a", "NUL", "NULLx", "missing-cel",
             "missing-cell!", "NULL", "missing-cell"]
    n = 300
    columns = [[cells[i % 9] for i in range(n)],
               [cells[i // 20 % 9] for i in range(n)]]
    assert len(_load_per_cell(tmp_path, columns, chunk_rows,
                              null_token=null_token)) > 10


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4, 5])
def test_load_csv_word_cache_from_a_third_block_repeat(tmp_path,
                                                       chunk_rows):
    # c0 is all distinct through two blocks, so it is numbered in order
    # with no cache; its first repeat opens the third block, and from there
    # every third row repeats an earlier value. c1 stays all distinct.
    n = 300
    distinct = ["u%03d" % i for i in range(n)]
    sizes = _load_per_cell(tmp_path, [distinct, distinct[::-1]], chunk_rows)
    third = sizes[0] + sizes[1]  # the third block's first row
    assert third + sizes[2] < n
    c0 = [distinct[0] if i == third else distinct[i // 3]
          if i > third and i % 3 == 0 else cell
          for i, cell in enumerate(distinct)]
    # cells of equal length keep the blocks where they were
    assert _load_per_cell(tmp_path, [c0, distinct[::-1]], chunk_rows) == sizes


def test_load_csv_word_cache_dropped_after_load(tmp_path):
    # a 10-value column beside an all-distinct one, in three blocks: the
    # 10-value column's word cache is filled once and gone after the load,
    # and the load's memory stays within the bound of
    # test_load_csv_long_cell_among_short_rows
    p = tmp_path / "d.csv"
    p.write_text("a,z\n" + "".join("%d,u%06d\n" % (i % 10, i)
                                   for i in range(70_000)))
    assert 2 < p.stat().st_size / (relation._CHUNK_ROWS * 64) < 3
    filled, fill = [], relation._Dictionary._fill

    def counted(d, key, code):
        filled.append(len(key))
        fill(d, key, code)
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relation._Dictionary, "_fill", counted)
            rel = load_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert filled == [10]  # the first block's values; then only hits
    assert rel.codes("a").tolist() == [i % 10 + 1 for i in range(70_000)]
    assert [d.cache for d in rel._dicts] == [None, None]
    assert peak < 100 * p.stat().st_size


def test_save_csv_header_and_nulls(tmp_path):
    rel = make_rel(["a", "b"], [["x", None]])
    p = tmp_path / "out.csv"
    save_csv(rel, p, null_token="?")
    assert p.read_text() == "a,b\nx,?\n"


# Cells that csv.writer quotes, one-field rows' "" rule, and NULL next to the
# empty string: save_csv must write exactly csv.writer's bytes for them. The
# plain cells need no quotes, except "" when it is a row's only field.
AWKWARD = ["a,b", 'say "hi"', "x\ry", "x\ny", "x\r\ny", " lead", "trail ",
           "héllo 日本", "", None, '"', ","]
PLAIN = ["x", "", None, " y z ", "日本"]


@pytest.mark.parametrize("cells", [AWKWARD, PLAIN])
@pytest.mark.parametrize("attrs", [[], ["a"], ["a", "b,c", 'q"']])
@pytest.mark.parametrize("tid_column", [None, "tid"])
@pytest.mark.parametrize("null_token", ["", "<NULL>"])
def test_save_csv_bytes_match_csv_writer(tmp_path, attrs, tid_column,
                                         null_token, cells):
    n = _CHUNK_ROWS + 5  # crosses a block boundary
    tids = [3 * i - 5 for i in range(n)]
    rows = [[cells[(i * (2 * j + 1) + j) % len(cells)]
             for j in range(len(attrs))] for i in range(n)]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([tid_column] * (tid_column is not None) + attrs)
        for tid, row in zip(tids, rows):
            cells = [null_token if v is None else v for v in row]
            writer.writerow([tid] * (tid_column is not None) + cells)
    out = tmp_path / "out.csv"
    save_csv(Relation(Schema(attrs), tids, rows), out, null_token=null_token,
             tid_column=tid_column)
    assert out.read_bytes() == ref.read_bytes()


def runs_reference(sizes, bound):
    """``save_csv``'s runs, as lists of dictionary sizes: an attribute joins
    the run before it while the run's product stays at most ``bound``."""
    runs = []
    for k in sizes:
        if runs and math.prod(runs[-1]) * k <= bound:
            runs[-1].append(k)
        else:
            runs.append([k])
    return runs


@st.composite
def run_relations(draw):
    """1-6 attributes of 1-70 values each, every value in the dictionary
    whether a row uses it or not, and a row count and block size around
    the product of some adjacent attributes' dictionary sizes (which count
    NULL), around the block size, or 0 rows."""
    sizes = draw(st.lists(st.integers(2, 71), min_size=1, max_size=6))
    near = sorted({max(math.prod(sizes[i:j]) + d, 1)
                   for i in range(len(sizes))
                   for j in range(i + 1, len(sizes) + 1) for d in (-1, 0, 1)
                   if math.prod(sizes[i:j]) <= 2 * _CHUNK_ROWS})
    chunk_rows = draw(st.one_of(st.just(_CHUNK_ROWS), st.sampled_from(near)))
    n = draw(st.sampled_from([0, 1, chunk_rows - 1, chunk_rows,
                              chunk_rows + 1, 2 * chunk_rows + 3, *near]))
    pool = [v for v in AWKWARD if v is not None] + ["v%d" % i
                                                    for i in range(70)]
    values = [[None, *draw(st.permutations(pool))[:k - 1]] for k in sizes]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [[vals[c] for vals, c in zip(values, codes)]
            for codes in zip(*(rng.integers(0, k, n).tolist()
                               for k in sizes))]
    return values, rows, chunk_rows


@settings(deadline=None)
@given(run_relations(), st.sampled_from(["", "<NULL>"]),
       st.sampled_from([None, "tid"]), st.booleans())
@example(([[None, *map(str, range(63))]] * 2, [], _CHUNK_ROWS), "", None,
         False)  # no rows: no run
@example(([[None, *map(str, range(63))]] * 2 + [[None, "x"]],
          [["1", "2", "x"]] * (_CHUNK_ROWS + 5), _CHUNK_ROWS), "", "tid",
         False)  # 64 * 64 is the block's rows, and a third would be over
@example(([[None, *map(str, range(k))] for k in (4, 6, 5, 5)],
          [["1", "2", "3", None]] * 35, _CHUNK_ROWS), "<NULL>", None,
         False)  # 5 * 7 is the 35 rows, and 6 * 6 one over
def test_save_csv_runs_match_csv_writer(tmp_path_factory, relation_case,
                                        null_token, tid_column, shared):
    # a run of adjacent attributes writes one joined string per row from a
    # table keyed by their codes; the runs must be save_csv's rule, and
    # the bytes csv.writer's
    values, rows, chunk_rows = relation_case
    attrs = ["a%d" % j for j in range(len(values))]
    tids = [3 * i - 5 for i in range(len(rows))]
    rel = Relation(Schema(attrs), tids, rows)
    for a, vals in zip(attrs, values):
        rel.encode_all(a, vals)  # the values no row uses enter too
    if shared and rows:
        # a repair's output shares its input's dictionaries, so each
        # holds the values the output no longer uses
        out = rel.copy()
        out.set(tids[0], attrs[0], "new")
        rows = [list(row) for row in rows]
        rows[0][0] = "new"
        rel = out
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([tid_column] * (tid_column is not None) + attrs)
    for tid, row in zip(tids, rows):
        writer.writerow([tid] * (tid_column is not None)
                        + [null_token if v is None else v for v in row])
    formed = []

    def runs(fields, bound):
        formed.append(([len(field) for _, field in fields], bound))
        out = runs_of(fields, bound)
        for parts, table in out:  # each table holds every joined combination
            combos = itertools.product(*(f for _, f in fields[:len(parts)]))
            assert table.tolist() == ["".join(c) for c in combos]
            fields = fields[len(parts):]
        formed.append([[k for _, k in parts] for parts, _ in out])
        return out
    runs_of = relation._runs
    path = tmp_path_factory.mktemp("runs") / "out.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation, "_CHUNK_ROWS", chunk_rows)
        mp.setattr(relation, "_runs", runs)
        save_csv(rel, path, null_token=null_token, tid_column=tid_column)
    (sizes, bound), got = formed
    assert sizes == [len(rel.values(a)) for a in attrs]
    assert bound == min(len(rows), chunk_rows)
    assert got == runs_reference(sizes, bound)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def test_zero_attribute_csv_round_trip(tmp_path):
    # every row is an empty line, which load_csv reads back as a row
    rel = Relation(Schema([]), [1, 2, 3], [[], [], []])
    p = tmp_path / "empty.csv"
    save_csv(rel, p)
    back = load_csv(p)
    assert back.schema == rel.schema
    assert back.tids == rel.tids
    assert back.rows == rel.rows == [[], [], []]


cell = st.one_of(st.none(), st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\0<>"),
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
