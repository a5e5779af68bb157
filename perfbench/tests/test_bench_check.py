import contextlib
import io
import json
import os

import pytest

from fdrepair import cli
from perfbench.check import CheckError, OutputChecker, check_repair, read_csv
from perfbench.workloads import _write_csv, write_workload

SCHEMA_PATH = os.path.join(os.path.dirname(cli.__file__), "report_schema.json")


@pytest.fixture
def repaired(tmp_path):
    """A tiny workload, its repaired CSV and report from the real CLI."""
    wl = write_workload("tiny", str(tmp_path), ["k", "v", "z"],
                        [["1", "a", "x"], ["1", "a", "y"], ["1", "b", "w"],
                         ["2", "c", "u"], ["2", "c", "t"]],
                        [(("k",), "v")], [])
    out, report = str(tmp_path / "out.csv"), str(tmp_path / "report.json")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["repair", "--data", wl.data, "--fds", wl.fds,
                       "--out", out, "--report", report, "--seed", "0"])
    assert rc == 0
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        schema = json.load(fh)
    return wl, out, report, schema


def plant(path, row, col, value):
    header, rows = read_csv(path)
    rows[row][col] = value
    _write_csv(path, header, rows)


def test_correct_repair_passes(repaired):
    wl, out, report, schema = repaired
    assert check_repair(wl, out, report, schema)


@pytest.mark.parametrize("row, col, value, message", [
    (0, 1, "b", "violated"),  # rhs value from the input: only the FD breaks
    (3, 0, "1", "violated"),  # lhs moved into a group with another value
    (4, 2, "x", "no FD's rhs but changed"),
])
def test_checker_catches_planted_defect(repaired, row, col, value, message):
    wl, out, report, schema = repaired
    plant(out, row, col, value)
    with pytest.raises(CheckError, match=message):
        check_repair(wl, out, report, schema)


def test_checker_catches_non_preservative_value(repaired):
    wl, out, report, schema = repaired
    for row in (3, 4):  # the FD still holds, but "q" was never in column v
        plant(out, row, 1, "q")
    with pytest.raises(CheckError, match="absent from the input"):
        check_repair(wl, out, report, schema)


def test_checker_catches_report_outside_schema(repaired):
    wl, out, report, schema = repaired
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"seed": 0}, fh)
    with pytest.raises(CheckError, match="schema"):
        check_repair(wl, out, report, schema)


def test_checker_catches_digest_mismatch(repaired):
    wl, out, report, schema = repaired
    checker = OutputChecker(wl, schema)
    first = checker(out, report)
    assert checker(out, report) == first
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("\n")
    with pytest.raises(CheckError, match="differs from the first run"):
        checker(out, report)
