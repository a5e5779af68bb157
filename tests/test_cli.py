import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from fdrepair import load_csv, load_fds, swipe
from fdrepair.cli import main
from fdrepair.fds import minimal_cover, violates
from fdrepair.priority import pilot_fds
from reference import swipe_reference


@pytest.fixture
def workdir(tmp_path):
    """Synthetic data + FD file pair on disk."""
    data, fds = tmp_path / "data.csv", tmp_path / "rules.txt"
    rc = main(["generate", "--rows", "80", "--attrs", "4", "--seed", "3",
               "--out-data", str(data), "--out-fds", str(fds)])
    assert rc == 0
    return tmp_path


def test_generate_outputs_loadable(workdir):
    rel = load_csv(workdir / "data.csv")
    fds = load_fds(workdir / "rules.txt", rel.schema)
    assert len(rel) == 80
    assert len(fds) == 4


def test_repair_end_to_end(workdir):
    out = workdir / "repaired.csv"
    report = workdir / "report.json"
    rc = main(["repair", "--data", str(workdir / "data.csv"),
               "--fds", str(workdir / "rules.txt"),
               "--out", str(out), "--report", str(report), "--seed", "1"])
    assert rc == 0
    repaired = load_csv(out)
    for fd in load_fds(workdir / "rules.txt", repaired.schema):
        assert violates(repaired, fd) == []


def test_repair_report_matches_schema(workdir):
    report = workdir / "report.json"
    main(["repair", "--data", str(workdir / "data.csv"),
          "--fds", str(workdir / "rules.txt"),
          "--out", str(workdir / "r.csv"), "--report", str(report),
          "--seed", "1"])
    schema = json.loads(resources.files("fdrepair")
                        .joinpath("report_schema.json").read_text())
    jsonschema.validate(json.loads(report.read_text()), schema)


def test_repair_report_null_unequal_pair_revises(tmp_path):
    # a two-attribute cycle with a pilot FD into each attribute, under
    # NULL-unequal semantics: the unary-revision shortcut is not taken, so
    # the {a, b} class makes both revisions and repairs as the run making
    # every revision does
    data, fds, report = (tmp_path / n for n in ("d.csv", "f.txt", "r.json"))
    data.write_text("p,q,a,b\n,1,1,0\n,1,1,0\n,0,0,\n1,1,0,1\n2,1,0,2\n"
                    "0,1,,2\n1,0,,2\n0,,,\n")
    fds.write_text("p -> a\nq -> b\na -> b\nb -> a\n")
    out = tmp_path / "out.csv"
    assert main(["repair", "--data", str(data), "--fds", str(fds),
                 "--out", str(out), "--report", str(report),
                 "--null-unequal", "--seed", "0"]) == 0
    classes = json.loads(report.read_text())["classes"]
    assert [(c["attributes"], c["revisions"]) for c in classes] == [
        (["p"], 0), (["q"], 0), (["a", "b"], 2)]
    rel = load_csv(data)
    rules = load_fds(fds, rel.schema)
    reference, _, _ = swipe_reference(rel, rules, "mv", 0,
                                      null_equals_null=False,
                                      every_revision=True)
    repaired = load_csv(out)
    assert repaired.rows == reference
    for fd in rules:
        assert violates(repaired, fd, False) == []
    schema = json.loads(resources.files("fdrepair")
                        .joinpath("report_schema.json").read_text())
    jsonschema.validate(json.loads(report.read_text()), schema)


@pytest.mark.parametrize("semantics", [[], ["--null-unequal"]])
def test_repair_header_only_csv(tmp_path, semantics):
    data, fds, out, report = (tmp_path / n for n in
                              ("d.csv", "f.txt", "out.csv", "r.json"))
    data.write_text("a,b,c\n")
    fds.write_text("a -> b\nb -> a\na,b -> c\n")
    assert main(["repair", "--data", str(data), "--fds", str(fds),
                 "--out", str(out), "--report", str(report), "--seed", "0",
                 *semantics]) == 0
    assert out.read_text() == "a,b,c\n"
    saved = json.loads(report.read_text())
    assert saved["cells_changed"] == 0
    assert all(c["cells_changed_per_attribute"] ==
               dict.fromkeys(c["attributes"], 0) for c in saved["classes"])
    schema = json.loads(resources.files("fdrepair")
                        .joinpath("report_schema.json").read_text())
    jsonschema.validate(saved, schema)


def test_repair_deterministic_given_seed(workdir):
    argv = ["repair", "--data", str(workdir / "data.csv"),
            "--fds", str(workdir / "rules.txt"), "--seed", "9"]
    main(argv + ["--out", str(workdir / "r1.csv")])
    main(argv + ["--out", str(workdir / "r2.csv")])
    assert (workdir / "r1.csv").read_text() == (workdir / "r2.csv").read_text()


def test_repair_fn_map_override(workdir):
    fn_map = workdir / "fns.txt"
    fn_map.write_text("a1 = max\na2=wv  # comment\n")
    rc = main(["repair", "--data", str(workdir / "data.csv"),
               "--fds", str(workdir / "rules.txt"),
               "--out", str(workdir / "r.csv"), "--fn-map", str(fn_map),
               "--seed", "0"])
    assert rc == 0


def test_repair_fn_map_repeated_attribute(workdir, capsys):
    fn_map = workdir / "fns.txt"
    fn_map.write_text("a1 = max\na2=wv\na1=mv\n")
    assert main(["repair", "--data", str(workdir / "data.csv"),
                 "--fds", str(workdir / "rules.txt"),
                 "--out", str(workdir / "r.csv"), "--fn-map", str(fn_map),
                 "--seed", "0"]) == 1
    assert ("fn-map line 'a1=mv' names attribute 'a1' again"
            in capsys.readouterr().err)
    assert not (workdir / "r.csv").exists()


def test_repair_fn_map_line_without_equals(workdir, capsys):
    fn_map = workdir / "fns.txt"
    fn_map.write_text("a1 = max\na2 wv\n")
    assert main(["repair", "--data", str(workdir / "data.csv"),
                 "--fds", str(workdir / "rules.txt"),
                 "--out", str(workdir / "r.csv"), "--fn-map", str(fn_map),
                 "--seed", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: malformed fn-map line 'a2 wv', expected attr=fn\n")
    assert not (workdir / "r.csv").exists()


def _priority_inputs(tmp_path, priority_text):
    """Two cyclic classes, [a, b] and [c, d], and a priority file."""
    data, fds, prio = (tmp_path / n for n in ("d.csv", "f.txt", "p.txt"))
    data.write_text("a,b,c,d\n1,1,1,1\n1,2,1,2\n2,2,2,1\n2,1,1,1\n")
    fds.write_text("a -> b\nb -> a\nc -> d\nd -> c\n")
    prio.write_text(priority_text)
    return ["repair", "--data", str(data), "--fds", str(fds),
            "--out", str(tmp_path / "out.csv"), "--priority-file", str(prio),
            "--report", str(tmp_path / "r.json"), "--seed", "0"]


def test_repair_priority_file(tmp_path):
    argv = _priority_inputs(
        tmp_path, "# manual order\n1: b > a\n\n2 : d > c  # second class\n")
    assert main(argv) == 0
    classes = json.loads((tmp_path / "r.json").read_text())["classes"]
    assert [(c["attributes"], c["priority"]) for c in classes] == [
        (["a", "b"], ["b", "a"]), (["c", "d"], ["d", "c"])]


def test_repair_reads_files_with_a_leading_bom(tmp_path):
    # data, FD, fn-map and priority files saved with a UTF-8 byte order
    # mark repair as they do without one
    argv = _priority_inputs(tmp_path, "1: b > a\n2: d > c\n")
    fn_map = tmp_path / "fns.txt"
    fn_map.write_text("a = max\n")
    argv += ["--fn-map", str(fn_map)]
    assert main(argv) == 0

    def outputs():
        classes = json.loads((tmp_path / "r.json").read_text())["classes"]
        for c in classes:
            del c["duration_s"]
        return (tmp_path / "out.csv").read_bytes(), classes
    want = outputs()
    for name in ("d.csv", "f.txt", "p.txt", "fns.txt"):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(argv) == 0
    assert outputs() == want


def test_repair_priority_file_malformed_line(tmp_path, capsys):
    assert main(_priority_inputs(tmp_path, "1: b > a\n2 d > c\n")) == 1
    assert ("malformed priority line '2 d > c'"
            in capsys.readouterr().err)


def test_repair_priority_file_repeated_class(tmp_path, capsys):
    argv = _priority_inputs(tmp_path, "1: b > a\n2: d > c\n 1 : a > b\n")
    assert main(argv) == 1
    assert ("priority line '1 : a > b' names class 1 again"
            in capsys.readouterr().err)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("index", ["x", "1.5", ""])
def test_repair_priority_file_index_not_an_integer(tmp_path, capsys, index):
    line = "%s: d > c" % index
    assert main(_priority_inputs(tmp_path, "1: b > a\n%s\n" % line)) == 1
    assert ("malformed priority line %r, expected 'class_index: a > b'"
            % line.strip() in capsys.readouterr().err)


def test_partition_null_unequal_lists_what_repair_repairs(tmp_path, capsys):
    # a -> c follows from a -> b and b -> c only where NULL equals NULL, so
    # the NULL-equal cover drops it and the NULL-unequal cover keeps it
    data, fds, report = (tmp_path / n for n in ("d.csv", "f.txt", "r.json"))
    data.write_text("a,b,c\n1,1,1\n1,,2\n")
    fds.write_text("a -> b\nb -> c\na -> c\n")
    listings = []
    for semantics in ([], ["--null-unequal"]):
        assert main(["partition", "--data", str(data), "--fds", str(fds),
                     *semantics]) == 0
        listings.append(capsys.readouterr().out.splitlines())
    head = ["C1: a", "C2: b", "  pilot:     a -> b", "C3: c",
            "  pilot:     b -> c"]
    assert listings == [head, head + ["  pilot:     a -> c"]]
    assert main(["repair", "--data", str(data), "--fds", str(fds),
                 "--out", str(tmp_path / "out.csv"), "--report", str(report),
                 "--null-unequal", "--seed", "0"]) == 0
    classes = json.loads(report.read_text())["classes"]
    assert [sorted(c["polls_per_fd"]) for c in classes] == [
        [], ["a -> b"], ["a -> c", "b -> c"]]


def test_partition_listing(workdir, capsys):
    rc = main(["partition", "--data", str(workdir / "data.csv"),
               "--fds", str(workdir / "rules.txt")])
    assert rc == 0
    rel = load_csv(workdir / "data.csv")
    fds = load_fds(workdir / "rules.txt", rel.schema)
    cover = minimal_cover(fds)
    outcome = swipe(rel, fds, seed=0)
    expected = []
    for i, (cls, c) in enumerate(zip(outcome.partition, outcome.classes),
                                 start=1):
        expected.append("C%d: %s" % (i, ", ".join(cls)))
        # the FDs swipe polled in this class, in cover order
        pilots, rest = pilot_fds(cls, [fd for fd in cover
                                       if fd in c.stats.polls_per_fd])
        expected += ["  pilot:     %s" % fd for fd in pilots]
        expected += ["  non-pilot: %s" % fd for fd in rest]
    if outcome.non_repairable:
        expected.append("non-repairable: %s"
                        % ", ".join(outcome.non_repairable))
    assert capsys.readouterr().out.splitlines() == expected
    assert any(line.startswith("  pilot:") for line in expected)
    assert any(line.startswith("  non-pilot:") for line in expected)


def test_partition_lists_non_repairable_attributes(tmp_path, capsys):
    data, fds = tmp_path / "d.csv", tmp_path / "f.txt"
    data.write_text("a,b,z\n1,x,q\n1,y,r\n")
    fds.write_text("a -> b\n")
    assert main(["partition", "--data", str(data), "--fds", str(fds)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "C1: a", "C2: b", "  pilot:     a -> b", "non-repairable: z"]


def test_evaluate_round_trip(workdir, capsys):
    dirty = workdir / "data.csv"
    repaired = workdir / "repaired.csv"
    main(["repair", "--data", str(dirty), "--fds", str(workdir / "rules.txt"),
          "--out", str(repaired), "--seed", "4"])
    capsys.readouterr()
    report = workdir / "quality.json"
    # score against the repair itself: every change counts as correct
    rc = main(["evaluate", "--dirty", str(dirty), "--repaired", str(repaired),
               "--gold", str(repaired), "--report", str(report)])
    assert rc == 0
    saved = json.loads(report.read_text())
    assert saved["precision"] == 1.0
    assert "precision=1.000" in capsys.readouterr().out


def test_report_counts_the_cells_evaluate_counts(workdir, capsys):
    # cells_changed, in total and summed over classes, is the repair's net
    # difference from its input, which evaluate reports as repaired_cells
    dirty, repaired, report = (workdir / n for n in
                               ("data.csv", "repaired.csv", "report.json"))
    assert main(["repair", "--data", str(dirty),
                 "--fds", str(workdir / "rules.txt"), "--out", str(repaired),
                 "--report", str(report), "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--dirty", str(dirty), "--repaired",
                 str(repaired), "--gold", str(dirty)]) == 0
    quality = json.loads(capsys.readouterr().out.splitlines()[0])
    saved = json.loads(report.read_text())
    assert saved["cells_changed"] == quality["repaired_cells"] > 0
    assert sum(c["cells_changed"] for c in saved["classes"]) == \
        saved["cells_changed"]
    for c in saved["classes"]:
        assert list(c["cells_changed_per_attribute"]) == c["attributes"]
        assert sum(c["cells_changed_per_attribute"].values()) == \
            c["cells_changed"]


def test_missing_file_exits_nonzero(tmp_path, capsys):
    rc = main(["partition", "--data", str(tmp_path / "nope.csv"),
               "--fds", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_partition_non_utf8_csv(tmp_path, capsys):
    data, fds = tmp_path / "d.csv", tmp_path / "f.txt"
    data.write_bytes(b"a,b\n" + b"x,y\n" * 5000 + b"x,\xff\n")
    fds.write_text("a -> b\n")
    assert main(["partition", "--data", str(data), "--fds", str(fds)]) == 1
    assert capsys.readouterr().err == (
        "error: %s:5002: byte 0xff at offset 20006 is not UTF-8\n" % data)


def test_console_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "fdrepair.cli", "partition",
         "--data", str(workdir / "data.csv"),
         "--fds", str(workdir / "rules.txt")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("C1:")
