import contextlib
import io
import sys

from fdrepair import cli
from perfbench.trace import Tracer
from perfbench.workloads import write_workload

# Every entry point the tracer must wrap, as (module or class, attribute).
EXPECTED = {
    ("fdrepair.cli", "load_csv"), ("fdrepair.cli", "save_csv"),
    ("fdrepair.cli", "swipe"),
    ("fdrepair.swipe", "minimal_cover"), ("fdrepair.swipe", "build_preorder"),
    ("fdrepair.swipe", "induced_partition"),
    ("fdrepair.swipe", "check_forward_repairable"),
    ("fdrepair.swipe", "fds_entering_at"),
    ("fdrepair.swipe", "priority_repair"), ("fdrepair.swipe", "violates"),
    ("fdrepair.priority", "estimate_priority"), ("fdrepair.priority", "fix"),
    ("fdrepair.priority", "update_dsf"), ("fdrepair.priority", "violates"),
    ("fdrepair.priority", "group_rows"),
    ("fdrepair.priority", "DisjointSetForest"),
    ("fdrepair.fds", "group_rows"),
    ("Relation", "copy"), ("DisjointSetForest", "classes"),
    ("RepairFunction", "__call__"),
}


def owner_name(owner):
    return getattr(owner, "__name__", None)


def test_tracer_wraps_and_restores_every_name(tmp_path):
    wl = write_workload("tiny", str(tmp_path), ["a", "b", "c"],
                        [["1", "x", "p"], ["1", "y", "p"], ["2", "y", "q"],
                         ["2", "y", "r"]],
                        [(("a",), "b"), (("b",), "c"), (("c",), "a")], [])
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        assert {(owner_name(o), a) for o, a, _ in patched} == EXPECTED
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("cli"):
                rc = cli.main(["repair", "--data", wl.data, "--fds", wl.fds,
                               "--out", str(tmp_path / "out.csv"),
                               "--seed", "0"])
    finally:
        tracer.restore()
    assert rc == 0
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert sys.modules["fdrepair.swipe"].violates.__module__ == "fdrepair.fds"

    names = {span[0] for span in tracer.spans}
    assert {"cli", "swipe", "relation.load_csv", "priority.fix",
            "priority.update_dsf", "fds.violates.final"} <= names
    root = tracer.spans[0]
    own = tracer.self_times()
    assert abs(sum(own.values()) - (root[2] - root[1])) < 1e-6
    assert tracer.counters["priority.polls"] >= 1
    assert tracer.counters["repair_functions.calls"] >= 1
