import math

from perfbench import run
from perfbench.workloads import write_workload


def test_run_cli_reports_corrected_time(tmp_path):
    wl = write_workload("tiny", str(tmp_path), ["k", "v"],
                        [[str(i % 7), str(i % 3)] for i in range(3000)],
                        [(("k",), "v")], [])
    argv = run.repair_argv(wl, 0, wl.data, str(tmp_path / "out.csv"),
                           str(tmp_path / "report.json"))
    rc, timing = run.run_cli(argv, reference=True)
    assert rc == 0
    assert timing.cpu > 0 and timing.ref_hz > 0
    assert math.isclose(timing.corrected,
                        timing.cpu * timing.ref_hz / run.REF_NOMINAL_HZ)
    rc, plain = run.run_cli(argv)
    assert rc == 0 and math.isnan(plain.ref_hz)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(1000))) == (99, 989)
