import pytest

from perfbench import workloads
from perfbench.check import read_csv

SMALL = {"dense-100k": 2000, "wide-cyclic-10k": 500, "sparse-gold-50k": 3000}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    gen = workloads.GENERATORS[name]
    runs = []
    for i, seed in enumerate((0, 0, 1)):
        out = tmp_path / str(i)
        out.mkdir()
        runs.append(gen(seed, str(out), n_rows=SMALL[name]).input_sha256)
    assert runs[0] == runs[1]
    assert runs[0]["data.csv"] != runs[2]["data.csv"]


def test_gold_is_clean_and_error_rate_matches(tmp_path):
    wl = workloads.sparse_gold(3, str(tmp_path), n_rows=3000)
    header, gold = read_csv(wl.gold)
    _, dirty = read_csv(wl.data)
    for lhs, rhs in wl.fd_list:
        assert workloads.violated_groups(gold, header, lhs, rhs)[0] == 0
    covered = {a for lhs, rhs in wl.fd_list for a in lhs + (rhs,)}
    assert "z" not in covered
    changed = [(r, a) for r, (g, d) in enumerate(zip(gold, dirty))
               for a, gv, dv in zip(header, g, d) if gv != dv]
    assert {a for _, a in changed} <= covered
    assert len(changed) == round(workloads.GOLD_ERROR_RATE * 3000 * len(covered))


def test_dense_inputs_are_mostly_violated(tmp_path):
    wl = workloads.dense(0, str(tmp_path), n_rows=2000)
    header, rows = read_csv(wl.data)
    bad = sum(workloads.violated_groups(rows, header, lhs, rhs)[0]
              for lhs, rhs in wl.fd_list)
    total = sum(workloads.violated_groups(rows, header, lhs, rhs)[1]
                for lhs, rhs in wl.fd_list)
    assert 2 * bad >= total


def test_unary_cycle_sizes():
    cycle = workloads.parse_fds(["a -> b", "b -> c", "c -> d", "d -> a"])
    chain = workloads.parse_fds(["a -> b", "b -> c", "a,c -> d"])
    assert max(workloads.unary_cycle_sizes(cycle)) == 4
    assert max(workloads.unary_cycle_sizes(chain)) == 1
    assert max(workloads.unary_cycle_sizes(workloads.WIDE_FDS)) >= 4
