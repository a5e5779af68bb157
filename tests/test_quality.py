"""Repair quality against a gold copy: a tier-1 band on the F-score."""

import os
import sys

import pytest

from fdrepair import evaluate, load_csv, load_fds, swipe

# the instance comes from the benchmark's own generator, which sits at the
# repository's root beside src/
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import sparse_gold  # noqa: E402


def test_sparse_gold_f_score_in_band(tmp_path):
    # a clean 20k x 8 chain instance with 3% of its FD-covered cells
    # corrupted, repaired as the benchmark repairs sparse-gold-50k: wv,
    # NULL-unequal; seed 0 scored P 0.6919, R 0.5683, F 0.6241
    wl = sparse_gold(0, tmp_path, n_rows=20_000)
    dirty = load_csv(wl.data)
    outcome = swipe(dirty, load_fds(wl.fds), repair_fn="wv", seed=0,
                    null_equals_null=False)
    report = evaluate(dirty, outcome.repaired, load_csv(wl.gold))
    assert report.f_score == pytest.approx(0.6241, abs=0.01), report
