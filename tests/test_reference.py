"""The engine against its row-loop reference (``tests/reference.py``) on
the census runs: each repair's rows, per-FD polls and fixes, revisions,
Vio sizes and priority order, any ``RepairInvariantError``, and the rng
state after the last draw; and its rows against the row loop making every
revision. No census class shares one forest, so planted unary cycles of
3-5 attributes (``planted_cycle``) follow the census.

Tier-1 checks census seeds 0-59 (720 repairs) and cycle seeds 0-4 (90);
a profile of 1,000 examples or more, as ``--hypothesis-profile=ci``
loads, checks all 300 census seeds (3,600 repairs) and cycle seeds 0-49.
"""

import importlib
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import settings

from fdrepair import swipe
from fdrepair.priority import RepairInvariantError, priority_repair
from helpers import census_runs, planted_cycle
from reference import swipe_reference, takes_shortcut

CI = settings().max_examples >= 1000
SEEDS, CYCLE_SEEDS = (range(300), range(50)) if CI else (range(60), range(5))


def oracle_runs():
    """(relation, FDs, repair seed): the census runs, then the planted
    cycles."""
    yield from census_runs(SEEDS)
    for k in (3, 4, 5):
        for seed in CYCLE_SEEDS:
            rel, fds, _ = planted_cycle(k, seed)
            yield rel, fds, seed


def class_calls(calls):
    """A stand-in for ``swipe``'s ``priority_repair`` that runs it and
    appends the positional arguments of each call, one per class, to
    ``calls``: ``(rel, fds_i, class_attrs, functions, rng)``."""
    def run(*args, **kwargs):
        calls.append(args)
        return priority_repair(*args, **kwargs)
    return mock.patch.object(importlib.import_module("fdrepair.swipe"),
                             "priority_repair", run)


def test_swipe_matches_row_loop_reference():
    for rel, fds, seed in oracle_runs():
        for null_equals_null, fn in product((True, False),
                                            ("mv", "wv", "max")):
            run = (seed, null_equals_null, fn)
            calls = []
            try:
                with class_calls(calls):
                    out = swipe(rel, fds, repair_fn=fn, seed=seed,
                                null_equals_null=null_equals_null)
            except RepairInvariantError as exc:
                with pytest.raises(RepairInvariantError) as ref_exc:
                    swipe_reference(rel, fds, fn, seed, null_equals_null)
                assert str(ref_exc.value) == str(exc), run
                continue
            rows, stats, ref_rng = swipe_reference(rel, fds, fn, seed,
                                                   null_equals_null)
            assert out.repaired.rows == rows, run
            assert [c.stats for c in out.classes] == stats, run
            # swipe's own rng, as it hands it to each class
            rng = calls[-1][4] if calls else random.Random(seed)
            assert rng.getstate() == ref_rng.getstate(), run
            if any(takes_shortcut(cls, fds_i, functions, null_equals_null)
                   for _, fds_i, cls, functions, _ in calls):
                every_revision, _, _ = swipe_reference(
                    rel, fds, fn, seed, null_equals_null,
                    every_revision=True)
                assert out.repaired.rows == every_revision, run
