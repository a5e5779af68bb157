import os
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import fdrepair
from fdrepair import RepairFunction
from fdrepair.repair_functions import (BUILTINS, MV, WV, get_function,
                                       max_value, vote)


def test_majority_clear_winner():
    rng = random.Random(0)
    assert MV(["10006"] * 3 + ["1x006"], [0] * 4, 5, rng) == "10006"


def test_majority_constant_bag():
    assert MV(["v"] * 5, [0] * 5, 1, random.Random(0)) == "v"


def test_majority_tie_is_seed_deterministic():
    picks = {MV(["p", "q"], [0, 0], 2, random.Random(42)) for _ in range(5)}
    assert len(picks) == 1
    assert picks.pop() in {"p", "q"}


def test_majority_null_loses_tie():
    assert MV(["p", None], [0, 1], 2, random.Random(0)) == "p"


def test_majority_empty_bag():
    with pytest.raises(ValueError):
        MV([], [], 2, random.Random(0))


def test_weighted_prefers_low_null_rows():
    # width 5: weight 625 for N=0 beats 81+81 for two rows with N=2
    v = WV(["u", "v", "v"], [0, 2, 2], 5, random.Random(0))
    assert v == "u"


def test_weighted_equal_nulls_reduces_to_majority():
    values = ["a", "b", "b"]
    assert WV(values, [1, 1, 1], 4, random.Random(3)) == \
        MV(values, [1, 1, 1], 4, random.Random(3))


def test_weighted_single_entry():
    assert WV(["x"], [2], 5, random.Random(0)) == "x"


def test_max_allergen_codes():
    assert max_value(["0", "2", "1"]) == "2"


def test_max_singleton():
    assert max_value(["v"]) == "v"


def test_max_numeric_order():
    assert max_value(["10", "9"]) == "10"
    assert max_value(["10", "9x"]) == "9x"  # lexicographic fallback


def test_max_with_nan_takes_text_order_in_every_bag_order():
    # NaN has no numeric rank, so a bag holding one is ordered as text
    for bag in permutations(["nan", "1", "2"]):
        assert max_value(list(bag)) == "nan"
    for bag in permutations([None, "NaN", "10", "9"]):
        assert max_value(list(bag)) == "NaN"


def test_max_equal_numbers_take_text_order_in_every_bag_order():
    # constants that spell one number rank by their text
    for bag in permutations(["1", "1.0"]):
        assert max_value(list(bag)) == "1.0"
    for bag in permutations(["01", "1", "1.0", None]):
        assert max_value(list(bag)) == "1.0"


def test_max_null_is_minimum():
    assert max_value([None, "0"]) == "0"
    assert max_value([None, None]) is None


def test_builtins_preservative_flags():
    for name in ("mv", "wv", "max"):
        assert get_function(name).preservative


def test_max_value_empty_bag():
    with pytest.raises(ValueError) as exc:
        max_value([])
    assert str(exc.value) == "empty bag"


def test_preservative_flag_is_checked():
    outside = RepairFunction("outside", True, lambda vs, ns, w, rng: "z")
    with pytest.raises(ValueError):
        outside(["a", "b"], [0, 0], 2, random.Random(0))


def test_preservative_check_survives_optimize_flag():
    # python -O strips assert statements; this check must stay
    code = ("import random\n"
            "from fdrepair import RepairFunction\n"
            "fn = RepairFunction('outside', True, lambda vs, ns, w, rng: 'z')\n"
            "try:\n"
            "    fn(['a', 'b'], [0, 0], 2, random.Random(0))\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fdrepair.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_unknown_function():
    with pytest.raises(ValueError):
        get_function("median")


bag = st.lists(st.one_of(st.none(), st.text(max_size=3)), min_size=1, max_size=8)


@settings(max_examples=500, deadline=None)
@given(bag, st.integers(0, 2**32 - 1))
def test_preservation_and_determinism(values, seed):
    nulls = [sum(1 for v in values if v is None)] * len(values)
    for fn in BUILTINS.values():
        out = fn(values, nulls, 8, random.Random(seed))
        assert out in values
        assert out == fn(values, nulls, 8, random.Random(seed))


@given(st.one_of(st.none(), st.text(max_size=3)), st.integers(1, 6))
def test_idempotence_on_constant_bags(v, n):
    values = [v] * n
    for fn in BUILTINS.values():
        assert fn(values, [0] * n, 8, random.Random(0)) == v


def counter_vote(values, null_counts, schema_width, rng, exponent):
    """``vote`` as a Counter of summed weights: the top values in order of
    first entry, a constant beating NULL, tied constants drawn by
    ``rng.choice`` sorted."""
    weights = Counter()
    for v, n in zip(values, null_counts, strict=True):
        weights[v] += (schema_width - n) ** exponent
    top = [v for v, w in weights.items() if w == max(weights.values())]
    pool = [v for v in top if v is not None] or top
    return pool[0] if len(pool) == 1 else rng.choice(sorted(set(pool)))


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.tuples(
           st.just(width),
           st.lists(st.tuples(st.sampled_from([None, "a", "b", "c", "dd"]),
                              st.integers(0, width)), min_size=1, max_size=12))),
       st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_vote_matches_counter_vote(bag, exponent, seed):
    # the same pick and the same rng draws, NULLs and zero weights included
    width, entries = bag
    values, null_counts = map(list, zip(*entries))
    rng, ref = random.Random(seed), random.Random(seed)
    assert vote(values, null_counts, width, rng, exponent) == \
        counter_vote(values, null_counts, width, ref, exponent)
    assert rng.getstate() == ref.getstate()
