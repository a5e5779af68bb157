"""Golden outputs: the repaired CSV bytes and the change set of fixed-seed
repairs, pinned by sha256.

Any engine change that alters one output byte for a given seed fails here.
A case whose repair raises pins the exception's name instead of digests.
The census pins one digest over 3,600 generated repairs (see
``helpers.census_digest``). Run as a script, ``python3 tests/test_golden.py
<case index>`` prints the digests of one case and ``python3
tests/test_golden.py census`` the census digest (the hash-seed tests repeat
them that way in a child interpreter), and ``python3 tests/test_golden.py
all`` prints every case in the form pinned below.
"""

import hashlib
import os
import random
import subprocess
import sys
import tempfile

import pytest

import fdrepair
from fdrepair import GenConfig, generate, load_csv, save_csv, swipe
from fdrepair.swipe import RepairInvariantError
from helpers import census_digest

# (rows, attrs, generator seed, repair function, null_equals_null, NULL rate)
CASES = [
    (60, 4, 0, "mv", True, 0.0),
    (60, 4, 1, "wv", True, 0.0),
    (60, 4, 2, "max", True, 0.0),
    (80, 5, 3, "mv", False, 0.0),
    (80, 5, 4, "wv", False, 0.0),
    (80, 5, 5, "max", False, 0.0),
    (100, 6, 6, "mv", True, 0.1),
    (100, 6, 7, "wv", True, 0.1),
    (100, 6, 8, "max", True, 0.1),
    (120, 6, 9, "mv", False, 0.1),
    (120, 6, 10, "wv", False, 0.1),
    (120, 6, 11, "max", False, 0.1),
    (1000, 5, 12, "mv", True, 0.0),
    (1000, 8, 13, "wv", False, 0.1),
    (400, 3, 14, "max", True, 0.1),
    (300, 12, 15, "mv", True, 0.0),
    (300, 12, 16, "wv", False, 0.1),
    (200, 25, 17, "mv", True, 0.1),
    (200, 25, 18, "max", False, 0.0),
    (500, 7, 19, "wv", True, 0.1),
]

GOLDEN = [
    "csv:baa8fbb566dd6aff log:4d610831017686ff",
    "csv:8ff7f48d8bc8c3f3 log:8d83e9e5d4770ca7",
    "csv:7e31c809ca2f3847 log:28339f50c31e2910",
    "csv:2c9f00e82fb132ac log:ab515f6a9fb381b2",
    "csv:b17e04d60df4c4f4 log:4b64cdfa345c96ac",
    "csv:8709d22d82b4e475 log:b14cbf2ca3e855fc",
    "csv:12ce79e85b1ff698 log:155bc8082a6f3e84",
    "csv:f14b1f6a26aad7e7 log:2395f092a5f18a5a",
    "csv:b4cf9b12442d6906 log:391396d6f557c230",
    "csv:0e13281cf3635af6 log:766b087420965139",
    "csv:fd0807e6c2356496 log:f304417d108e3d98",
    "csv:21371b97f92b2864 log:cf3dee355894ff08",
    "csv:926643dd176a8a83 log:d71a152ad03a8869",
    "csv:d2f43776332d22e6 log:a38b85cab4f1f63d",
    "csv:2178f12f324c702e log:1230e67eb195da94",
    "csv:6cffbea0a1551aff log:2fea3b0694e7ead6",
    "csv:ccda7bdcc86d3a0c log:40dd7e58f473cb35",
    "csv:2b6a774238713c87 log:619bb9fd71ff1ac9",
    "csv:d960e676bcb37d4e log:518e25d9cc6a89fc",
    "csv:beb5cb844909accb log:b6297e4c3b98da0e",
]

# the case whose relation is reloaded through a shuffled --tid-column
SHUFFLED_CASE = 7
SHUFFLED_GOLDEN = "csv:e5e0cf98f98c6a68 log:d0d890ccf0f819b8"

CENSUS = "e8f7621c62b6b28de43bb38daac2999fc264e2641827298a427897126ddd3bba"


def instance(rows, attrs, seed, null_rate):
    rel, fds = generate(GenConfig(rows, attrs, seed=seed))
    if null_rate:
        rng = random.Random(seed)
        for tid in rel.tids:
            for a in rel.schema.attributes:
                if rng.random() < null_rate:
                    rel.set(tid, a, None)
    return rel, fds


def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def repair_digest(rel, fds, fn, null_equals_null, seed, tmp_dir,
                  tid_column=None):
    """"csv:<digest> log:<digest>" of one repair, or the exception name."""
    try:
        out = swipe(rel, fds, repair_fn=fn, seed=seed,
                    null_equals_null=null_equals_null)
    except RepairInvariantError as exc:
        return type(exc).__name__
    path = os.path.join(tmp_dir, "repaired.csv")
    save_csv(out.repaired, path, tid_column=tid_column)
    with open(path, "rb") as fh:
        csv_digest = sha(fh.read())
    return "csv:%s log:%s" % (csv_digest, sha(repr(out.changes()).encode()))


def case_digest(i, tmp_dir):
    rows, attrs, seed, fn, nen, null_rate = CASES[i]
    rel, fds = instance(rows, attrs, seed, null_rate)
    return repair_digest(rel, fds, fn, nen, seed, tmp_dir)


def shuffled_digest(tmp_dir):
    """The SHUFFLED_CASE relation written with unsorted tids in a tid
    column, loaded back through ``load_csv(tid_column=...)`` and repaired."""
    rows, attrs, seed, fn, nen, null_rate = CASES[SHUFFLED_CASE]
    rel, fds = instance(rows, attrs, seed, null_rate)
    tids = random.Random(seed).sample(range(1, 10 * rows), rows)
    path = os.path.join(tmp_dir, "shuffled.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["tid"] + rel.schema.attributes) + "\n")
        for tid, row in zip(tids, rel.rows):
            fh.write(",".join([str(tid)] + ["" if c is None else c
                                            for c in row]) + "\n")
    loaded = load_csv(path, tid_column="tid")
    assert loaded.tids == tids
    return repair_digest(loaded, fds, fn, nen, seed, tmp_dir, tid_column="tid")


@pytest.mark.parametrize("i", range(len(CASES)))
def test_golden_output(i, tmp_path):
    assert case_digest(i, str(tmp_path)) == GOLDEN[i]


def test_golden_output_shuffled_tid_column(tmp_path):
    assert shuffled_digest(str(tmp_path)) == SHUFFLED_GOLDEN


def test_census():
    assert census_digest() == CENSUS


def other_hash_seed(arg):
    """This script's output for ``arg`` in a child interpreter whose
    strings hash differently; output must not depend on that."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "12345"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(fdrepair.__file__))
    proc = subprocess.run([sys.executable, __file__, arg], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return proc.stdout.strip()


def test_golden_output_other_hash_seed():
    assert other_hash_seed("13") == GOLDEN[13]


def test_census_other_hash_seed():
    assert other_hash_seed("census") == CENSUS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:] == ["census"]:
            print(census_digest())
        elif sys.argv[1:] == ["all"]:
            for i in range(len(CASES)):
                print("    %r," % case_digest(i, tmp))
            print("SHUFFLED_GOLDEN = %r" % shuffled_digest(tmp))
        else:
            print(case_digest(int(sys.argv[1]), tmp))
