"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they happen (pytest shows them on failure regardless). The external-dataset
criterion is excluded from the default run; see its docstring.
"""

import os
import random
import time

import pytest

from fdrepair import (FD, GenConfig, Relation, Schema, evaluate, generate,
                      load_csv, load_fds, swipe)
from fdrepair.cli import bench_cells
from fdrepair.dsf import DisjointSetForest
from fdrepair.fds import minimal_cover, violates
from fdrepair.partition import (build_preorder, check_forward_repairable,
                                induced_partition)
from fdrepair.priority import (estimate_priority, fix, pilot_fds, update_dsf,
                               vio)
from fdrepair.repair_functions import MV
from helpers import assert_maximally_refined, attribute_closure, implies
from reference import swipe_reference

pytestmark = pytest.mark.acceptance


def verdict(num, slug, ok, detail=""):
    print("criterion %02d %-22s %s%s"
          % (num, slug + ":", "PASS" if ok else "FAIL",
             " (%s)" % detail if detail else ""))
    assert ok, "criterion %d (%s) failed: %s" % (num, slug, detail)


@pytest.fixture
def snippet(hospital_snippet, hospital_fds):
    return hospital_snippet, hospital_fds


def test_criterion_01_partition_facts(snippet):
    rel, fds = snippet
    t0 = time.perf_counter()
    cover = minimal_cover(fds)
    part = induced_partition(build_preorder(cover, rel.schema), rel.schema)
    ok_fr = check_forward_repairable(part, cover)
    ok_ref = assert_maximally_refined(part, cover)
    elapsed = time.perf_counter() - t0

    pos = {a: i for i, cls in enumerate(part.classes) for a in cls}
    ok = (pos["hospital name"] == pos["#provider"]
          and pos["city"] > pos["hospital name"]
          and pos["condition"] > pos["measure code"]
          and ok_fr and ok_ref and elapsed < 1e-3)
    verdict(1, "partition-facts", ok,
            "%s in %.3f ms" % (part.classes, elapsed * 1e3))


def test_criterion_02_dsf_fixture(snippet):
    rel, fds = snippet
    d = DisjointSetForest(len(rel))
    update_dsf(rel, fds[0], d)
    classes = [rel.tid_array()[c].tolist() for c in d.classes()]
    ok = classes == [[1, 2, 3, 4], [5, 6]]
    verdict(2, "dsf-fixture", ok, str(classes))


def test_criterion_03_vio_fixture(snippet):
    rel, fds = snippet
    cover = minimal_cover(fds)
    ok = True
    for seed in range(10):
        rng = random.Random(seed)
        v_name = vio(rel, "hospital name", cover, rng)
        v_prov = vio(rel, "#provider", cover, rng)
        order, _ = estimate_priority(rel, ["hospital name", "#provider"],
                                     cover, random.Random(seed))
        _, rest = pilot_fds(["hospital name", "#provider"], fds[:2], order)
        ok &= (v_name == set() and len(v_prov) == 2
               and order == ["#provider", "hospital name"]
               and rest == [fds[0], fds[1]])
    verdict(3, "vio-fixture", ok)


def test_criterion_04_fix_fixture(snippet):
    rel, fds = snippet
    ok = True
    for seed in range(50):
        work = rel.copy()
        d = DisjointSetForest(len(work))
        fixes = fix(work, fds[0], d, MV, random.Random(seed))
        ok &= fixes == 2 and work.get(4, "#provider") == "10006"
    verdict(4, "fix-fixture", ok)


def test_criterion_05_repairs_always_satisfy():
    failures = []
    for i in range(1000):
        rng = random.Random(i)
        cfg = GenConfig(rng.randint(20, 200), rng.randint(2, 8), seed=i)
        rel, fds = generate(cfg)
        try:
            out = swipe(rel, fds, seed=i)
        except Exception as exc:
            failures.append((i, repr(exc)))
            continue
        if any(violates(out.repaired, fd) for fd in fds):
            failures.append((i, "residual violation"))
    verdict(5, "repairs-satisfy", not failures,
            "%d/1000 failed %s" % (len(failures), failures[:3]))


def test_criterion_06_partition_maximality():
    failures = []
    for i in range(200):
        rng = random.Random(i)
        _, fds = generate(GenConfig(5, rng.randint(2, 6), seed=i))
        cover = minimal_cover(fds)
        schema = Schema(sorted({a for fd in cover for a in fd.attributes},
                               key=lambda a: int(a[1:])) or ["a1", "a2"])
        part = induced_partition(build_preorder(cover, schema), schema)
        if not (check_forward_repairable(part, cover)
                and assert_maximally_refined(part, cover)):
            failures.append(i)
    verdict(6, "partition-maximality", not failures,
            "%d/200 failed %s" % (len(failures), failures[:5]))


def test_criterion_07_unary_revision_free():
    failures = []
    for i in range(200):
        rng = random.Random(1000 + i)
        cfg = GenConfig(rng.randint(20, 120), rng.randint(2, 8), seed=1000 + i)
        rel, fds = generate(cfg)
        if any(len(fd.lhs) != 1 for fd in minimal_cover(fds)):
            continue
        with_skip = swipe(rel, fds, seed=i)
        every_revision, _, _ = swipe_reference(rel, fds, "mv", i,
                                               every_revision=True)
        revisions = sum(c.stats.revisions for c in with_skip.classes)
        polls = [n for c in with_skip.classes
                 for n in c.stats.polls_per_fd.values()]
        if (revisions != 0 or any(n != 1 for n in polls)
                or with_skip.repaired.rows != every_revision):
            failures.append(i)
    verdict(7, "unary-revision-free", not failures,
            "%d/200 failed %s" % (len(failures), failures[:5]))


@pytest.mark.parametrize("fn", ["mv", "wv", "max"])
def test_criterion_08_preservation(fn):
    failures = []
    for i in range(100):
        rng = random.Random(i)
        rel, fds = generate(GenConfig(rng.randint(20, 120),
                                      rng.randint(2, 8), seed=i))
        out = swipe(rel, fds, repair_fn=fn, seed=i)
        for attr in rel.schema.attributes:
            if not set(out.repaired.column(attr)) <= set(rel.column(attr)):
                failures.append((i, attr))
    verdict(8, "preservation-" + fn, not failures,
            "%d/100 failed" % len(failures))


def random_fd_set(rng):
    attrs = ["a%d" % i for i in range(1, rng.randint(2, 6) + 1)]
    fds = []
    for _ in range(rng.randint(1, 8)):
        lhs = rng.sample(attrs, rng.randint(1, min(3, len(attrs))))
        fds.append(FD(frozenset(lhs), rng.choice(attrs)))
    return attrs, fds


def test_criterion_09_minimal_cover_oracle():
    failures = []
    for i in range(500):
        rng = random.Random(i)
        attrs, fds = random_fd_set(rng)
        cover = minimal_cover(fds)
        ok = (all(implies(cover, fd) for fd in fds)
              and all(implies(fds, fd) for fd in cover))
        for j, fd in enumerate(cover):
            ok &= fd.rhs not in fd.lhs
            ok &= not implies(cover[:j] + cover[j + 1:], fd)  # non-redundant
            for b in fd.lhs:
                if len(fd.lhs) > 1:  # lhs irreducible
                    ok &= fd.rhs not in attribute_closure(fd.lhs - {b}, cover)
        if not ok:
            failures.append(i)
    verdict(9, "minimal-cover-oracle", not failures,
            "%d/500 failed %s" % (len(failures), failures[:5]))


@pytest.mark.slow
def test_criterion_10_scaling_shape():
    cells = {(c["rows"], c["attrs"]): c["mean_s"]
             for c in bench_cells([10_000, 100_000], [5], 10, 0)
             + bench_cells([10_000], [25], 10, 0)}
    row_factor = cells[(100_000, 5)] / cells[(10_000, 5)]
    attr_factor = cells[(10_000, 25)] / cells[(10_000, 5)]
    ok = 5 <= row_factor <= 20 and attr_factor > 5
    verdict(10, "scaling-shape", ok,
            "rows x%.1f attrs x%.1f" % (row_factor, attr_factor))


@pytest.mark.external
def test_criterion_11_hospital_dataset():
    """Quality on the full Hospital benchmark; needs downloaded files.

    Point FDREPAIR_HOSPITAL_DIRTY / _GOLD / _FDS at the dirty CSV, the
    gold CSV and the FD file. Excluded from the default run.
    """
    paths = {k: os.environ.get("FDREPAIR_HOSPITAL_" + k)
             for k in ("DIRTY", "GOLD", "FDS")}
    if not all(paths.values()):
        pytest.skip("hospital dataset paths not configured")
    dirty = load_csv(paths["DIRTY"])
    gold = load_csv(paths["GOLD"])
    fds = load_fds(paths["FDS"], dirty.schema)
    t0 = time.perf_counter()
    out = swipe(dirty, fds, repair_fn="mv", seed=0)
    elapsed = time.perf_counter() - t0
    report = evaluate(dirty, out.repaired, gold)
    ok = 0.88 <= report.f_score <= 0.94 and elapsed < 5.0
    verdict(11, "hospital-dataset", ok,
            "f=%.3f in %.2fs" % (report.f_score, elapsed))
