import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdrepair import FD, Schema
from fdrepair.fds import minimal_cover
from fdrepair.partition import (Partition, build_preorder,
                                check_forward_repairable, fds_by_entering_class,
                                fds_entering_at, induced_partition)
from helpers import assert_maximally_refined, more


def fd(lhs, rhs):
    return FD(frozenset(lhs), rhs)


def holds(pre, b, a):
    """True iff the preorder says ``b`` should not occur after ``a``."""
    return bool(pre.matrix[pre.attributes.index(b), pre.attributes.index(a)])


def closure_oracle(matrix):
    """Boolean matrix closure by repeated squaring until fixpoint."""
    m = matrix.copy()
    while True:
        nxt = m | (m @ m)
        if (nxt == m).all():
            return m
        m = nxt


def test_preorder_hospital_equivalence(hospital_fds, hospital_snippet):
    pre = build_preorder(minimal_cover(hospital_fds), hospital_snippet.schema)
    assert holds(pre, "hospital name", "#provider")
    assert holds(pre, "#provider", "hospital name")


def test_preorder_empty_cover_is_identity():
    pre = build_preorder([], Schema(["A", "B"]))
    assert pre.attributes == []


def test_preorder_transitive_entry():
    pre = build_preorder([fd("A", "B"), fd("B", "C")], Schema(["A", "B", "C"]))
    assert holds(pre, "A", "C")
    assert (pre.matrix == closure_oracle(pre.matrix)).all()


def test_preorder_closure_idempotent(hospital_fds, hospital_snippet):
    pre = build_preorder(minimal_cover(hospital_fds), hospital_snippet.schema)
    assert (pre.matrix == closure_oracle(pre.matrix)).all()
    assert pre.matrix.diagonal().all()


def test_induced_partition_hospital(hospital_fds, hospital_snippet):
    cover = minimal_cover(hospital_fds)
    part = induced_partition(build_preorder(cover, hospital_snippet.schema),
                             hospital_snippet.schema)
    assert part.classes[0] == ["hospital name", "#provider"]
    pos = {a: i for i, cls in enumerate(part.classes) for a in cls}
    assert pos["city"] > pos["hospital name"]
    assert pos["condition"] > pos["measure code"]


def test_induced_partition_no_fds_singletons():
    schema = Schema(["A", "B"])
    cover = minimal_cover([fd("A", "A")])  # trivial, drops out
    part = induced_partition(build_preorder(cover, schema), schema)
    assert part.classes == []


def test_induced_partition_single_fd():
    schema = Schema(["A", "B"])
    part = induced_partition(build_preorder([fd("A", "B")], schema), schema)
    assert part.classes == [["A"], ["B"]]


def test_forward_repairable_induced(hospital_fds, hospital_snippet):
    cover = minimal_cover(hospital_fds)
    part = induced_partition(build_preorder(cover, hospital_snippet.schema),
                             hospital_snippet.schema)
    assert check_forward_repairable(part, cover)


def test_forward_repairable_coarse():
    assert check_forward_repairable(Partition([["A", "B"]]), [fd("A", "B")])


def test_forward_repairable_wrong_order():
    assert not check_forward_repairable(Partition([["B"], ["A"]]),
                                        [fd("A", "B")])


def test_maximally_refined_hospital(hospital_fds, hospital_snippet):
    cover = minimal_cover(hospital_fds)
    part = induced_partition(build_preorder(cover, hospital_snippet.schema),
                             hospital_snippet.schema)
    assert check_forward_repairable(part, cover)
    assert assert_maximally_refined(part, cover)


def test_maximally_refined_singletons():
    assert assert_maximally_refined(Partition([["A"], ["B"]]), [fd("A", "B")])


def test_maximally_refined_cycle():
    cover = [fd("A", "B"), fd("B", "A")]
    assert assert_maximally_refined(Partition([["A", "B"]]), cover)


def test_coarse_splittable_is_not_maximal():
    assert not assert_maximally_refined(Partition([["A", "B"]]), [fd("A", "B")])


def test_oversized_class_rejected():
    attrs = [chr(ord("A") + i) for i in range(14)]
    cover = [fd(attrs[i], attrs[(i + 1) % 14]) for i in range(14)]
    with pytest.raises(ValueError):
        assert_maximally_refined(Partition([attrs]), cover)


fdset = st.lists(st.tuples(st.sets(st.sampled_from("ABCDEFGH"), min_size=1, max_size=3),
                           st.sampled_from("ABCDEFGH")), min_size=1, max_size=10)


@settings(max_examples=150, deadline=None)
@given(fdset)
def test_induced_partition_always_forward_repairable(pairs):
    schema = Schema(list("ABCDEFGH"))
    cover = minimal_cover([FD(lhs, rhs) for lhs, rhs in pairs])
    part = induced_partition(build_preorder(cover, schema), schema)
    assert check_forward_repairable(part, cover)
    assert sorted(part.attributes()) == \
        sorted(set().union(*(f.attributes for f in cover)) if cover else set())


def entering_by_definition(cover, part, i):
    """FDs in the projection onto the first ``i`` classes but not onto the
    first ``i - 1``."""
    def projection(k):
        prefix = set().union(*part.classes[:k])
        return [fd for fd in cover if fd.attributes <= prefix]
    before = projection(i - 1)
    return [fd for fd in projection(i) if fd not in before]


def forward_repairable_by_definition(part, cover):
    if not set().union(*(fd.attributes for fd in cover)) <= set(part.attributes()):
        return False
    return all(fd.rhs in cls for i, cls in enumerate(part.classes, start=1)
               for fd in entering_by_definition(cover, part, i))


@settings(max_examples=more(150), deadline=None)
@given(fdset)
@example([({"A"}, "B")])  # swapped, [B], [A] is not forward repairable
def test_entering_class_matches_prefix_projection(pairs):
    schema = Schema(list("ABCDEFGH"))
    cover = minimal_cover([FD(lhs, rhs) for lhs, rhs in pairs])
    part = induced_partition(build_preorder(cover, schema), schema)
    c = part.classes
    swapped = [Partition(c[:i] + [c[i + 1], c[i]] + c[i + 2:])
               for i in range(len(c) - 1)]
    for p in [part, Partition(c[:-1])] + swapped:
        at = range(1, len(p.classes) + 1)
        assert [fds_entering_at(cover, p, i) for i in at] == \
            [entering_by_definition(cover, p, i) for i in at] == \
            fds_by_entering_class(cover, p)
        assert check_forward_repairable(p, cover) == \
            forward_repairable_by_definition(p, cover)
    for fd in cover:  # every cover FD enters at exactly one class
        assert sum(fd in fds_entering_at(cover, part, i)
                   for i in range(1, len(c) + 1)) == 1
    assert check_forward_repairable(part, cover)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sets(st.sampled_from("ABCDEF"), min_size=1, max_size=3),
                          st.sampled_from("ABCDEF")), min_size=1, max_size=8))
def test_induced_partition_always_maximally_refined(pairs):
    schema = Schema(list("ABCDEF"))
    cover = minimal_cover([FD(lhs, rhs) for lhs, rhs in pairs])
    part = induced_partition(build_preorder(cover, schema), schema)
    assert assert_maximally_refined(part, cover)
