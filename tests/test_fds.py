import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdrepair import FD, Relation, Schema, SchemaError, load_fds, save_fds
from fdrepair.fds import (group_rows, minimal_cover, mixed_rows, parse_fd,
                          parse_fds, violates)
from helpers import attribute_closure, implies, minimal_cover_reference, more


def fd(lhs, rhs):
    return FD(frozenset(lhs), rhs)


def equivalent(fds_a, fds_b):
    """Each FD set implies every FD of the other."""
    return all(implies(fds_b, f) for f in fds_a) and \
        all(implies(fds_a, f) for f in fds_b)


def closure_oracle(attrs, fds):
    """Plain fixpoint iteration, independent of attribute_closure."""
    out = set(attrs)
    for _ in range(len(fds) + 1):
        for f in fds:
            if f.lhs <= out:
                out.add(f.rhs)
    return out


def test_closure_chain():
    fds = [fd("A", "B"), fd("B", "C")]
    assert attribute_closure({"A"}, fds) == {"A", "B", "C"}
    assert attribute_closure({"A"}, fds) == closure_oracle({"A"}, fds)


def test_closure_no_fds():
    assert attribute_closure({"A"}, []) == {"A"}


def test_closure_of_full_schema():
    fds = [fd("AB", "C"), fd("C", "A")]
    assert attribute_closure({"A", "B", "C"}, fds) == {"A", "B", "C"}


def test_implies_transitivity():
    fds = [fd("A", "B"), fd("B", "C")]
    assert implies(fds, fd("A", "C"))


def test_implies_trivial_fd():
    assert implies([], fd("A", "A"))


def test_implies_no_reverse():
    assert not implies([fd("A", "B")], fd("B", "A"))


def test_minimal_cover_drops_transitive_fd():
    fds = [fd("A", "B"), fd("B", "C"), fd("A", "C")]
    cover = minimal_cover(fds)
    assert cover == [fd("A", "B"), fd("B", "C")]


def test_minimal_cover_empty():
    assert minimal_cover([]) == []


def test_minimal_cover_reduces_lhs():
    fds = [fd("AB", "C"), fd("A", "B")]
    cover = minimal_cover(fds)
    assert equivalent(cover, fds)
    for f in cover:
        if len(f.lhs) > 1:
            for b in f.lhs:
                assert not implies(cover, FD(f.lhs - {b}, f.rhs))


def test_minimal_cover_drops_trivial():
    assert minimal_cover([fd("AB", "A")]) == []


def test_violates_measure_code(hospital_snippet):
    groups = violates(hospital_snippet, fd(["measure code"], "condition"))
    assert groups == [[1, 5]]


def test_violates_satisfied(hospital_snippet):
    assert violates(hospital_snippet, fd(["#provider"], "hospital name")) == []


def test_violates_single_tuple():
    rel = Relation(Schema(["a", "b"]), [1], [["x", "y"]])
    assert violates(rel, fd("a", "b")) == []


def violates_bruteforce(rel, f, null_equals_null):
    """Exhaustive pairwise check."""
    rows = rel.rows
    lhs = list(map(rel.schema.index, sorted(f.lhs)))
    rhs = rel.schema.index(f.rhs)
    for r1, r2 in itertools.combinations(rows, 2):
        if not null_equals_null and any(r[i] is None for r in (r1, r2)
                                        for i in lhs):
            continue
        if all(r1[i] == r2[i] for i in lhs) and r1[rhs] != r2[rhs]:
            return True
    return False


def violates_reference(rel, f, null_equals_null):
    """Row-by-row dict grouping: violated groups in order of first row."""
    lhs = list(map(rel.schema.index, sorted(f.lhs)))
    rhs = rel.schema.index(f.rhs)
    groups = {}
    for tid, row in zip(rel.tids, rel.rows):
        key = tuple(row[i] for i in lhs)
        if not null_equals_null and None in key:
            key = ("\0tid", tid)
        groups.setdefault(key, []).append((tid, row[rhs]))
    return [[tid for tid, _ in members] for members in groups.values()
            if len({v for _, v in members}) > 1]


@settings(max_examples=more(200))
@given(st.lists(st.lists(st.sampled_from(["0", "1", None]),
                         min_size=3, max_size=3), max_size=12),
       st.sets(st.sampled_from(["a", "b"]), min_size=1), st.booleans(),
       st.randoms(use_true_random=False))
def test_violates_matches_bruteforce(rows, lhs, null_equals_null, rng):
    tids = rng.sample(range(1, 100), len(rows))  # not in row order
    rel = Relation(Schema(["a", "b", "c"]), tids, rows)
    f = FD(frozenset(lhs), "c")
    bad = violates(rel, f, null_equals_null)
    assert bool(bad) == violates_bruteforce(rel, f, null_equals_null)
    assert bad == violates_reference(rel, f, null_equals_null)


@settings(max_examples=more(200), deadline=None)
@given(st.lists(st.lists(st.one_of(st.none(), st.integers(0, 9).map(str)),
                         min_size=3, max_size=3), max_size=40),
       st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
                unique=True),
       st.lists(st.integers(10, 99).map(str), max_size=120), st.booleans())
def test_group_rows_matches_dict_reference(rows, attrs, unused, null_equals_null):
    # ``unused`` values grow the first attribute's dictionary past the rows,
    # as values a repair function encodes can
    rel = Relation(Schema(["a", "b", "c"]), range(len(rows)), rows)
    for value in unused:
        rel.encode(attrs[0], value)
    ids = group_rows(rel, attrs, null_equals_null)
    n = len(rows)
    assert ids.shape == (n,)
    assert ((0 <= ids) & (ids < 3 * n + 2)).all()
    idx = list(map(rel.schema.index, attrs))
    group = {}  # key -> the reference's group number
    expected = []
    for r, row in enumerate(rows):
        key = tuple(row[i] for i in idx)
        if not null_equals_null and None in key:
            key = ("\0row", r)  # a NULL key matches no other key
        expected.append(group.setdefault(key, len(group)))
    for r, s in itertools.combinations(range(n), 2):
        assert (ids[r] == ids[s]) == (expected[r] == expected[s])


# rows of (group id, code): ids either small or near 3n + 1, the top of
# group_rows's id range for n rows
@settings(max_examples=200)
@given(st.integers(0, 30).flatmap(lambda n: st.lists(st.tuples(
    st.one_of(st.integers(0, 3), st.integers(max(0, 3 * n - 2), 3 * n + 1)),
    st.integers(0, 2)), min_size=n, max_size=n)))
@example([])
@example([(7, 1)])  # one group of one row
@example([(0, 1), (61, 2), (61, 2), (5, 0), (5, 1), (60, 0)])
def test_mixed_rows_matches_set_reference(rows):
    seen = {}
    for g, c in rows:
        seen.setdefault(g, set()).add(c)
    got = mixed_rows(np.array([g for g, _ in rows], dtype=np.int64),
                     np.array([c for _, c in rows], dtype=np.int32))
    assert got.dtype == bool
    assert got.tolist() == [len(seen[g]) > 1 for g, _ in rows]


fdset = st.lists(st.tuples(st.sets(st.sampled_from("ABCDEF"), min_size=1, max_size=3),
                           st.sampled_from("ABCDEF")), max_size=8)


@settings(max_examples=150, deadline=None)
@given(fdset)
def test_minimal_cover_properties(pairs):
    fds = [FD(lhs, rhs) for lhs, rhs in pairs]
    cover = minimal_cover(fds)
    assert equivalent(cover, fds)
    # irreducible left-hand sides
    for f in cover:
        for b in f.lhs:
            if len(f.lhs) > 1:
                assert not implies(cover, FD(f.lhs - {b}, f.rhs))
    # no redundant member
    for f in cover:
        assert not implies([g for g in cover if g != f], f)
    # deterministic given input order
    assert minimal_cover(fds) == cover


@settings(deadline=None)
@given(st.one_of(fdset, st.lists(st.tuples(
    st.sets(st.sampled_from("ABCDEFGHIJ"), min_size=1, max_size=4),
    st.sampled_from("ABCDEFGHIJ")), max_size=30)))
@example([({"A"}, "B"), ({"B"}, "C"), ({"A"}, "C"), ({"A", "B"}, "C"),
          ({"A", "D"}, "B"), ({"A"}, "B"), ({"A"}, "A")])
def test_minimal_cover_matches_set_reference(pairs):
    # the bit-mask cover must give the set-based algorithm's FDs, in order
    fds = [FD(lhs, rhs) for lhs, rhs in pairs]
    assert minimal_cover(fds) == minimal_cover_reference(fds)


def test_parse_fd_basic():
    f = parse_fd("a, b -> c")
    assert f == fd(["a", "b"], "c")


def test_parse_fds_comments_and_blanks():
    text = "# header\na -> b\n\nb,c -> d  # inline\n"
    assert parse_fds(text) == [fd("a", "b"), fd(["b", "c"], "d")]


def test_save_fds_round_trips(tmp_path):
    # names that hold #, "," or -> or have spaces at an end are quoted
    fds = [fd(["hospital name", "city"], "zip code"), fd("a", "b"),
           fd(["#provider", "zip"], "city"), fd(["b,c"], "a -> b"),
           fd([" lead"], "trail ")]
    save_fds(fds, tmp_path / "f.txt")
    assert (tmp_path / "f.txt").read_text() == (
        'city,hospital name -> zip code\na -> b\n"#provider",zip -> city\n'
        '"b,c" -> "a -> b"\n" lead" -> "trail "\n')
    assert load_fds(tmp_path / "f.txt") == fds


@pytest.mark.parametrize("bad", [fd(['say "hi"'], "hospital name"),
                                 fd(["a"], 'q"'), fd(["", "a"], "b")])
def test_save_fds_refuses_an_fd_that_reads_back_otherwise(bad, tmp_path):
    # a name holding '"' is refused, though 'a -> q"' would read back; and
    # an empty name would be dropped from the lhs, quoted or not
    path = tmp_path / "f.txt"
    with pytest.raises(ValueError, match="FD '%s'" % bad):
        save_fds([fd("a", "b"), bad], path)
    assert not path.exists()


@pytest.mark.parametrize("line, parsed", [
    ('"#provider" -> city', fd(["#provider"], "city")),
    ('"b,c" -> d', fd(["b,c"], "d")),
    (' zip , "#provider" -> " city "  # a comment', fd(["zip", "#provider"],
                                                       " city ")),
    ('"a -> b", c -> "d, #e"', fd(["a -> b", "c"], "d, #e")),
    ('q" -> c', fd(['q"'], "c")),  # a " that no name starts is a character
    ('"a"b, "c -> d', fd(['"a"b', '"c'], "d")),  # as is a quote left open
    ("#provider -> city\na -> b  #, c -> d", fd(["a"], "b")),  # comments
])
def test_parse_fds_reads_quoted_names(line, parsed):
    assert parse_fds(line) == [parsed]


def parse_fds_unquoted_reference(text):
    """The FD-file parse before quoted names: each line cut at its first
    ``#``, then split at its first ``->``, and its lhs at each comma."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ValueError("malformed FD %r: expected 'lhs -> rhs'" % line)
        lhs_text, _, rhs = line.partition("->")
        lhs = [a.strip() for a in lhs_text.split(",") if a.strip()]
        if not lhs or not rhs.strip():
            raise ValueError("malformed FD %r: empty side" % line)
        out.append(FD(frozenset(lhs), rhs.strip()))
    return list(dict.fromkeys(out))


@settings(max_examples=more(200))
@given(st.text(alphabet="ab #,->\t\n"))
def test_unquoted_lines_parse_as_before(text):
    # a line with no '"' parses, or fails, exactly as before quoted names
    try:
        expected = parse_fds_unquoted_reference(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_fds(text)
        assert str(raised.value) == str(exc)
    else:
        assert parse_fds(text) == expected


NAME = st.text(alphabet='ab #,->" \t\n', max_size=5)


@settings(max_examples=more(200))
@given(st.lists(st.builds(FD, st.frozensets(NAME, min_size=1, max_size=3),
                          NAME), unique=True, max_size=4))
def test_save_fds_round_trips_every_name_it_accepts(tmp_path_factory, fds):
    # every FD whose names are non-empty and free of '"' and line breaks
    # reads back as itself, and any other is refused before the file is
    # written
    path = tmp_path_factory.mktemp("fds") / "f.txt"
    if any('"' in a or "\n" in a or not a
           for f in fds for a in f.attributes):
        with pytest.raises(ValueError, match="cannot be written"):
            save_fds(fds, path)
        assert not path.exists()
    else:
        save_fds(fds, path)
        assert load_fds(path) == fds


def test_fd_rejects_an_empty_lhs():
    with pytest.raises(ValueError) as exc:
        FD(frozenset(), "a")
    assert str(exc.value) == "FD left-hand side must be non-empty"


def test_fd_rejects_a_bare_string_lhs():
    # a string would be split into its characters: 'zip' into {i, p, z}
    with pytest.raises(ValueError) as exc:
        FD("zip", "city")
    assert str(exc.value) == ("FD left-hand side must be a set of attribute "
                              "names, not the string 'zip'")
    assert FD(["zip"], "city").lhs == frozenset({"zip"})


def test_load_fds_skips_a_leading_bom(tmp_path):
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text("zip -> city\nzip,city -> state\n", encoding="utf-8")
    bom.write_text("zip -> city\nzip,city -> state\n", encoding="utf-8-sig")
    schema = Schema(["zip", "city", "state"])
    assert load_fds(bom, schema) == load_fds(plain, schema) == [
        FD({"zip"}, "city"), FD({"zip", "city"}, "state")]


def test_parse_fd_rejects_malformed():
    with pytest.raises(ValueError):
        parse_fd("a b c")
    with pytest.raises(ValueError):
        parse_fd(" -> c")
    with pytest.raises(ValueError, match="expected 'lhs -> rhs'"):
        parse_fd('"a -> b"')  # its only -> is inside a name


def test_parse_fd_checks_schema():
    with pytest.raises(SchemaError):
        parse_fd("a -> b", Schema(["a"]))
