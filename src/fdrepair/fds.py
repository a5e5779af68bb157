"""Functional dependencies: minimal covers and violations.

An FD is written X -> a with a non-empty attribute set X and a single
right-hand side attribute. Minimal covers are computed deterministically
given input order, by closures on attribute bit masks.
"""

import re
from dataclasses import dataclass

import numpy as np

from .relation import NULL, SchemaError

# a double-quoted name, with the spaces around it
_QUOTED = re.compile(r'\s*"([^"]*)"\s*')
_LHS_END = re.compile(",|->")  # what ends an lhs name
# a rule line up to its first # outside double quotes; a " that no later "
# closes is a plain character
_RULE = re.compile(r'(?:"[^"]*"|[^#"]|")*')


@dataclass(frozen=True)
class FD:
    lhs: frozenset
    rhs: str

    def __post_init__(self):
        if isinstance(self.lhs, str):  # would split into its characters
            raise ValueError("FD left-hand side must be a set of attribute "
                             "names, not the string %r" % (self.lhs,))
        if not self.lhs:
            raise ValueError("FD left-hand side must be non-empty")
        object.__setattr__(self, "lhs", frozenset(self.lhs))

    @property
    def attributes(self):
        return self.lhs | {self.rhs}

    def __str__(self):
        return "%s -> %s" % (",".join(sorted(self.lhs)), self.rhs)


def nontrivial(fds):
    """``fds`` without trivial FDs (rhs in lhs) or repeats, in input order."""
    return [fd for fd in dict.fromkeys(fds) if fd.rhs not in fd.lhs]


def minimal_cover(fds):
    """Equivalent FD list with irreducible left-hand sides and no redundant FDs.

    ``nontrivial(fds)`` is reduced: left-hand sides one attribute at a time
    against the full set, then redundant FDs in a fixed scan order, so the
    result is deterministic given input order. Closures run on attribute
    bit masks, an FD being an (lhs mask, rhs bit) pair.
    """
    work = nontrivial(fds)
    bit = {a: 1 << i for i, a in enumerate(
        {a for fd in work for a in fd.attributes})}
    masks = [(sum(map(bit.get, fd.lhs)), bit[fd.rhs]) for fd in work]

    def closure(attrs, pairs):
        before = None
        while attrs != before:
            before = attrs
            for lhs, rhs in pairs:
                if lhs & attrs == lhs:
                    attrs |= rhs
        return attrs
    # lhs reduction: drop attributes whose removal keeps the FD implied
    for i, fd in enumerate(work):
        lhs, rhs = masks[i]
        for b in sorted(fd.lhs):
            if lhs & (lhs - 1) and closure(lhs & ~bit[b], masks) & rhs:
                lhs &= ~bit[b]  # while two or more attributes are left
        if lhs != masks[i][0]:
            masks[i] = lhs, rhs
            work[i] = FD(frozenset(a for a in fd.lhs if bit[a] & lhs), fd.rhs)

    # redundancy elimination over the distinct FDs, in order
    cover = list(fd_of := dict(zip(masks, work)))
    for lhs, rhs in fd_of:
        rest = [p for p in cover if p != (lhs, rhs)]
        if closure(lhs, rest) & rhs:
            cover = rest
    return list(map(fd_of.get, cover))


def group_rows(rel, attrs, null_equals_null=True):
    """Group the rows by their ``attrs`` values: one group id per row.

    Ids are non-negative and below 3n + 2 for n rows, and two rows get
    equal ids exactly when their values on ``attrs`` are equal. With
    ``null_equals_null`` off a NULL key never matches any other key, NULL
    included, so each row with a NULL in ``attrs`` gets an id of its own.
    """
    n = len(rel)
    size = 1  # ids < size
    for i, a in enumerate(attrs):
        k = len(rel.values(a))
        ids = ids * k + rel.codes(a) if i else rel.codes(a).astype(np.int64)
        size *= k
        if size > 2 * n + 2:  # keep ids below 2n + 2, products in int64
            uniq, ids = np.unique(ids, return_inverse=True)
            size = len(uniq)
    if not null_equals_null:
        lone = np.flatnonzero(np.logical_or.reduce(
            [rel.codes(a) == NULL for a in attrs]))
        ids[lone] = size + np.arange(len(lone))
    return ids


def mixed_rows(groups, codes):
    """Mask of the rows whose group (``groups``, small non-negative ids)
    shows two or more distinct ``codes``.

    Each group's slot is given some member's code by one scatter; a group
    is mixed exactly when one of its rows differs from that code.
    """
    some = np.empty(groups.max(initial=0) + 1, dtype=codes.dtype)
    some[groups] = codes
    mixed = np.zeros(len(some), dtype=bool)
    mixed[groups[some[groups] != codes]] = True
    return mixed[groups]


def violates(rel, fd, null_equals_null=True):
    """Tid groups sharing lhs values but showing >= 2 distinct rhs values.

    The groups are listed in one dict pass over the rows of violated
    groups, keyed by group id: groups come in order of their first row and
    list their tids in row order. Only violated groups still become tid
    lists, as in a stripped-partition check.
    """
    ids = group_rows(rel, sorted(fd.lhs), null_equals_null)
    rows = np.flatnonzero(mixed_rows(ids, rel.codes(fd.rhs)))
    groups = {}
    for group, tid in zip(ids[rows].tolist(), rel.tid_array()[rows].tolist()):
        groups.setdefault(group, []).append(tid)
    return list(groups.values())


def _name(text):
    """The name ``text`` gives: the characters between its quotes when it
    is one double-quoted name, else ``text`` stripped."""
    quoted = _QUOTED.fullmatch(text)
    return quoted[1] if quoted else text.strip()


def parse_fd(line, schema=None):
    """Parse one ``lhs1,lhs2 -> rhs`` expression.

    A name that starts with ``"`` (after spaces) and closes it is read
    verbatim between the quotes, so it may hold ``,``, ``->`` or ``#``.
    Every other name is stripped. The lhs is split at its commas up to the
    first ``->`` outside a quoted name; the rhs is the rest of the line.
    """
    lhs, pos = [], 0
    while True:
        quoted = _QUOTED.match(line, pos)
        sep = _LHS_END.search(line, quoted.end() if quoted else pos)
        if sep is None:
            raise ValueError("malformed FD %r: expected 'lhs -> rhs'"
                             % (line,))
        lhs.append(_name(line[pos:sep.start()]))
        pos = sep.end()
        if sep[0] == "->":
            break
    lhs = [a for a in lhs if a]
    rhs = _name(line[pos:])
    if not lhs or not rhs:
        raise ValueError("malformed FD %r: empty side" % (line,))
    if schema is not None:
        for a in lhs + [rhs]:
            if a not in schema:
                raise SchemaError("FD %r uses unknown attribute %r" % (line, a))
    return FD(frozenset(lhs), rhs)


def rule_lines(lines):
    """The rules in a rule file's ``lines``: ``#`` outside double quotes
    starts a comment, and a line left blank holds no rule. Shared by FD,
    fn-map and priority files; only FD files read quoted names."""
    for raw in lines:
        line = _RULE.match(raw)[0].strip()
        if line:
            yield line


def parse_fds(text, schema=None):
    """Parse an FD file body: one FD per line, ``#`` outside double quotes
    starts a comment. Repeats are dropped."""
    return list(dict.fromkeys(parse_fd(line, schema)
                              for line in rule_lines(text.splitlines())))


def load_fds(path, schema=None):
    with open(path, encoding="utf-8-sig") as fh:
        return parse_fds(fh.read(), schema)


def _fd_line(fd):
    """``fd``'s line in an FD file: ``str(fd)``, with each name that holds
    ``#``, ``,`` or ``->`` or has spaces at either end in double quotes."""
    def name(a):
        plain = a == a.strip() and not re.search("#|,|->", a)
        return a if plain else '"%s"' % a
    return "%s -> %s" % (",".join(map(name, sorted(fd.lhs))), name(fd.rhs))


def save_fds(fds, path):
    """Write ``fds`` one per line, quoting names as ``_fd_line`` does.
    Raises ValueError, before writing, for an FD with a name that holds
    ``"`` or whose line would read back as another FD or as none, as an
    empty name or one that holds a line break would."""
    for fd in fds:
        try:
            back = parse_fds(_fd_line(fd))
        except ValueError:  # as with an empty name on either side
            back = None
        if back != [fd] or any('"' in a for a in fd.attributes):
            raise ValueError("FD %r cannot be written to an FD file: a "
                             "name holds '\"', or its line would not read "
                             "back as the same FD" % str(fd))
    with open(path, "w", encoding="utf-8") as fh:
        for fd in fds:
            fh.write(_fd_line(fd) + "\n")
