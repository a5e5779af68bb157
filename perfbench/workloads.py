"""Seeded input generators for the benchmark's workloads.

The generators live here rather than in ``fdrepair.datagen`` so that a change
to the program's own generator cannot move the benchmark's inputs. Each
generator writes a headered CSV and an FD file (plus, for the gold workload,
the clean copy) and returns a ``Workload`` describing them. Guards check
properties of the generated inputs only, never the engine's behaviour, so a
correct engine change cannot make a guard fail.
"""

import csv
import hashlib
import os
import random
from dataclasses import dataclass, field


class GuardError(RuntimeError):
    """A generated input lacks a property its workload is defined by."""


@dataclass
class Workload:
    name: str
    data: str  # path of the dirty CSV handed to the program
    fds: str  # path of the FD file
    attributes: list
    fd_list: list  # (lhs tuple, rhs) pairs, in file order
    rows: int
    repair_args: list  # extra CLI arguments for ``fdrepair repair``
    null_unequal: bool = False
    gold: str = None  # path of the clean copy, gold workload only
    input_sha256: dict = field(default_factory=dict)

    @property
    def cells(self):
        return self.rows * len(self.attributes)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if c is None else c for c in row] for row in rows)


def _write_fds(path, fd_list):
    with open(path, "w", encoding="utf-8") as fh:
        for lhs, rhs in fd_list:
            fh.write("%s -> %s\n" % (",".join(lhs), rhs))


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def parse_fds(lines):
    """``"a,b -> c"`` strings -> (lhs tuple, rhs) pairs."""
    out = []
    for line in lines:
        lhs, rhs = line.split("->")
        out.append((tuple(a.strip() for a in lhs.split(",")), rhs.strip()))
    return out


def _random_rows(rng, n_rows, n_attrs, domain):
    cells = rng.choices([str(v) for v in range(domain)], k=n_rows * n_attrs)
    return [cells[i:i + n_attrs] for i in range(0, len(cells), n_attrs)]


def groups(rows, idx, null_unequal=False):
    """Map lhs value tuple -> list of row positions. With ``null_unequal``
    a key holding a NULL (``None``) never joins any other row."""
    out = {}
    for pos, row in enumerate(rows):
        key = tuple(row[i] for i in idx)
        if null_unequal and None in key:
            key = ("\0row", pos)
        out.setdefault(key, []).append(pos)
    return out


def violated_groups(rows, attributes, lhs, rhs, null_unequal=False):
    """Number of lhs groups that show two or more rhs values, and all groups."""
    col = {a: i for i, a in enumerate(attributes)}
    rhs_i = col[rhs]
    grouped = groups(rows, [col[a] for a in lhs], null_unequal)
    bad = sum(1 for members in grouped.values()
              if len({rows[p][rhs_i] for p in members}) > 1)
    return bad, len(grouped)


def unary_cycle_sizes(fd_list):
    """Sizes of the strongly connected components of the unary-FD graph."""
    succ = {}
    for lhs, rhs in fd_list:
        if len(lhs) == 1:
            succ.setdefault(lhs[0], set()).add(rhs)

    def reach(a):
        seen, todo = {a}, [a]
        while todo:
            for b in succ.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        return seen

    closure = {a: reach(a) for a in succ}
    sizes = []
    done = set()
    for a in succ:
        if a in done:
            continue
        comp = {b for b in closure[a] if a in closure.get(b, ())}
        done |= comp
        sizes.append(len(comp))
    return sizes


# ---------------------------------------------------------------- dense-100k

# The FD sets of the two random-data workloads are fixed; the seed varies only
# the cells. They are the sets the paper's synthetic scheme (lhs size uniform
# on 1..ceil(attrs/10), rhs outside the lhs) drew for these shapes at seed 0.
# Drawing a new set per seed changes the partition (one to four classes at
# 100k x 5) and moved the wall time of one repair between 2.7 s and 5.9 s,
# which no regression bound could absorb.
DENSE_FDS = parse_fds(["a1 -> a5", "a2 -> a1", "a3 -> a4", "a1 -> a4",
                       "a1 -> a2"])


def dense(seed, out_dir, n_rows=100_000, n_attrs=5, domain=10):
    """Uniform random cells over a 10-symbol domain and unary FDs: nearly
    every lhs group conflicts, so most of the relation is rewritten."""
    rng = random.Random("dense:%d" % seed)
    attrs = ["a%d" % i for i in range(1, n_attrs + 1)]
    rows = _random_rows(rng, n_rows, n_attrs, domain)
    bad = total = 0
    for lhs, rhs in DENSE_FDS:
        b, t = violated_groups(rows, attrs, lhs, rhs)
        bad, total = bad + b, total + t
    if 2 * bad < total:
        raise GuardError("dense-100k seed %d: only %d of %d lhs groups are "
                         "violated, expected at least half" % (seed, bad, total))
    return write_workload("dense-100k", out_dir, attrs, rows, DENSE_FDS, [])


# ----------------------------------------------------------- wide-cyclic-10k

WIDE_CYCLE = ["a5", "a11", "a15", "a21"]
WIDE_FDS = parse_fds([
    "a14 -> a8", "a20,a24,a3 -> a25", "a10,a12,a9 -> a1", "a4 -> a13",
    "a23 -> a13", "a7 -> a18", "a14,a19 -> a16", "a10 -> a1",
    "a15,a4 -> a22", "a16,a19,a3 -> a2", "a12,a13,a18 -> a2", "a21 -> a18",
    "a16,a17,a8 -> a20", "a21,a7 -> a10", "a16,a19,a9 -> a3",
    "a12,a14 -> a2", "a17 -> a14", "a13,a4 -> a24", "a2,a25 -> a17",
    "a9 -> a6", "a4 -> a10", "a2,a22 -> a19", "a18,a6,a8 -> a14",
    "a25 -> a6", "a20,a5 -> a12",
] + ["%s -> %s" % (a, b)
     for a, b in zip(WIDE_CYCLE, WIDE_CYCLE[1:] + WIDE_CYCLE[:1])])


def wide_cyclic(seed, out_dir, n_rows=10_000, n_attrs=25, domain=10):
    """Random cells under 25 FDs with lhs of 1-3 attributes plus a planted
    unary cycle, which forces a multi-attribute class and the closing sweep."""
    rng = random.Random("wide-cyclic:%d" % seed)
    attrs = ["a%d" % i for i in range(1, n_attrs + 1)]
    rows = _random_rows(rng, n_rows, n_attrs, domain)
    if max(unary_cycle_sizes(WIDE_FDS)) < len(WIDE_CYCLE):
        raise GuardError("wide-cyclic-10k: no unary cycle of %d or more "
                         "attributes" % len(WIDE_CYCLE))
    return write_workload("wide-cyclic-10k", out_dir, attrs, rows, WIDE_FDS,
                          [])


# ----------------------------------------------------------- sparse-gold-50k

GOLD_ATTRS = ["k1", "k2", "a", "b", "c", "d", "e", "z"]
GOLD_FDS = [(("k1",), "a"), (("a",), "b"), (("b",), "c"),
            (("k1", "k2"), "d"), (("d",), "e")]
GOLD_ERROR_RATE = 0.03
_GOLD_DOMAINS = {"k1": 5000, "k2": 20, "a": 1500, "b": 400, "c": 100,
                 "d": 3000, "e": 300}


def _typo(rng, value):
    pos = rng.randrange(len(value))
    repl = rng.choice([ch for ch in "#qxzj" if ch != value[pos]])
    return value[:pos] + repl + value[pos + 1:]


def inject_errors(rng, gold_rows, attributes, covered, rate):
    """Dirty copy of ``gold_rows`` with ``round(rate * covered cells)`` cells
    changed: a typo, a swap to another value of the same column, or NULL."""
    col = {a: i for i, a in enumerate(attributes)}
    domains = {a: sorted({row[col[a]] for row in gold_rows}) for a in covered}
    cells = [(r, a) for r in range(len(gold_rows)) for a in covered]
    dirty = [list(row) for row in gold_rows]
    for r, a in rng.sample(cells, round(rate * len(cells))):
        old = gold_rows[r][col[a]]
        kind = rng.randrange(3)
        if kind == 0:
            new = _typo(rng, old)
        elif kind == 1:
            new = old
            while new == old:
                new = rng.choice(domains[a])
        else:
            new = None
        dirty[r][col[a]] = new
    return dirty


def sparse_gold(seed, out_dir, n_rows=50_000):
    """A clean instance whose rhs values are functions of their lhs, with
    about 3% of FD-covered cells corrupted; the clean copy is the gold."""
    rng = random.Random("sparse-gold:%d" % seed)

    def value_map(name):
        cache = {}

        def f(*key):
            if key not in cache:
                cache[key] = rng.randrange(_GOLD_DOMAINS[name])
            return "%s%d" % (name, cache[key])
        return f

    maps = {name: value_map(name) for name in ("a", "b", "c", "d", "e")}
    gold = []
    for pos in range(n_rows):
        k1 = "k1%d" % rng.randrange(_GOLD_DOMAINS["k1"])
        k2 = "k2%d" % rng.randrange(_GOLD_DOMAINS["k2"])
        a = maps["a"](k1)
        b = maps["b"](a)
        c = maps["c"](b)
        d = maps["d"](k1, k2)
        e = maps["e"](d)
        gold.append([k1, k2, a, b, c, d, e, "z%d" % pos])
    for lhs, rhs in GOLD_FDS:
        bad, _ = violated_groups(gold, GOLD_ATTRS, lhs, rhs)
        if bad:
            raise GuardError("sparse-gold-50k seed %d: gold violates %s -> %s"
                             % (seed, ",".join(lhs), rhs))
    covered = sorted({a for lhs, rhs in GOLD_FDS for a in lhs + (rhs,)},
                     key=GOLD_ATTRS.index)
    dirty = inject_errors(rng, gold, GOLD_ATTRS, covered, GOLD_ERROR_RATE)
    changed = sum(g != d for grow, drow in zip(gold, dirty)
                  for g, d in zip(grow, drow))
    expected = round(GOLD_ERROR_RATE * n_rows * len(covered))
    if changed != expected:
        raise GuardError("sparse-gold-50k seed %d: %d cells injected, "
                         "expected %d" % (seed, changed, expected))
    gold_path = os.path.join(out_dir, "gold.csv")
    _write_csv(gold_path, GOLD_ATTRS, gold)
    wl = write_workload("sparse-gold-50k", out_dir, GOLD_ATTRS, dirty,
                        GOLD_FDS, ["--repair-fn", "wv", "--null-unequal"],
                        null_unequal=True)
    wl.gold = gold_path
    wl.input_sha256["gold.csv"] = sha256_file(gold_path)
    return wl


def write_workload(name, out_dir, attrs, rows, fd_list, repair_args,
                   null_unequal=False):
    """Write ``data.csv`` and ``fds.txt`` into ``out_dir`` and describe them."""
    data = os.path.join(out_dir, "data.csv")
    fds = os.path.join(out_dir, "fds.txt")
    _write_csv(data, attrs, rows)
    _write_fds(fds, fd_list)
    return Workload(name, data, fds, list(attrs), list(fd_list), len(rows),
                    list(repair_args), null_unequal,
                    input_sha256={"data.csv": sha256_file(data),
                                  "fds.txt": sha256_file(fds)})


GENERATORS = {"dense-100k": dense, "wide-cyclic-10k": wide_cyclic,
              "sparse-gold-50k": sparse_gold}
