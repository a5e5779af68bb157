"""Synthetic relations and FD sets for scalability runs.

Values are drawn uniformly from a small domain (default 10 symbols) so
that violations are plentiful. The number of FDs equals the number of
attributes; lhs sizes are uniform on {1, ..., ceil(n_attrs/10)}.
"""

import math
import random
from dataclasses import dataclass

from .fds import FD
from .relation import Relation, Schema


@dataclass
class GenConfig:
    n_rows: int
    n_attrs: int
    seed: int = 0
    domain_size: int = 10

    def __post_init__(self):
        if self.n_attrs < 2:
            raise ValueError("need at least 2 attributes")
        if self.domain_size < 2:
            raise ValueError("need a domain of at least 2 symbols")


def generate(cfg):
    """Deterministically generate a (Relation, FD list) pair from ``cfg``."""
    rng = random.Random(cfg.seed)
    attrs = ["a%d" % i for i in range(1, cfg.n_attrs + 1)]
    rows = [[str(rng.randrange(cfg.domain_size)) for _ in range(cfg.n_attrs)]
            for _ in range(cfg.n_rows)]
    rel = Relation(Schema(attrs), range(1, cfg.n_rows + 1), rows)

    max_lhs = math.ceil(cfg.n_attrs / 10)
    fds = []
    while len(fds) < cfg.n_attrs:
        size = rng.randint(1, max_lhs)
        lhs = rng.sample(attrs, size)
        rhs = rng.choice([a for a in attrs if a not in lhs])
        fd = FD(frozenset(lhs), rhs)
        if fd not in fds:  # re-sample duplicates
            fds.append(fd)
    return rel, fds
