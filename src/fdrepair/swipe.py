"""End-to-end repair: minimal cover, induced partition, class-by-class
priority repair and a final satisfaction sweep.

The input relation is never mutated; the repaired copy satisfies every
input FD on return (checked by a full violation sweep), and attributes
outside the cover are byte-identical to the input. A repair's changes are
the cells in which the copy differs from the input, counted per class as
each class is repaired and decoded when read (``RepairOutcome.changes``).
Each class repaired logs one INFO line to the ``fdrepair`` logger, and
each poll within it one DEBUG line.
"""

import logging
import random
import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .fds import minimal_cover, nontrivial, violates
# Nothing here calls fds_entering_at; perfbench/trace.py wraps it by name.
from .partition import (build_preorder, induced_partition, fds_entering_at,
                        fds_by_entering_class, check_forward_repairable)
from .priority import RepairInvariantError, RepairStats, priority_repair
from .relation import SchemaError
from .repair_functions import get_function, RepairFunction

_log = logging.getLogger("fdrepair")


@dataclass
class ClassOutcome:
    attributes: list
    stats: RepairStats
    duration: float
    cells_changed_per_attribute: dict  # attribute -> cells unlike the input

    @property
    def cells_changed(self):
        return sum(self.cells_changed_per_attribute.values())


@dataclass
class RepairOutcome:
    original: object  # Relation, the input
    repaired: object  # Relation, a copy sharing the input's dictionaries
    classes: list  # ClassOutcome per partition class, in repair order
    partition: list  # attribute lists, natural order
    non_repairable: list  # schema attributes absent from the cover
    seed: int
    duration: float

    @property
    def cells_changed(self):
        """Cells in which the repair differs from the input. Classes
        partition the attributes the repair may write, so this is the sum
        of their counts."""
        return sum(c.cells_changed for c in self.classes)

    def changes(self):
        """The (tid, attribute, old, new) records of the cells in which the
        repair differs from the input, both as they stand when read:
        attributes in schema order, and each attribute's cells in row
        order."""
        tids = self.original.tid_array()
        records = []
        for a in self.original.schema.attributes:
            old, new = self.original.codes(a), self.repaired.codes(a)
            rows = np.flatnonzero(old != new)
            values = self.repaired.values(a)
            records.extend(zip(
                tids[rows].tolist(), repeat(a),
                map(values.__getitem__, old[rows].tolist()),
                map(values.__getitem__, new[rows].tolist())))
        return records


def resolve_functions(schema, repair_fn="mv", fn_map=None):
    """Attribute -> RepairFunction map from a global default plus overrides."""
    default = repair_fn if isinstance(repair_fn, RepairFunction) \
        else get_function(repair_fn)
    functions = {a: default for a in schema.attributes}
    for attr, fn in (fn_map or {}).items():
        schema.index(attr)  # validates the name
        functions[attr] = fn if isinstance(fn, RepairFunction) else get_function(fn)
    return functions


def plan(fds, schema, null_equals_null=True):
    """What swipe repairs, before it touches a row: (cover, induced
    partition, schema attributes outside the partition, which no FD names).

    The cover is ``minimal_cover(fds)``. Under NULL-unequal semantics
    transitivity fails (a NULL in the middle attribute breaks the chain),
    so an FD implied by others may be violated while they hold, and a
    reduced lhs may be violated while the FD it came from holds: the cover
    is then ``nontrivial(fds)``, ``fds`` as given without repeats or
    trivial FDs: exactly the FDs the final check tests.

    Raises SchemaError for an FD over an attribute outside ``schema`` and
    RepairInvariantError if the partition is not forward repairable.
    """
    for fd in fds:
        for a in sorted(fd.attributes):
            if a not in schema:
                raise SchemaError("FD %s uses unknown attribute %r" % (fd, a))
    cover = minimal_cover(fds) if null_equals_null else nontrivial(fds)
    part = induced_partition(build_preorder(cover, schema), schema)
    if not check_forward_repairable(part, cover):
        raise RepairInvariantError("partition %s is not forward-repairable"
                                   % part.classes)
    in_part = set(part.attributes())
    return cover, part, [a for a in schema.attributes if a not in in_part]


def swipe(rel, fds, repair_fn="mv", fn_map=None, seed=None,
          priority_override=None, null_equals_null=True):
    """Repair ``rel`` so that every FD in ``fds`` is satisfied.

    ``priority_override`` maps a 1-based class index to a manually supplied
    attribute order for that class, which must name every attribute of the
    class once and nothing else. Returns a RepairOutcome; ``rel`` itself is
    left untouched. Raises SchemaError for an FD over an attribute outside
    the schema and ValueError for an override of a class that does not
    exist, or that leaves out, repeats or adds to the attributes of its
    class, before anything is repaired.
    """
    t0 = time.perf_counter()
    cover, part, non_repairable = plan(fds, rel.schema, null_equals_null)
    if seed is None:
        seed = random.randrange(2**32)
    rng = random.Random(seed)
    functions = resolve_functions(rel.schema, repair_fn, fn_map)

    for i, priority in sorted((priority_override or {}).items()):
        if not 1 <= i <= len(part.classes):
            raise ValueError("priority_override names class %d, but the "
                             "partition has %d" % (i, len(part.classes)))
        cls = part.classes[i - 1]
        for fault, names in (
                ("leaves out %s", set(cls) - set(priority)),
                ("names %s, outside the class", set(priority) - set(cls)),
                ("repeats %s",
                 {a for a in priority if priority.count(a) > 1})):
            if names:
                raise ValueError("priority_override for class %d " % i
                                 + fault % ", ".join(sorted(names)))

    repaired = rel.copy()
    outcomes = []
    entering = fds_by_entering_class(cover, part)
    for i, (cls, fds_i) in enumerate(zip(part.classes, entering), start=1):
        tc = time.perf_counter()
        stats = priority_repair(
            repaired, fds_i, cls, functions, rng,
            priority=(priority_override or {}).get(i),
            null_equals_null=null_equals_null)
        # only this class's FDs write its attributes, and no later class
        # writes them
        changed = {a: int(np.count_nonzero(repaired.codes(a) != rel.codes(a)))
                   for a in cls}
        outcomes.append(ClassOutcome(list(cls), stats,
                                     time.perf_counter() - tc, changed))
        _log.info("class %d of %d %s: %d polls, %d revisions, %d cells "
                  "changed, %.3f s", i, len(part.classes), cls,
                  sum(stats.polls_per_fd.values()), stats.revisions,
                  outcomes[-1].cells_changed, outcomes[-1].duration)

    for fd in fds:
        if violates(repaired, fd, null_equals_null):
            raise RepairInvariantError("repair left %s violated" % fd)

    return RepairOutcome(
        original=rel,
        repaired=repaired,
        classes=outcomes,
        partition=[list(c) for c in part.classes],
        non_repairable=non_repairable,
        seed=seed,
        duration=time.perf_counter() - t0,
    )
