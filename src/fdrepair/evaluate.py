"""Repair quality against a gold standard.

Counts are restricted to tuples present in the gold sample; cells compare
by exact value equality, and NULL-vs-constant differences count as
differences.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class QualityReport:
    repaired_cells: int
    correctly_repaired_cells: int
    erroneous_cells: int
    precision: float
    recall: float
    f_score: float

    def as_dict(self):
        return dict(self.__dict__)


def _rows_of(tids, order, keys):
    """The row of each of ``keys`` in the tid array ``tids``, whose argsort
    is ``order``, and a mask of the keys found (others get row 0)."""
    at = np.searchsorted(tids, keys, sorter=order)
    rows = np.zeros(len(keys), dtype=np.int64)
    found = at < len(tids)
    rows[found] = order[at[found]]
    found[found] = tids[rows[found]] == keys[found]
    return rows, found


def _cells(rel, attr, rows):
    """The attribute's values at ``rows``, as an object array."""
    values = np.empty(len(rel.values(attr)), dtype=object)
    values[:] = rel.values(attr)
    return values[rel.codes(attr)[rows]]


def evaluate(dirty, repaired, gold):
    """Precision/recall/F of ``repaired`` w.r.t. ``gold``, relative to ``dirty``.

    A repaired cell differs between repaired and dirty; it is correct when
    it also equals the gold value; an erroneous cell differs between gold
    and dirty.
    """
    if repaired.schema != dirty.schema or gold.schema != dirty.schema:
        raise ValueError("schema mismatch between dirty, repaired and gold")
    tids = dirty.tid_array()
    order = np.argsort(tids)
    gold_rows, found = _rows_of(tids, order, gold.tid_array())
    if not found.all():
        missing = gold.tid_array()[~found].tolist()
        raise ValueError("gold tids %r absent from dirty relation"
                         % (sorted(missing),))
    repaired_rows, found = _rows_of(tids, order, repaired.tid_array())
    if len(repaired) != len(dirty) or not found.all():
        raise ValueError("repaired relation is not tid-aligned with dirty")
    of_dirty_row = np.empty(len(dirty), dtype=np.int64)
    of_dirty_row[repaired_rows] = np.arange(len(repaired))

    n_repaired = n_correct = n_error = 0
    for a in dirty.schema.attributes:
        d = _cells(dirty, a, gold_rows)
        r = _cells(repaired, a, of_dirty_row[gold_rows])
        g = _cells(gold, a, slice(None))
        changed = r != d
        n_error += int(np.count_nonzero(g != d))
        n_repaired += int(np.count_nonzero(changed))
        n_correct += int(np.count_nonzero(r[changed] == g[changed]))

    precision = n_correct / n_repaired if n_repaired else 0.0
    recall = n_correct / n_error if n_error else 0.0
    f_score = 2 * precision * recall / (precision + recall) \
        if precision + recall else 0.0
    return QualityReport(n_repaired, n_correct, n_error,
                         precision, recall, f_score)
