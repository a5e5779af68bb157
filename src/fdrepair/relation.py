"""Tabular data model: relations over a named schema with tuple ids.

Cells are untyped strings compared byte-exactly; NULL is represented by
``None``. Each row carries a tuple id (tid) that is unique within a
relation and is never treated as a repairable attribute.

Storage is columnar and dictionary-encoded: each attribute holds one
``int32`` code per row plus a list mapping codes back to values, and code
``NULL`` (0) is reserved for NULL in every attribute. Within one attribute,
equal codes mean equal values, so grouping and voting run on integer
arrays (``codes``). ``rows``, ``column``, ``get`` and ``row_of`` decode.
"""

import csv
from itertools import islice

import numpy as np

NULL = 0  # the code of NULL in every attribute
_CHUNK_ROWS = 4096  # rows load_csv parses before encoding them


class SchemaError(ValueError):
    """An attribute name is unknown or the schema is malformed."""


class Schema:
    """An ordered list of attribute names with stable indices."""

    def __init__(self, attributes):
        attributes = list(attributes)
        if len(set(attributes)) != len(attributes):
            raise SchemaError("duplicate attribute names: %r" % (attributes,))
        self.attributes = attributes
        self._index = {a: i for i, a in enumerate(attributes)}

    def __len__(self):
        return len(self.attributes)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, Schema) and self.attributes == other.attributes

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError("unknown attribute %r" % (name,)) from None

    def indices(self, names):
        return [self.index(n) for n in names]


def _first_duplicate(items):
    """Position of the first item equal to an earlier one, or None."""
    seen = set()
    for i, item in enumerate(items):
        if item in seen:
            return i
        seen.add(item)
    return None


class _Dictionary(dict):
    """One attribute's value -> code map; ``values`` maps codes back. An
    unseen value gets the next code as it is looked up."""

    def __init__(self):
        super().__init__({None: NULL})
        self.values = [None]

    def __missing__(self, value):
        code = self[value] = len(self.values)
        self.values.append(value)
        return code


class Relation:
    """An ordered collection of rows with unique tids.

    ``tids`` lists the tuple ids in row order. ``rows`` is a freshly decoded
    list of cell lists aligned with ``schema.attributes``; change cells with
    ``set``.
    """

    def __init__(self, schema, tids=None, rows=None):
        self.schema = schema
        self.tids = []
        self._pos = {}  # tid -> row position, None until needed
        self._tid_array = None  # tids as an array, None until needed
        self._data = np.empty((len(schema), 0), dtype=np.int32)
        self._dicts = [_Dictionary() for _ in schema.attributes]
        tids = list(tids) if tids else []
        rows = list(rows) if rows else []
        if len(tids) != len(rows):
            raise ValueError("tids and rows must have equal length")
        for row in rows:
            if len(row) != len(schema):
                raise SchemaError("row arity %d does not match schema arity %d"
                                  % (len(row), len(schema)))
        if rows:
            self._extend(tids, list(zip(*rows)))

    def _extend(self, tids, columns):
        """Append rows given as their tids and one cell sequence per
        attribute. Storage grows geometrically, so appending costs amortized
        O(1) per cell."""
        n, end = len(self.tids), len(self.tids) + len(tids)
        pos = dict(zip(tids, range(n, end)))
        if len(pos) != len(tids) or not self._positions().keys().isdisjoint(pos):
            both = self.tids + list(tids)
            raise ValueError("duplicate tid %r" % (both[_first_duplicate(both)],))
        if end > self._data.shape[1]:
            grown = np.empty((len(self.schema), max(end, 2 * n, 16)),
                             dtype=np.int32)
            grown[:, :n] = self._data[:, :n]
            self._data = grown
        for d, codes, col in zip(self._dicts, self._data[:, n:end], columns):
            codes[:] = np.fromiter(map(d.__getitem__, col), dtype=np.int32,
                                   count=end - n)
        self._pos.update(pos)
        self.tids.extend(tids)
        self._tid_array = None

    def _like(self, tids, data):
        """A relation over the same schema sharing this one's dictionaries,
        which only ever gain values, so a code keeps its value in both."""
        rel = Relation(self.schema)
        rel.tids = tids
        rel._pos = None
        rel._data = data
        rel._dicts = self._dicts
        return rel

    def __len__(self):
        return len(self.tids)

    def append(self, tid, row):
        if len(row) != len(self.schema):
            raise SchemaError("row arity %d does not match schema arity %d"
                              % (len(row), len(self.schema)))
        self._extend([tid], [(value,) for value in row])

    def _positions(self):
        if self._pos is None:
            self._pos = dict(zip(self.tids, range(len(self.tids))))
        return self._pos

    def _position(self, tid):
        try:
            return self._positions()[tid]
        except KeyError:
            raise KeyError("unknown tid %r" % (tid,)) from None

    def tid_array(self):
        """``tids`` as an array, built on first use and again after an
        append."""
        if self._tid_array is None:
            self._tid_array = np.asarray(self.tids)
        return self._tid_array

    def copy(self):
        """A copy sharing this relation's dictionaries, which only ever gain
        values, so a code keeps its value in both."""
        rel = Relation(self.schema)
        rel.tids = list(self.tids)
        rel._pos = None
        rel._data = self._data[:, :len(self)].copy()
        rel._dicts = self._dicts
        return rel

    # ------------------------------------------------------------ encoded

    def codes(self, attr):
        """The attribute's code per row, as a writable view of the storage."""
        return self._data[self.schema.index(attr), :len(self)]

    def values(self, attr):
        """The attribute's dictionary: ``values(attr)[code]`` is the value."""
        return self._dicts[self.schema.index(attr)].values

    def encode(self, attr, value):
        """The attribute's code for ``value``, adding it if it is new."""
        return self._dicts[self.schema.index(attr)][value]

    # ------------------------------------------------------------ decoded

    @property
    def rows(self):
        return [list(row) for row in
                zip(*(self.column(a) for a in self.schema.attributes))]

    def row_of(self, tid):
        codes = self._data[:, self._position(tid)].tolist()
        return [d.values[c] for d, c in zip(self._dicts, codes)]

    def get(self, tid, attr):
        j = self.schema.index(attr)
        return self._dicts[j].values[self._data[j, self._position(tid)]]

    def set(self, tid, attr, value):
        j = self.schema.index(attr)
        self._data[j, self._position(tid)] = self._dicts[j][value]

    def column(self, attr):
        return list(map(self.values(attr).__getitem__,
                        self.codes(attr).tolist()))


def load_csv(path, null_token="", tid_column=None):
    """Read a relation from a headered CSV file.

    Cells equal to ``null_token`` become NULL. If ``tid_column`` is given,
    that column supplies the tids (unique integers); otherwise tids are
    assigned 1..n in row order. Rows are encoded into the columns a chunk
    at a time, as they are parsed.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("%s: empty file, expected a header row" % path) from None
        tid_idx = None
        if tid_column is not None:
            if tid_column not in header:
                raise SchemaError("tid column %r not in header" % (tid_column,))
            tid_idx = header.index(tid_column)
            header = header[:tid_idx] + header[tid_idx + 1:]
        rel = Relation(Schema(header))
        width = len(header) + (tid_idx is not None)
        for d in rel._dicts:
            d[null_token] = NULL
        lineno = 2  # of the chunk's first row
        for chunk in iter(lambda: list(islice(reader, _CHUNK_ROWS)), []):
            if set(map(len, chunk)) != {width}:
                i = next(i for i, raw in enumerate(chunk) if len(raw) != width)
                raise ValueError("%s:%d: expected %d fields, got %d"
                                 % (path, lineno + i, width, len(chunk[i])))
            columns = list(zip(*chunk))
            if tid_idx is None:
                tids = list(range(lineno - 1, lineno - 1 + len(chunk)))
            else:
                tids = []
                for i, cell in enumerate(columns.pop(tid_idx)):
                    try:
                        tids.append(int(cell))
                    except ValueError:
                        raise ValueError("%s:%d: malformed tid %r"
                                         % (path, lineno + i, cell)) from None
            try:
                rel._extend(tids, columns)
            except ValueError:
                both = rel.tids + tids
                dup = _first_duplicate(both)
                raise ValueError("%s:%d: duplicate tid %r"
                                 % (path, dup + 2, both[dup])) from None
            lineno += len(chunk)
    for d in rel._dicts:
        del d[null_token]
        d[None] = NULL
    return rel


def save_csv(rel, path, null_token="", tid_column=None):
    """Write a relation to CSV; NULL cells are emitted as ``null_token``.

    With ``tid_column`` the tids are written as a leading column, so that
    ``load_csv(..., tid_column=...)`` reproduces the relation exactly.
    """
    header = list(rel.schema.attributes)
    columns = []
    for a in header:
        values = list(rel.values(a))
        values[NULL] = null_token
        columns.append(list(map(values.__getitem__, rel.codes(a).tolist())))
    if tid_column is not None:
        header.insert(0, tid_column)
        columns.insert(0, rel.tids)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
