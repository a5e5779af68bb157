"""Tabular data model: relations over a named schema with tuple ids.

Cells are ``str``, compared byte-exactly, and NULL is ``None``; any other
value raises ValueError where it would enter a relation, before it is
written. Each row carries a tuple id (tid), an int64 integer that is
unique within a relation and is never treated as a repairable attribute.

Storage is columnar and dictionary-encoded: each attribute holds one
``int32`` code per row plus a list mapping codes back to values, and code
``NULL`` (0) is reserved for NULL in every attribute. Within one attribute,
equal codes mean equal values, so grouping and voting run on integer
arrays (``codes``), as do tids (``tid_array``); only ``rows``, ``column``,
``get``, ``row_of`` and ``tids`` decode.
"""

import csv
import io
import re
from functools import cached_property
from itertools import chain, count, islice

import numpy as np

NULL = 0  # the code of NULL in every attribute
# rows per save_csv write and per csv.reader block of load_csv, and the
# most entries a save_csv run's table may have (fewer when the relation has
# fewer rows), so a table never outgrows a block; load_csv's split
# blocks are _CHUNK_ROWS * 64 characters, as numpy's cost per call needs
# large blocks: 16 and 32 per row loaded a 50k x 8 file slower. With the
# word cache, 128 and 256 per row load that file faster (38.4 and 38.0 ms
# against 42.3, CPU, min of 7 over 4 interleaved rounds) but a 100k x 5
# one slower (19.3 and 23.7 ms against 16.3) and raise its repair's peak
# RSS in a fresh process (44.4 and 48.4 MB against 43.6)
_CHUNK_ROWS = 4096
_TID = re.compile("-?[0-9]+").fullmatch
# the odd multiplier (2**64 over the golden ratio) of _bucket's hash
_HASH = 0x9E3779B97F4A7C15
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)],
                dtype=np.uint64)  # _LOW[k] keeps a word's first k bytes


class SchemaError(ValueError):
    """An attribute name is unknown or the schema is malformed."""


class Schema:
    """An ordered list of attribute names with stable indices."""

    def __init__(self, attributes):
        attributes = list(attributes)
        for a in attributes:
            if not isinstance(a, str):
                raise SchemaError("attribute names must be str, not %r"
                                  % (a,))
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


def _first_repeat(tids):
    """Position of the first tid equal to an earlier one, or None. Strictly
    increasing tids, the usual case, cost one compare and no sort."""
    if (tids[1:] > tids[:-1]).all():
        return None
    ordered = np.sort(tids)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(tids, kind="stable")
        return int(order[1:][np.diff(tids[order]) == 0].min())


def _unique_tids(tids):
    """``tids`` as a one-dimensional int64 array, the array itself if it is
    one. Raises ValueError unless they are distinct integers within int64."""
    arr = np.asarray(tids if isinstance(tids, np.ndarray)
                     else list(tids) or np.empty(0, dtype=np.int64))
    if (arr.ndim != 1 or arr.dtype.kind not in "iu"
            or (arr > np.iinfo(np.int64).max).any()):
        raise ValueError("tids must be integers within int64")
    arr = arr.astype(np.int64, copy=False)
    dup = _first_repeat(arr)
    if dup is not None:
        raise ValueError("duplicate tid %d" % arr[dup])
    return arr


def _check_cells(cells):
    """Raise ValueError for the first of ``cells`` that is not a str or
    None, before any of them is looked up: a list, say, is unhashable."""
    for value in cells:
        if value is not None and not isinstance(value, str):
            raise ValueError("cells must be str or None, not %r" % (value,))


class _Dictionary(dict):
    """One attribute's value -> code map; ``values`` maps codes back. An
    unseen value gets the next code as it is looked up; ``Relation``
    checks each value from outside a load with ``_check_cells`` first. While
    ``load_csv`` finds a column's cells all distinct, it keeps them in
    ``seen`` and numbers them in order: the map stays unbuilt (not
    ``mapped``) until ``ready`` enters every value in one call. After the
    column's first repeat, until the load ends, ``cache`` holds its word
    cache (see ``split_codes``)."""

    def __init__(self):
        super().__init__({None: NULL})
        self.values = [None]
        self.mapped, self.seen, self.cache = True, None, None

    def __missing__(self, value):
        code = self[value] = len(self.values)
        self.values.append(value)
        return code

    def ready(self):
        """This map, holding every value in ``values``."""
        if not self.mapped:
            self.update(zip(self.values[1:], count(1)))
            self.mapped = True
        return self

    def lookup(self, values, local):
        """The codes of new rows, row i holding ``values[local[i]]``,
        entering the new values: ``values`` are the rows' cells, or only
        their distinct cells. While ``seen`` holds every cell so far, new
        cells are numbered in order."""
        if self.seen is not None:  # a load, all cells so far distinct
            size = len(self.seen)
            self.seen.update(values)
            if len(self.seen) == size + len(local):  # no repeat, no NULL,
                start = len(self.values)  # so local numbers the rows
                self.values += values
                return np.arange(start, start + len(local))
            self.seen = None
        return np.fromiter(map(self.ready().__getitem__, values),
                           dtype=np.int32, count=len(values))[local]

    def split_codes(self, data, starts, lens, key):
        """The codes of one column of a split block, entering its new
        values: the cells at ``starts`` in ``data``, ``lens`` bytes long,
        with their ``_key``s (see ``_column``).

        Once the column has repeated, ``cache`` is a direct-mapped
        table (keys, codes) from a cell of at most 8 bytes, by its key, to
        its code: 2 slots per value, at least 16, a key's slot being its
        ``_bucket``. A row whose slot holds its key takes the slot's code,
        unless that is -1, the empty mark (the empty cell's key is 0). The
        block holds no NUL, so a key names its cell exactly. Only the other
        rows are entered (``_enter``); a new value misses in all its rows,
        so it still gets its code in order of its first row."""
        if self.cache is None:  # no short cell entered since a repeat
            return self._enter(data, starts, lens, key)
        keys, table = self.cache
        slot = _bucket(key, len(table).bit_length() - 1)
        codes = table[slot]
        miss = np.flatnonzero((keys[slot] != key) | (lens > 8) | (codes < 0))
        if len(miss):
            codes[miss] = self._enter(data, starts[miss], lens[miss],
                                      key[miss])
        return codes

    def _enter(self, data, starts, lens, key):
        """The codes of cells as ``split_codes`` takes them, by ``_column``
        and ``lookup``. Once the column has a repeat, each of their
        distinct cells of at most 8 bytes is put in ``cache``."""
        values, local = _column(data, starts, lens, key)
        codes = self.lookup(values, local)
        if self.seen is None:
            row = np.empty(len(values), dtype=np.intp)
            row[local] = np.arange(len(local))  # a row of each value
            row = row[lens[row] <= 8]
            if len(row):
                self._fill(key[row], codes[row])
        return codes

    def _fill(self, key, code):
        """Put each ``key`` with its ``code`` in ``cache``, made or grown
        first to 2 slots per value, keeping its entries. Of the keys that
        share a slot, the one numpy writes last wins, in both arrays: the
        slot first takes each key's index, and the entry is read from the
        index it kept."""
        size = max(16, 1 << (2 * len(self.values) - 1).bit_length())
        if self.cache is None or len(self.cache[1]) < size:
            old, self.cache = self.cache, (np.zeros(size, dtype=np.uint64),
                                           np.full(size, -1, dtype=np.int32))
            if old is not None:
                filled = old[1] >= 0
                key = np.concatenate((old[0][filled], key))
                code = np.concatenate((old[1][filled], code))
        keys, table = self.cache
        slot = _bucket(key, len(table).bit_length() - 1)
        table[slot] = np.arange(len(slot))
        won = table[slot]
        keys[slot] = key[won]
        table[slot] = code[won]


class Relation:
    """An ordered collection of rows with unique tids.

    ``tids`` and ``rows`` are freshly decoded lists: the tids in row order,
    and the cell lists aligned with ``schema.attributes``; change cells with
    ``set``.
    """

    def __init__(self, schema, tids=(), rows=()):
        self.schema = schema
        self._n = 0  # rows in use; the storage may hold more
        self._tids = np.empty(0, dtype=np.int64)
        self._data = np.empty((len(schema), 0), dtype=np.int32)
        self._dicts = [_Dictionary() for _ in schema.attributes]
        tids = _unique_tids(tids)
        rows = list(rows)
        if len(tids) != len(rows):
            raise ValueError("tids and rows must have equal length")
        for row in rows:
            self._check_arity(row)
        _check_cells(chain.from_iterable(rows))
        local = np.arange(len(rows))
        self._extend(tids, (d.lookup(col, local)
                            for d, col in zip(self._dicts, zip(*rows))))

    def _check_arity(self, row):
        """Raise SchemaError unless ``row`` has one cell per attribute."""
        if len(row) != len(self.schema):
            raise SchemaError("row arity %d does not match schema arity %d"
                              % (len(row), len(self.schema)))

    def _extend(self, tids, columns):
        """Append rows given as their int64 tids, which the caller has
        checked are new, and one array of their codes per attribute (see
        ``_Dictionary.lookup``). Empty storage takes the rows exactly; after
        that it grows to the next power of two rows, so appending costs
        amortized O(1) per cell, and a load's memory does not depend on how
        many rows each of its blocks holds."""
        n, end = self._n, self._n + len(tids)
        if end > len(self._tids):
            spare = (1 << (end - 1).bit_length() if n else end) - n
            self._data = np.pad(self._data[:, :n], ((0, 0), (0, spare)))
            self._tids = np.pad(self._tids[:n], (0, spare))
        self._tids[n:end] = tids
        for codes, new in zip(self._data[:, n:end], columns):
            codes[:] = new
        self._n = end

    def __len__(self):
        return self._n

    @property
    def tids(self):
        return self.tid_array().tolist()

    def tid_array(self):
        """The tids in row order, as a read-only int64 array."""
        tids = self._tids[:self._n]
        tids.flags.writeable = False
        return tids

    def append(self, tid, row):
        self._check_arity(row)
        _check_cells(row)
        tids = _unique_tids([tid])
        if tids[0] in self._pos:
            raise ValueError("duplicate tid %d" % tids[0])
        local = np.arange(1)
        self._extend(tids, (d.lookup((value,), local)
                            for d, value in zip(self._dicts, row)))
        self._pos[int(tids[0])] = len(self) - 1

    @cached_property
    def _pos(self):
        """tid -> row position, built on first lookup or append."""
        return dict(zip(self.tids, range(len(self))))

    def _position(self, tid):
        try:
            return self._pos[tid]
        except KeyError:
            raise KeyError("unknown tid %r" % (tid,)) from None

    def copy(self):
        """A copy sharing this relation's dictionaries, which only ever gain
        values, so a code keeps its value in both."""
        rel = Relation(self.schema)
        rel._n = self._n
        rel._tids = self.tid_array().copy()
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
        return int(self.encode_all(attr, [value])[0])

    def encode_all(self, attr, values):
        """``encode`` of each of ``values``, as int32 codes, checking them
        all (see ``_check_cells``) before the first is entered."""
        _check_cells(values)
        d = self._dicts[self.schema.index(attr)].ready()
        return np.fromiter(map(d.__getitem__, values), np.int32, len(values))

    # ------------------------------------------------------------ decoded

    @property
    def rows(self):
        columns = [self.column(a) for a in self.schema.attributes]
        return ([list(row) for row in zip(*columns)] if columns
                else [[] for _ in range(len(self))])

    def row_of(self, tid):
        codes = self._data[:, self._position(tid)].tolist()
        return [d.values[c] for d, c in zip(self._dicts, codes)]

    def get(self, tid, attr):
        j = self.schema.index(attr)
        return self._dicts[j].values[self._data[j, self._position(tid)]]

    def set(self, tid, attr, value):
        pos = self._position(tid)  # an unknown tid enters no value
        self._data[self.schema.index(attr), pos] = self.encode(attr, value)

    def column(self, attr):
        return list(map(self.values(attr).__getitem__,
                        self.codes(attr).tolist()))


def _line_of(path, record):
    """The line of ``path`` on which data row ``record`` (0-based) starts.
    A byte that is not UTF-8 changes no line end, so it is read as U+FFFD."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        next(islice(reader, record, None))  # the header and ``record`` rows
        return reader.line_num + 1


def _raise_first_fault(path, tids, fault=None):
    """Raise the first fault in the file at ``path``, if it has one: a repeat
    among ``tids``, the tids of all records before the bad one, or else
    ``fault``, the bad record's (index, message)."""
    dup = _first_repeat(tids)
    if dup is not None:
        fault = dup, "duplicate tid %d" % tids[dup]
    if fault is not None:
        raise _fault(path, _line_of(path, fault[0]), fault[1])


def _fault(path, line, message):
    """A ValueError for ``message`` at ``line`` of ``path``, which it keeps."""
    exc = ValueError("%s:%d: %s" % (path, line, message))
    exc.line = line
    return exc


def _tid(cell):
    """The tid a tid column's ``cell`` spells: ASCII ``-?[0-9]+`` within
    int64, as ``save_csv`` writes it. None for any other text."""
    if _TID(cell) and -2**63 <= (tid := int(cell)) < 2**63:
        return tid


def _not_utf8(path):
    """A ValueError naming the line and file offset of the first byte of
    ``path`` that is not UTF-8. ``bytes.splitlines`` ends lines as
    ``csv.reader`` does, and never inside a UTF-8 character."""
    offset = 0
    with open(path, "rb") as fh:
        lines = (line for raw in fh for line in raw.splitlines(True))
        for number, line in enumerate(lines, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return _fault(path, number, "byte 0x%02x at offset %d is not "
                              "UTF-8" % (line[exc.start], offset + exc.start))
            offset += len(line)


def _joined(data, starts, lens):
    """The bytes of the cells at ``starts``, each with the separator after
    it."""
    size = lens + 1
    at = np.repeat(starts - np.cumsum(size) + size, size) + np.arange(size.sum())
    return data[at].tobytes()


def _key(words, starts, lens):
    """Each cell's first 8 bytes as one little-endian word, zero past its
    end: ``words[k]`` is the 8 bytes of a block from its byte ``k``."""
    return words[starts] & _LOW[np.minimum(lens, 8)]


def _bucket(keys, bits):
    """Each key's bucket of ``2 ** bits``, by a multiplicative hash."""
    mixed = keys * _HASH  # wraps around, as arrays do silently
    return (mixed >> (64 - bits)).astype(np.intp)


def _column(data, starts, lens, first):
    """One column of a split block as (values, local): its distinct cells in
    the order they first appear, and each cell's index into them. Cell i is
    ``lens[i]`` bytes of ``data``, the block's bytes, from ``starts[i]``,
    and is followed by ``,``; ``first[i]`` is its ``_key``.

    A cell of at most 8 bytes is named by its key; the block holds no NUL,
    so equal keys and lengths mean equal cells. Each row is compared with
    the first row of its hash bucket. The rows that differ, and the cells
    longer than one word, go to a dict of their bytes, which finds their
    first rows: it gets every row whose key shares a bucket with an
    earlier, different key, so the result is exact whatever the hash. Each
    step is one pass over the rows or over the bytes of the rows sent to
    the dict, so the work follows the block's bytes. Only the distinct
    cells are decoded, with one ``decode`` and one ``split``. Once a column
    has repeated, ``_Dictionary.split_codes`` sends here only the rows its
    word cache misses.
    """
    n = len(starts)
    bits = (2 * n).bit_length()
    bucket = _bucket(first, bits)
    rows = np.arange(n)
    head = np.full(1 << bits, n)
    np.minimum.at(head, bucket, rows)
    rep = head[bucket]  # each row's first row with an equal key
    differ = (first[rep] != first) | (lens[rep] != lens) | (lens > 8)
    redo = np.flatnonzero(differ)
    if len(redo):
        row_of = {}  # a cell's bytes -> its first row
        cells = _joined(data, starts[redo], lens[redo]).split(b",")
        rep[redo] = list(map(row_of.setdefault, cells, redo.tolist()))
    own = np.flatnonzero(rep == rows)
    rows[own] = np.arange(len(own))  # a first row's index among them
    values = _joined(data, starts[own], lens[own]).decode().split(",")
    values.pop()  # the empty string after the last separator
    return values, rows[rep]


def _split(block, width):
    """The records of ``block``, a CSV text of whole lines, as (column, n)
    if it can be split at its bytes ``,`` and ``\n``: ``column(j)`` numbers
    field j of its ``n`` records (see ``_column``), and ``column(j, d)``
    gives their codes in the dictionary ``d`` (see
    ``_Dictionary.split_codes``). None if ``csv.reader``
    might read it differently: if it holds a ``"``, NUL or ``\r`` outside
    a ``\r\n``, or a cell longer than ``csv.field_size_limit()``, or its
    separators show a record without ``width`` fields, ``width`` being 2 or
    more so that a blank line shows. UTF-8 never puts ``,``, ``\r`` or
    ``\n`` inside a multi-byte character. (``str.splitlines`` would also
    break at ``\x0b``, ``\x85``, ``\u2028`` and others, which
    ``csv.reader`` keeps in a cell.)
    """
    if width < 2 or '"' in block or "\0" in block:
        return None
    raw = block.encode()
    # the file's last line may have no line end
    size = len(raw) + (not block.endswith("\n"))
    data = np.zeros(size + 8, dtype=np.uint8)
    data[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    del raw
    data[size - 1] = ord("\n")
    body = data[:size]
    seps = body == ord("\n")
    lines = np.count_nonzero(seps)
    seps |= body == ord(",")
    seps = np.flatnonzero(seps)
    # each line end is the width-th separator after the one before, and
    # each \r the byte before a line end
    line_ends = seps[width - 1::width]
    cr = data[line_ends - 1] == ord("\r")
    if (len(seps) != width * lines or (data[line_ends] != ord("\n")).any()
            or "\r" in block and np.count_nonzero(body == ord("\r"))
            != np.count_nonzero(cr)):
        return None
    # no cell is longer than its line; a length in bytes is never less
    # than in characters
    limit = csv.field_size_limit()
    if (np.diff(line_ends, prepend=-1).max() > limit
            and np.diff(seps, prepend=-1).max() > limit + 1):
        return None
    words = np.ndarray(size + 1, dtype="<u8", buffer=data, strides=(1,))
    firsts = np.concatenate(([0], line_ends[:-1] + 1))
    lasts = line_ends - cr
    data[lasts] = ord(",")  # after every cell, as in a row
    # kept at half size while the block's columns are made
    seps = seps.astype(np.int32 if size < 2**31 else np.int64)

    def column(j, d=None):
        ends = seps[j::width] if j < width - 1 else lasts
        starts = seps[j - 1::width] + 1 if j else firsts
        starts = starts.astype(np.intp, copy=False)
        lens = ends - starts
        cells = data, starts, lens, _key(words, starts, lens)
        return _column(*cells) if d is None else d.split_codes(*cells)
    return column, lines


def _blocks(fh, width):
    """The records left in the open CSV file ``fh``, one block at a time,
    as (column, n, ragged): ``column(j)`` gives field j's (values, local)
    pair (see ``_Dictionary.lookup``) over the block's first ``n`` records,
    which have ``width`` fields each, and ``column(j, d)`` their codes in
    the attribute's dictionary ``d``; ``ragged`` is None, or the error for
    record ``n``, which has not ``width`` fields. A column is made when it
    is asked for, so one column's arrays are alive at a time.

    A block is ``_CHUNK_ROWS * 64`` characters read at once and completed
    to the end of its line, and split at its bytes if ``_split`` can. From
    the first block it cannot to the end of the file, ``csv.reader`` parses
    ``_CHUNK_ROWS`` records at a time, so a quoted cell may span lines and
    blocks, and each error is its own.
    """
    while block := fh.read(_CHUNK_ROWS * 64):
        block += fh.readline()
        if not (split := _split(block, width)):
            break
        del block  # its records are in the split's own arrays
        yield *split, None
    reader = csv.reader(chain(io.StringIO(block, newline=""), fh))
    # ends[i] counts the cells through the block's record i; each record's
    # list is freed as soon as its cells are appended to cells
    cells = []
    while (ends := np.fromiter(map(len, map(cells.__iadd__, islice(
            reader, _CHUNK_ROWS))), dtype=np.int64)).size:
        fields = np.diff(ends, prepend=0)
        ragged = np.flatnonzero(fields != width)
        n = int(ragged[0]) if len(ragged) else len(fields)

        def column(j, d=None):
            pair = cells[j:n * width:width], np.arange(n)
            return pair if d is None else d.lookup(*pair)
        yield column, n, ("expected %d fields, got %d" % (width, fields[n])
                          if len(ragged) else None)
        cells.clear()


def load_csv(path, null_token="", tid_column=None):
    """Read a relation from a headered CSV file.

    Cells equal to ``null_token`` become NULL. A UTF-8 byte order mark at
    the start of the file is skipped. If ``tid_column`` is given,
    that column supplies the tids (unique int64 integers); otherwise tids
    are assigned 1..n in row order.

    ``csv.reader`` reads the header, and ``_blocks`` the body, so the cells
    are ``csv.reader``'s whether a block is split at its bytes or not. A
    split block is numbered per column from its bytes, which makes no
    object per cell that the cyclic garbage collector tracks, so a load
    leaves it nothing to do. A column's cells are numbered in order while
    each block brings only new ones; its value -> code map is built at its
    first repeat or NULL, or, if none comes, on the first lookup after the
    load. From then on, a short cell that an earlier split block held is
    given its code by the column's word cache, neither decoded nor looked
    up again (see ``_Dictionary.split_codes``); the caches are dropped when
    the load ends. A tid column's distinct cells are read by ``_tid``.

    Errors name the line where the bad row starts: of the ragged rows,
    malformed tids (see ``_tid``) and repeated tids, the first in the file,
    whatever the block size. Repeats are looked for once: after the last
    row, or on a ragged row or malformed tid, among the rows before it. A
    byte that is not UTF-8 is reported with its line and file offset,
    unless a second read, taking it as U+FFFD, finds one of those faults
    on an earlier line.
    """
    try:
        return _load_csv(path, null_token, tid_column, "strict")
    except UnicodeDecodeError:
        error = _not_utf8(path)
    try:
        _load_csv(path, null_token, tid_column, "replace")
    except (ValueError, csv.Error) as fault:
        if getattr(fault, "line", error.line) < error.line:
            raise
    raise error


def _load_csv(path, null_token, tid_column, errors):
    """``load_csv``, decoding with the codec error handler ``errors``."""
    with open(path, newline="", encoding="utf-8-sig", errors=errors) as fh:
        try:
            header = next(csv.reader(fh))
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
            d.mapped, d.seen = False, {null_token}
        fields = [j for j in range(width) if j != tid_idx]
        start = 0  # the block's first record
        for column, n, ragged in _blocks(fh, width):
            # the rows before the first ragged one are well formed, and
            # a bad tid among them comes first in the file
            fault = None if ragged is None else (start + n, ragged)
            if tid_idx is None:
                tids = np.arange(start + 1, start + 1 + n)
            else:
                values, local = column(tid_idx)
                tids = list(map(_tid, values))
                if None in tids:  # the first bad value is the first bad row's
                    bad = tids.index(None)
                    n = int(np.argmax(local == bad))
                    fault = start + n, "malformed tid %r" % values[bad]
                    del tids[bad:]
                tids = np.array(tids, dtype=np.int64)[local[:n]]
            if fault is not None:
                _raise_first_fault(
                    path, np.concatenate((rel.tid_array(), tids)), fault)
            rel._extend(tids, map(column, fields, rel._dicts))
            start += n
    _raise_first_fault(path, rel.tid_array())
    for d in rel._dicts:
        del d[null_token]
        d[None] = NULL
        d.seen = d.cache = None
    return rel


def _plain(text):
    """True unless ``text`` holds a character csv.writer quotes."""
    return not ("," in text or '"' in text or "\r" in text or "\n" in text)


def _written(values, width):
    """``values`` as ``csv.writer`` writes them in a row of ``width`` fields.

    Strings with none of ``,`` ``"`` ``\\r`` ``\\n`` are kept as they are,
    except the empty string in a one-field row, which ``csv.writer`` writes
    as ``""``. A list holding only such strings is checked at once, as one
    joined string. Every other value goes through ``csv.writer`` itself, in
    a row as wide as the one it will be written in.
    """
    pad = [""] if width > 1 else []  # a second field decides the "" rule
    try:
        if (pad or all(values)) and _plain("".join(values)):
            return values
    except TypeError:  # a value that is not a string
        pass
    buf = io.StringIO()
    writer = csv.writer(buf)
    end = -len(",\r\n" if pad else "\r\n")

    def escape(value):
        if isinstance(value, str) and (value or pad) and _plain(value):
            return value
        buf.seek(0)
        buf.truncate()
        writer.writerow([value, *pad])
        return buf.getvalue()[:end]
    return list(map(escape, values))


def _runs(fields, bound):
    """``fields``, one (codes, strings) pair per attribute in order, as
    runs of adjacent attributes. The strings are the attribute's written
    values with their separators, indexed by code.

    A run takes the next attribute while the product of its string arrays'
    lengths stays at or below ``bound``. It is its attributes' (codes,
    length) pairs and one table, which joins each combination of their
    strings at the key ``((c1 * k2) + c2) * k3 + ...`` of their codes ``c``
    and lengths ``k``. A run of one attribute tables its own strings.
    """
    runs = []
    for codes, field in fields:
        if runs and len(runs[-1][1]) * len(field) <= bound:
            parts, table = runs[-1]
            runs[-1] = (parts + [(codes, len(field))],
                        np.add.outer(table, field).ravel())
        else:
            runs.append(([(codes, len(field))], field))
    return runs


def save_csv(rel, path, null_token="", tid_column=None):
    """Write a relation to CSV; NULL cells are emitted as ``null_token``.

    With ``tid_column`` the tids are written as a leading column, so that
    ``load_csv(..., tid_column=...)`` reproduces the relation exactly.

    Output is written from the dictionaries, not cell by cell: each
    attribute's values are escaped once, as ``csv.writer`` writes them, and
    followed by the field's separator (``,``, or ``\\r\\n`` after the last
    field). Adjacent attributes whose dictionaries' sizes multiply to at
    most ``min(len(rel), _CHUNK_ROWS)`` form a run (see ``_runs``), whose
    joined strings are tabled once, so a block writes one cell per run, not
    per attribute. Each block of rows indexes the tables with keys from its
    codes into one object grid, written with one join. The bytes are
    ``csv.writer``'s.
    """
    header = [tid_column] * (tid_column is not None) + rel.schema.attributes
    width = len(header)
    first = width - len(rel.schema)  # the first attribute's field
    ends = [","] * (width - 1) + ["\r\n"]
    runs = _runs([(rel.codes(a),
                   np.array(_written([null_token, *rel.values(a)[1:]], width),
                            dtype=object) + end)
                  for a, end in zip(rel.schema.attributes, ends[first:])],
                 min(len(rel), _CHUNK_ROWS))
    tids = rel.tid_array()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_written(header, width)) + "\r\n")
        if not width:  # no field carries the line ends
            fh.write("\r\n" * len(rel))
        for start in range(0, len(rel), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            grid = np.empty((len(tids[rows]), first + len(runs)), dtype=object)
            if first:  # a tid is an integer, which csv.writer never quotes
                grid[:, 0] = list(map(("%d" + ends[0]).__mod__,
                                      tids[rows].tolist()))
            for j, (parts, table) in enumerate(runs, first):
                key = 0
                for codes, k in parts:
                    key = key * k + codes[rows]
                grid[:, j] = table[key]
            fh.write("".join(grid.ravel().tolist()))
