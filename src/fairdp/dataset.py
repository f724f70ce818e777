"""CSV ingestion and encoding for binary classification tasks with a binary
protected attribute.

Inputs are plain comma-separated files (optional header row, cells trimmed,
``?`` or empty cells treated as missing, ``|``-prefixed lines skipped per the
UCI convention).  A :class:`Schema` names the label column, the protected
column and the numeric and categorical feature columns.

:func:`read_dataset` is the one loader: two tokenizers feed one encoder tail.
It first tries a NumPy byte tokenizer, which reads plain files (ASCII after
an optional byte-order mark, no quotes, no comment lines, no control byte but
the newline) in chunks, and falls back to the csv module's parser on anything
else.  Both code every text column (label, protected, categorical) with one
codebook per column and feed the tail column batches, from which it builds
the feature matrix, already scaled so that every row lies in the nonnegative
part of the unit ball (per-column min-max to [0, 1], then a global division
by sqrt(d)), in a single allocation.  Neither builds a table of text cells,
and both give the same dataset and the same first error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import shutil
import threading
import urllib.request
from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

MISSING_MARKERS = frozenset({"?", ""})
COMMENT_PREFIX = "|"


class ParseError(ValueError):
    """Malformed input file (ragged row, bad numeric cell, ...)."""


class FetchError(RuntimeError):
    """Dataset download or integrity check failed."""


@dataclass(frozen=True)
class Schema:
    """Which columns mean what; the fields are the schema file's keys.

    ``label_positive`` is the cell value mapped to y=1 and
    ``protected_positive`` the value mapped to z=1.  The features are the
    ``numeric`` columns, then the one-hot ``categorical`` ones.  Neither the
    label nor the protected column may be listed among them: the protected
    column joins the features, as one 0/1 column after the rest, only with
    ``include_protected_in_features``.  A schema must select at least one
    feature column.
    """

    label: str
    label_positive: str
    protected: str
    protected_positive: str
    numeric: tuple[str, ...] = ()
    categorical: tuple[str, ...] = ()
    include_protected_in_features: bool = False

    def __post_init__(self):
        names = self.numeric + self.categorical
        if not (names or self.include_protected_in_features):
            raise ValueError("schema lists no feature columns")
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature column names")
        for role, column in (("label", self.label), ("protected", self.protected)):
            if column in names:
                raise ValueError(f"{column!r} is the {role} column and may not also be a feature")


@dataclass(frozen=True)
class EncodedDataset:
    """Numeric view of a table: features X, labels y, protected attribute z.

    The container itself does not insist on normalized rows (a library
    caller may build one from any matrix); :meth:`check_normalized` verifies
    the unit-ball invariant, which :func:`read_dataset` output holds by
    construction and the private trainers require.

    The degree-2 objective's sufficient statistics (``logistic_c1``,
    ``logistic_c2``, ``protected_cov``) are computed on first use and kept;
    none of them forms an (n, d) temporary.
    """

    X: np.ndarray
    y: np.ndarray
    z: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y, z = np.asarray(self.y), np.asarray(self.z)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        n, d = X.shape
        if n < 1 or d < 1:
            raise ValueError("dataset must have at least one row and one feature")
        if y.shape != (n,) or z.shape != (n,):
            raise ValueError("y and z must be length-n vectors")
        if len(self.feature_names) != d:
            raise ValueError("feature_names must have one entry per column")
        for name, v in (("y", y), ("z", z)):
            if not ((v == 0) | (v == 1)).all():  # before the cast, which would truncate 0.7 to 0
                raise ValueError(f"{name} must contain only 0 and 1")
        y, z = np.asarray(y, dtype=np.int64), np.asarray(z, dtype=np.int64)
        for arr in (X, y, z):
            arr.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def z_bar(self) -> float:
        return float(self.z.sum()) / self.n

    @cached_property
    def logistic_c1(self) -> np.ndarray:
        """sum_i (1/2 - y_i) x_i, the linear term of the logistic quadratic."""
        return _frozen(_weighted_row_sum(0.5 - self.y, self.X))

    @cached_property
    def logistic_c2(self) -> np.ndarray:
        """X^T X / 8, the degree-2 term of the logistic quadratic."""
        return _frozen((self.X.T @ self.X) / 8.0)

    @cached_property
    def protected_cov(self) -> np.ndarray:
        """sum_i (z_i - z_bar) x_i, the decision-boundary covariance direction."""
        return _frozen(_weighted_row_sum(self.z - self.z_bar, self.X))

    def check_normalized(self) -> None:
        """Raise ValueError unless every row lies in the nonnegative unit
        ball (up to 1e-12), the domain the sensitivity bounds assume; the
        outcome is computed once per dataset."""
        if self._unit_ball_error:
            raise ValueError("features must lie in the nonnegative unit ball "
                             f"(read_dataset scales them into it): {self._unit_ball_error}")

    @cached_property
    def _unit_ball_error(self) -> str:
        if not self.X.min() >= 0.0:
            return "negative or NaN feature entries"
        top = float(np.einsum("ij,ij->i", self.X, self.X).max())  # no (n, d) temporary
        return "" if top <= (1.0 + 1e-12) ** 2 else f"row norm exceeds 1: max={math.sqrt(top)}"

    def fingerprint(self) -> str:
        """Content hash used to tie reports to the exact encoded data; it is
        computed once per dataset.

        For a dataset from :func:`read_dataset` the hash starts on a worker
        thread at load time, and the first call joins that thread (an error
        of the hash is raised here); any other dataset is hashed on the
        first call.  The value is the same either way.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        thread, slot = self.__dict__.pop("_hashing", (None, []))
        if thread is not None:
            thread.join()  # returns at once in a child forked while it ran
        if not slot:  # no worker, or one that did not finish in this process
            return _digest(self)
        if isinstance(slot[0], Exception):
            raise slot[0]
        return slot[0]

    def __getstate__(self) -> dict:
        """The instance dict for pickle and copy, without the fingerprint
        worker: it is joined first, and its digest goes with the state."""
        if "_hashing" in self.__dict__:
            with suppress(Exception):  # a failed hash is left to the copy's fingerprint()
                self.fingerprint()
        return self.__dict__


def _digest(ds: EncodedDataset) -> str:
    """The SHA-256 of X, y and z's row-major bytes, then of the feature
    names joined by ``|``."""
    h = hashlib.sha256()
    for a in (ds.X, ds.y, ds.z):
        h.update(np.ascontiguousarray(a))  # the bytes of tobytes(), uncopied
    h.update("|".join(ds.feature_names).encode())
    return h.hexdigest()


def _hash_in_background(ds: EncodedDataset) -> EncodedDataset:
    """Start ``ds``'s fingerprint on a thread that ends with the hash, which
    releases the GIL, so the hash overlaps the caller's next work; return ds.

    The thread keeps the digest or the error it hit in a slot that
    :meth:`EncodedDataset.fingerprint` reads after joining it.
    """
    slot: list = []

    def work():
        try:
            slot.append(_digest(ds))
        except Exception as exc:  # raised by fingerprint() on the calling thread
            slot.append(exc)

    thread = threading.Thread(target=work, name="fairdp-fingerprint")
    try:
        thread.start()
    except RuntimeError:  # no thread to be had: fingerprint() hashes on its caller
        return ds
    object.__setattr__(ds, "_hashing", (thread, slot))
    return ds


SUM_BLOCK = 4096  # rows per product block of _weighted_row_sum


def _weighted_row_sum(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_i w_i x_i, bit for bit ``(w[:, None] * X).sum(axis=0)``: NumPy adds
    a C-ordered product's rows in order, so a (SUM_BLOCK + 1, d) buffer whose
    row 0 carries the running sum stands in for the (n, d) product."""
    n, d = X.shape
    if d == 1 or not X.flags.c_contiguous:  # NumPy sums these pairwise
        return (w[:, None] * X).sum(axis=0)
    buf = np.empty((min(n, SUM_BLOCK) + 1, d))
    head = 0  # buffer rows before the block's products: the running sum
    for start in range(0, n, SUM_BLOCK):
        stop = min(start + SUM_BLOCK, n)
        np.multiply(w[start:stop, None], X[start:stop], out=buf[head:head + stop - start])
        buf[0] = buf[:head + stop - start].sum(axis=0)
        head = 1
    return buf[0].copy()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def read_dataset(
    path: str | Path, schema: Schema, column_names: Sequence[str] | None = None
) -> EncodedDataset:
    """The encoded table of a CSV file, rows scaled into the nonnegative unit
    ball: the form every trainer consumes.

    The first row is the header, unless ``column_names`` is given: then the
    file has no header row (e.g. the UCI Adult data files).  A UTF-8
    byte-order mark is skipped.  Cells are whitespace-trimmed.  Rows
    containing a missing-value marker ("?" or an empty cell) are dropped.
    Blank lines and lines starting with ``|`` are skipped.  A row whose cell
    count differs from the number of column names raises :class:`ParseError`
    naming the line; a column name given twice, text that is not UTF-8, a
    file with no row, or one whose every row is dropped raises it too.

    The features are the numeric columns, then one indicator per observed
    category of each categorical column (first-seen order; categories are
    exact Python strings, not a NumPy string array, which would drop trailing
    NULs), then the protected 0/1 column if the schema includes it.  Each is
    min-max scaled to [0, 1] (a constant one to exactly 0.0; no entry is
    -0.0) and divided by sqrt(d), in place in the one (n, d) allocation.

    The first error found wins, in this order: an error of the parse above;
    a missing label column, then a label positive value never observed; the
    same two for the protected column; a missing categorical column; a
    numeric column, in schema order, that is missing or holds a non-numeric
    cell; a non-finite value.

    A plain file, ASCII text after an optional byte-order mark with no
    control byte but the newline, no ``"`` and no ``|``, every row as wide
    as the header and no cell over the csv module's field size limit, is
    tokenized with NumPy byte operations, a chunk of whole lines at a time.
    Any other file, and a plain one whose encoding would fail, is read again
    from the start by the csv module, so every error comes from that one
    path.  Neither builds a table of strings.

    Once the dataset is built, its :meth:`~EncodedDataset.fingerprint`
    starts on a worker thread that ends with the hash, so the hash overlaps
    the caller's next work; the first ``fingerprint()`` joins the thread,
    and the value is the one a hash on the calling thread gives.
    """
    path = Path(path)
    books = [_codebook() for _ in range(2 + len(schema.categorical))]
    try:
        return _hash_in_background(
            _assemble(schema, books, _plain_batches(path, column_names, schema, books)))
    except _NotPlain:
        pass
    rows = _parse(path, column_names)
    return _hash_in_background(_encode(next(rows), rows, schema))


def _parse(path: Path, column_names: Sequence[str] | None) -> Iterator[tuple[str, ...]]:
    """Yield the column names, then each kept row of a CSV file as a tuple of
    trimmed cells, by :func:`read_dataset`'s rules."""
    names = None if column_names is None else _distinct(path, tuple(column_names))
    kept = dropped = 0
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if names is not None:
            yield names
        try:
            for record in reader:
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue
                if record[0].lstrip().startswith(COMMENT_PREFIX):
                    continue
                cells = tuple(map(str.strip, record))
                if names is None:
                    names = _distinct(path, cells)
                    yield names
                    continue
                if len(cells) != len(names):
                    raise ParseError(
                        f"{path.name}: line {reader.line_num} has {len(cells)} cells, "
                        f"expected {len(names)}"
                    )
                if not MISSING_MARKERS.isdisjoint(cells):
                    dropped += 1
                    continue
                kept += 1
                yield cells
        except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
            raise ParseError(f"{path.name}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    if names is None or (column_names is not None and not kept and not dropped):
        raise ParseError(f"{path.name}: file is empty")
    if not kept:
        raise ParseError(f"{path.name}: no usable rows (all dropped or missing)")


def _distinct(path: Path, names: tuple[str, ...]) -> tuple[str, ...]:
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(f"{path.name}: column name {name!r} is repeated")
    return names


BATCH_ROWS = 256  # rows per batch of the csv path's encoder


def _encode(
    names: tuple[str, ...], rows: Iterable[tuple[str, ...]], schema: Schema
) -> EncodedDataset:
    """:func:`read_dataset`'s dataset of the rows of a table with these
    column names."""
    books = [_codebook() for _ in range(2 + len(schema.categorical))]
    return _assemble(schema, books, _row_batches(names, rows, schema, books))


def _row_batches(
    names: tuple[str, ...], rows: Iterable[tuple[str, ...]], schema: Schema, books: list
) -> Iterator[tuple]:
    """The column batches (see :func:`_assemble`) of the rows of a table with
    these column names.

    The rows are read BATCH_ROWS at a time, and each batch is transposed
    while it is in cache.  Every error of the encoding is raised only after
    the last row is read, so an error of the parse behind ``rows`` wins.
    """
    def column(name):  # the first column of that name, as a tuple's index() finds
        return names.index(name) if name in names else None

    coded = [(name, column(name), book) for name, book in
             zip((schema.label, schema.protected, *schema.categorical), books)]
    numeric = [(name, column(name)) for name in schema.numeric]
    bad: dict[str, str] = {}  # numeric column -> message for its first non-numeric cell
    rows = iter(rows)
    for batch in iter(lambda: list(islice(rows, BATCH_ROWS)), []):
        cells = list(zip(*batch))
        codes = [np.empty(0, np.int64) if j is None else
                 np.fromiter(map(book.__getitem__, cells[j]), np.int64, len(batch))
                 for _, j, book in coded]
        block = np.empty((len(batch), len(numeric)))
        for col, (name, j) in zip(block.T, numeric):
            if j is not None and name not in bad:
                try:
                    col[:] = np.fromiter(map(float, cells[j]), float, len(batch))
                except ValueError as exc:
                    bad[name] = f"non-numeric cell in column {name!r}: {exc}"
        yield codes, block

    for what, positive, (name, j, book) in zip(
            ("label", "protected"), (schema.label_positive, schema.protected_positive), coded):
        if j is None:
            raise _missing(name)
        if positive not in book:
            raise ValueError(f"{what} positive value {positive!r} never observed "
                             f"(observed: {sorted(book)[:8]}...)")
    for name, j, *_ in (*coded[2:], *numeric):
        if j is None:
            raise _missing(name)
        if name in bad:
            raise ParseError(bad[name])


def _assemble(schema: Schema, books: list, batches: Iterable[tuple]) -> EncodedDataset:
    """The dataset of a file's column batches, the tail both tokenizers share.

    A batch is (codes, block): an int64 code array per coded column (the
    label, the protected column, then each categorical column, as in
    ``books``, their codebooks) and a C-ordered (rows, numeric columns)
    float block.  The label and protected codes become 0/1 bytes at once, by
    comparison with the positive value's code (-1 while it is not in the
    book); the rest is appended to growable buffers.  The numeric block
    becomes X itself when the numeric columns are all of its columns, and
    otherwise X is allocated once at its final size.  Each numeric column is
    then min-max scaled and divided by sqrt(d) in place, and each
    categorical column's one-hot block is written with one scatter.
    """
    y, z, numbers = array("B"), array("B"), array("d")
    coded = [array("q") for _ in books[2:]]
    positives = (schema.label_positive, schema.protected_positive)
    n = 0
    for codes, block in batches:
        n += len(block)
        for into, batch, book, positive in zip((y, z), codes, books, positives):
            into.frombytes((batch == book.get(positive, -1)).view(np.uint8))
        for into, batch in zip(coded, codes[2:]):
            into.frombytes(batch.view(np.uint8))
        numbers.frombytes(block.view(np.uint8))
    y, z = (np.frombuffer(bits, np.uint8).astype(np.int64) for bits in (y, z))
    feature_names = [*schema.numeric]
    for name, book in zip(schema.categorical, books[2:]):
        feature_names.extend(f"{name}={cat}" for cat in book)
    if schema.include_protected_in_features:
        feature_names.append(schema.protected)
    root = math.sqrt(len(feature_names))

    k = len(schema.numeric)
    X = np.frombuffer(numbers).reshape(n, k)
    if len(feature_names) > k:
        X, parsed = np.zeros((n, len(feature_names))), X
        X[:, :k] = parsed
        del parsed, numbers
    for col in X.T[:k]:
        lo, hi = col.min(), col.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("X contains non-finite entries")
        if hi > lo:
            col -= lo if lo else -0.0  # x - (-0.0) turns a "-0" cell into +0.0
            col /= hi - lo
            col /= root
        else:
            col.fill(0.0)
    j = k
    for book, codes in zip(books[2:], coded):
        if len(book) > 1:  # a one-category column is constant, so it stays 0.0
            X[np.arange(n), j + np.frombuffer(codes, np.int64)] = 1.0 / root
        j += len(book)
    if schema.include_protected_in_features and z.min() < z.max():
        X[:, -1] = z / root
    return EncodedDataset(X=X, y=y, z=z, feature_names=tuple(feature_names))


# --- the byte tokenizer -------------------------------------------------------
# read_dataset's fast path for plain files.  It never raises an error of its
# own: wherever it might read a file otherwise than the csv path or the
# encoding would fail, it raises _NotPlain and the csv path reads the file.

_CHUNK_BYTES = 1 << 17  # bytes read at a time by the byte tokenizer
_DIGITS = 15  # the longest integer cell summed in int64; below 2**53, so exact as a float
_PAD = bytes(_DIGITS + 1)  # NULs after a chunk, so that no cell's key or digits read past it
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # masks of k bytes


class _NotPlain(Exception):
    """The byte tokenizer cannot read this file as the csv path would."""


def _plain_batches(
    path: Path, column_names: Sequence[str] | None, schema: Schema, books: list
) -> Iterator[tuple]:
    """The column batches (see :func:`_assemble`) of a plain file, one per
    chunk of whole lines read from disk, by :func:`read_dataset`'s rules; a
    UTF-8 byte-order mark is skipped, as the csv path skips it.

    Raises _NotPlain where the file turns out not to be plain (see
    :func:`read_dataset`), where the header or ``column_names`` repeat a
    name or lack a column the schema names, where a cell is not a finite
    number, and at the end if no row was kept or a positive value is not in
    its column's codebook.
    """
    wanted = (schema.label, schema.protected, *schema.categorical, *schema.numeric)

    def columns(names):
        if len(set(names)) < len(names) or not set(wanted) <= set(names):
            raise _NotPlain
        return len(names), [names.index(name) for name in wanted]

    header = column_names is None
    width, cols = (0, []) if header else columns(tuple(column_names))
    limit = csv.field_size_limit()
    packed = [[np.empty(0, np.uint64), np.empty(0, np.int64)] for _ in books]
    n = 0
    with path.open("rb") as fh:
        if fh.read(3) != b"\xef\xbb\xbf":
            fh.seek(0)
        for chunk in _line_chunks(fh):
            arr = np.frombuffer(chunk + _PAD, np.uint8)
            s, e, counts = _plain_cells(arr, len(chunk), limit)
            if header and len(counts):
                head = counts[0]
                width, cols = columns(tuple(chunk[a:b].decode() for a, b in
                                            zip(s[:head].tolist(), e[:head].tolist())))
                s, e, counts, header = s[head:], e[head:], counts[1:], False
            if not len(counts):
                continue
            if (counts != width).any():
                raise _NotPlain
            s, e = s.reshape(-1, width), e.reshape(-1, width)
            length = e - s
            kept = ~((length == 0) | ((length == 1) & (arr[s] == ord("?")))).any(axis=1)
            s, e = s[kept].T, e[kept].T  # one row per column
            if not s.shape[1]:
                continue
            n += s.shape[1]
            at = cols[:len(books)]  # the coded columns; their 8-byte keys in one gather
            keys = np.ndarray((len(arr) - 7,), "<u8", arr, strides=(1,))[s[at]]
            codes = [_plain_codes(chunk, key, a, b, book, known)
                     for key, a, b, book, known in zip(keys, s[at], e[at], books, packed)]
            block = np.empty((s.shape[1], len(schema.numeric)))
            for col, j in zip(block.T, cols[len(books):]):
                col[:] = _plain_numbers(chunk, arr, s[j], e[j])
            yield codes, block
    if not n or any(positive not in book for book, positive in
                    zip(books, (schema.label_positive, schema.protected_positive))):
        raise _NotPlain


def _line_chunks(fh) -> Iterator[bytes]:
    """The bytes of a binary file in pieces of whole lines, each about
    _CHUNK_BYTES long (one line, if that is longer) and ending with a
    newline."""
    rest = b""
    while data := fh.read(_CHUNK_BYTES):
        data = rest + data
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        if cut:
            yield data[:cut]
    if rest:
        yield rest + b"\n"


def _plain_cells(arr: np.ndarray, size: int, limit: int):
    """The cells of the non-blank lines of a chunk of whole lines (the first
    ``size`` bytes of ``arr``), as their first and past-the-end byte offsets
    with the padding spaces trimmed, and the number of cells on each line."""
    body = arr[:size]
    if (body.max() > ord("~") or (body == ord('"')).any() or (body == ord("|")).any()
            or np.count_nonzero(body < ord(" ")) != np.count_nonzero(body == ord("\n"))):
        raise _NotPlain  # not ASCII, a quote, a comment, or a control byte other than \n
    ends = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
    s = np.empty_like(ends)
    s[0], s[1:] = 0, ends[:-1] + 1
    if (ends - s).max() > limit:
        raise _NotPlain  # the csv module's "field larger than field limit"
    e = ends.copy()
    pad = np.flatnonzero(arr[s] == ord(" "))
    while pad.size:  # one pass per leading space (the separator stops it)
        s[pad] += 1
        pad = pad[arr[s[pad]] == ord(" ")]
    pad = np.flatnonzero((e > s) & (arr[e - 1] == ord(" ")))
    while pad.size:
        e[pad] -= 1
        pad = pad[(e[pad] > s[pad]) & (arr[e[pad] - 1] == ord(" "))]
    last = np.flatnonzero(arr[ends] == ord("\n"))  # each line's last cell
    counts = np.diff(last, prepend=-1)
    blank = (counts == 1) & (s[last] == e[last])
    if blank.any():
        cells = np.repeat(~blank, counts)
        s, e, counts = s[cells], e[cells], counts[~blank]
    return s, e, counts


def _plain_codes(chunk: bytes, keys: np.ndarray, s: np.ndarray, e: np.ndarray,
                 book: defaultdict, packed: list) -> np.ndarray:
    """The codebook's codes of a column's cells; the cells not in the book
    yet join it in the order they first appear.

    ``keys`` holds the 8 bytes at each cell's start as a uint64; masked in
    place, they give a cell of up to 8 bytes its NUL-padded key (a plain file
    has no NUL).  ``packed`` holds the sorted keys of the column's short
    cells coded so far and their codes, so a chunk with no new short cell and
    no longer one is coded by one search.  Otherwise one np.unique finds the
    chunk's distinct short cells, longer cells are decoded one by one, and
    ``packed`` takes the new keys.
    """
    length = e - s
    keys &= _LOW_BYTES[np.minimum(length, 8)]
    known, known_codes = packed
    at = np.searchsorted(known, keys)
    if len(known) and length.max() <= 8 and (known.take(at, mode="clip") == keys).all():
        return known_codes[at]
    short, long = np.flatnonzero(length <= 8), np.flatnonzero(length > 8)
    new, first, local = np.unique(keys[short], return_index=True, return_inverse=True)
    cats = [key.to_bytes(8, "little").rstrip(b"\0").decode() for key in new.tolist()]
    firsts = [short[first]]
    cell_cats = np.empty(len(s), np.int64)  # each cell's index into cats
    cell_cats[short] = local
    if len(long):
        texts: dict[str, int] = {}
        ids = np.array([texts.setdefault(chunk[a:b].decode(), len(texts))
                        for a, b in zip(s[long].tolist(), e[long].tolist())])
        cell_cats[long] = len(cats) + ids
        firsts.append(long[np.unique(ids, return_index=True)[1]])
        cats.extend(texts)
    codes = np.empty(len(cats), np.int64)
    for i in np.argsort(np.concatenate(firsts)).tolist():
        codes[i] = book[cats[i]]
    known, where = np.unique(np.concatenate([known, new]), return_index=True)
    packed[:] = known, np.concatenate([known_codes, codes[:len(new)]])[where]
    return codes[cell_cats]


def _plain_numbers(chunk: bytes, arr: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The value float() reads from each cell.  A cell of 1 to 15 digits
    after an optional "-" is summed exactly in int64 and then given its sign
    as a float, so that "-0" reads -0.0; any other cell goes through float()
    on its text.  Raises _NotPlain unless every value is a finite number."""
    negative = arr[s] == ord("-")
    start = s + negative
    count = e - start  # its digits, if the cell is an integer
    whole = np.flatnonzero((count > 0) & (count <= _DIGITS))  # the cells short enough
    start, count = start[whole], count[whole]
    magnitude = np.zeros(len(whole), np.int64)
    integer = np.ones(len(whole), bool)  # the cell is all digits so far
    for k in range(int(count.max(initial=0))):
        inside = k < count
        digit = arr[start + k] - ord("0")  # uint8: a byte that is no digit exceeds 9
        integer &= (digit <= 9) | ~inside
        magnitude = np.where(inside, magnitude * 10 + digit, magnitude)
        if not integer.any():
            break  # every cell goes through float()
    magnitude = magnitude.astype(float)
    value = np.empty(len(s))
    value[whole] = np.where(negative[whole], -magnitude, magnitude)
    other = np.ones(len(s), bool)
    other[whole[integer]] = False
    other = np.flatnonzero(other)
    if len(other):
        try:  # float() reads ASCII bytes as it reads the same text as str
            value[other] = [float(chunk[a:b]) for a, b in
                            zip(s[other].tolist(), e[other].tolist())]
        except ValueError:
            raise _NotPlain from None
    if not np.isfinite(value).all():
        raise _NotPlain
    return value


def _codebook() -> defaultdict:
    """A dict that gives each new key the next code, 0, 1, ..., in the order
    keys are first looked up, with no Python call per lookup."""
    codes = defaultdict()
    codes.default_factory = codes.__len__
    return codes


def _missing(name: str) -> ValueError:
    return ValueError(f"column {name!r} not present in table")


def split(
    ds: EncodedDataset, test_fraction: float, seed: int
) -> tuple[EncodedDataset, EncodedDataset]:
    """Deterministic shuffle-split into train/test parts.

    Train gets ceil(n * (1 - test_fraction)) rows, test the remainder.  Both
    parts recompute z_bar over their own rows.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if ds.n < 2:
        raise ValueError("need at least two rows to split")
    n_train = math.ceil(ds.n * (1.0 - test_fraction))
    if n_train >= ds.n:
        raise ValueError(
            f"test part empty: n={ds.n}, test_fraction={test_fraction} "
            f"gives {ds.n - n_train} test rows"
        )
    perm = np.random.default_rng(seed).permutation(ds.n)
    parts = []
    for idx in (perm[:n_train], perm[n_train:]):
        parts.append(
            EncodedDataset(
                X=ds.X[idx],
                y=ds.y[idx],
                z=ds.z[idx],
                feature_names=ds.feature_names,
            )
        )
    return parts[0], parts[1]


# --- dataset fetching -------------------------------------------------------

@dataclass(frozen=True)
class RemoteFile:
    filename: str
    url: str
    # Expected byte size; informational (warn on mismatch).  Integrity is
    # enforced by sha256 pinned on first successful download.
    size: int | None = None
    sha256: str | None = None


_UCI_ADULT = "https://archive.ics.uci.edu/ml/machine-learning-databases/adult"

DATASETS: dict[str, tuple[RemoteFile, ...]] = {
    "adult": (
        RemoteFile("adult.data", f"{_UCI_ADULT}/adult.data", size=3974305),
        RemoteFile("adult.test", f"{_UCI_ADULT}/adult.test", size=2003153),
    ),
}


def _sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fetch_dataset(
    name: str,
    cache_dir: str | Path,
    registry: dict[str, tuple[RemoteFile, ...]] | None = None,
) -> dict[str, Path]:
    """Download a known dataset into ``cache_dir`` and verify checksums.

    Idempotent: cached files are revalidated, not re-downloaded.  Checksums
    are pinned on first successful download (recorded in
    ``cache_dir/checksums.json``) unless the registry entry carries an
    explicit sha256; any later mismatch raises :class:`FetchError` naming the
    expected and actual digests.
    """
    registry = DATASETS if registry is None else registry
    if name not in registry:
        raise FetchError(f"unknown dataset {name!r}; supported: {sorted(registry)}")
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    pin_path = cache_dir / "checksums.json"
    pins: dict[str, str] = {}
    if pin_path.exists():
        pins = json.loads(pin_path.read_text(encoding="utf-8"))

    out: dict[str, Path] = {}
    for remote in registry[name]:
        target = cache_dir / remote.filename
        if not target.exists():
            log.info("downloading %s -> %s", remote.url, target)
            tmp = target.with_suffix(target.suffix + ".part")
            try:
                with urllib.request.urlopen(remote.url) as resp, tmp.open("wb") as fh:
                    shutil.copyfileobj(resp, fh)
            except OSError as exc:
                tmp.unlink(missing_ok=True)
                raise FetchError(f"download of {remote.url} failed: {exc}") from exc
            tmp.replace(target)
        digest = _sha256_of(target)
        expected = remote.sha256 or pins.get(remote.filename)
        if expected is not None and digest != expected:
            raise FetchError(
                f"checksum mismatch for {remote.filename}: expected {expected}, got {digest}"
            )
        if expected is None:
            pins[remote.filename] = digest
        if remote.size is not None and target.stat().st_size != remote.size:
            log.warning(
                "%s has size %d, expected %d (upstream file may have changed)",
                remote.filename, target.stat().st_size, remote.size,
            )
        out[remote.filename] = target
    pin_path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out
