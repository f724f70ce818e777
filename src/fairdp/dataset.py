"""CSV ingestion and encoding for binary classification tasks with a binary
protected attribute.

Inputs are plain comma-separated files (optional header row, cells trimmed,
``?`` or empty cells treated as missing, ``|``-prefixed lines skipped per the
UCI convention).  A :class:`Schema` names the label column, the protected
column and the numeric and categorical feature columns.

There is one parser and one encoder.  The encoder turns rows into the feature
matrix, already scaled so that every row lies in the nonnegative part of the
unit ball (per-column min-max to [0, 1], then a global division by sqrt(d)),
in a single allocation.  :func:`read_dataset` encodes a file's rows in
batches as the parser yields them, so no table of text cells is built;
:func:`load_csv` keeps the parsed rows as a :class:`RawTable`, and
:func:`build_dataset` encodes such a table.  Both routes give the same
dataset and the same first error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import shutil
import urllib.request
from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
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
class RawTable:
    """A parsed CSV file: trimmed text cells, missing-value rows removed."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    n_dropped: int = 0

    def __post_init__(self):
        if not self.rows:
            raise ValueError("table must have at least one row")
        width = len(self.column_names)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)


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
    the unit-ball invariant, which :func:`build_dataset` output holds by
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
            if not np.isin(v, (0, 1)).all():  # before the cast, which would truncate 0.7 to 0
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
                             f"(build_dataset scales them into it): {self._unit_ball_error}")

    @cached_property
    def _unit_ball_error(self) -> str:
        if not self.X.min() >= 0.0:
            return "negative or NaN feature entries"
        top = float(np.einsum("ij,ij->i", self.X, self.X).max())  # no (n, d) temporary
        return "" if top <= (1.0 + 1e-12) ** 2 else f"row norm exceeds 1: max={math.sqrt(top)}"

    def fingerprint(self) -> str:
        """Content hash used to tie reports to the exact encoded data; it is
        computed once per dataset."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        h = hashlib.sha256()
        for a in (self.X, self.y, self.z):
            h.update(np.ascontiguousarray(a))  # the bytes of tobytes(), uncopied
        h.update("|".join(self.feature_names).encode())
        return h.hexdigest()


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


def load_csv(path: str | Path, column_names: Sequence[str] | None = None) -> RawTable:
    """Parse a comma-separated file into a :class:`RawTable`.

    The first row is the header, unless ``column_names`` is given: then the
    file has no header row (e.g. the UCI Adult data files).  Cells are
    whitespace-trimmed.  Rows containing a missing-value marker ("?" or an
    empty cell) are dropped and counted in ``n_dropped``.  Blank lines and
    lines starting with ``|`` are skipped.  A row whose cell count differs
    from the number of column names raises :class:`ParseError` naming the line;
    a column name given twice, or text that is not UTF-8, raises it too.
    """
    dropped: list[int] = []
    rows = _parse(Path(path), column_names, dropped)
    names = next(rows)
    kept = tuple(rows)
    return RawTable(column_names=names, rows=kept, n_dropped=len(dropped))


def read_dataset(
    path: str | Path, schema: Schema, column_names: Sequence[str] | None = None
) -> EncodedDataset:
    """``build_dataset(load_csv(path, column_names), schema)``, bit for bit and
    with the same errors, but each batch of rows is encoded as soon as it is
    parsed, so no table of strings is built."""
    rows = _parse(Path(path), column_names, [])
    return _encode(next(rows), rows, schema)


def _parse(
    path: Path, column_names: Sequence[str] | None, dropped: list[int]
) -> Iterator[tuple[str, ...]]:
    """Yield the column names, then each kept row of a CSV file as a tuple of
    trimmed cells, by :func:`load_csv`'s rules; the line number of each row
    dropped for a missing-value marker is appended to ``dropped``."""
    names = None if column_names is None else _distinct(path, tuple(column_names))
    kept = 0
    with path.open(newline="", encoding="utf-8") as fh:
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
                    dropped.append(reader.line_num)
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


def build_dataset(raw: RawTable, schema: Schema) -> EncodedDataset:
    """The encoded table, rows scaled into the nonnegative unit ball: the form
    every trainer consumes.

    The features are the numeric columns, then one indicator per observed
    category of each categorical column (first-seen order; categories are
    exact Python strings, not a NumPy string array, which would drop trailing
    NULs), then the protected 0/1 column if the schema includes it.  Each is
    min-max scaled to [0, 1] (a constant one to exactly 0.0; no entry is
    -0.0) and divided by sqrt(d), in place in the one (n, d) allocation.

    The first error found wins, in this order: a missing label column, then
    a label positive value never observed; the same two for the protected
    column; a missing categorical column; a numeric column, in schema order,
    that is missing or holds a non-numeric cell; a non-finite value.
    """
    return _encode(raw.column_names, raw.rows, schema)


BATCH_ROWS = 256  # rows per batch of _encode


def _encode(
    names: tuple[str, ...], rows: Iterable[tuple[str, ...]], schema: Schema
) -> EncodedDataset:
    """:func:`build_dataset` of the rows of a table with these column names.

    The rows are read BATCH_ROWS at a time, and each batch is transposed and
    appended to growable buffers while it is in cache: the label and
    protected indicators, each categorical column's codes, and the numeric
    columns as one row-major block, which becomes X itself when they are all
    of its columns.  Every error of the encoding is raised only after the
    last row is read, so an error of the parse behind ``rows`` wins.
    """
    def column(name):  # the first column of that name, as a tuple's index() finds
        return names.index(name) if name in names else None

    flags = [(what, name, column(name), positive, bytearray(), set())
             for what, name, positive in (("label", schema.label, schema.label_positive),
                                          ("protected", schema.protected,
                                           schema.protected_positive))]
    categorical = [(name, column(name), _codebook(), array("q")) for name in schema.categorical]
    numeric = [(name, column(name)) for name in schema.numeric]
    numbers = array("d")  # the numeric columns' values, row by row
    bad: dict[str, str] = {}  # numeric column -> message for its first non-numeric cell
    n, rows = 0, iter(rows)
    for batch in iter(lambda: list(islice(rows, BATCH_ROWS)), []):
        n += len(batch)
        cells = list(zip(*batch))
        for _, _, j, positive, is_positive, seen in flags:
            if j is not None:
                is_positive.extend(map(positive.__eq__, cells[j]))
                if positive not in seen:  # the observed values its error would list
                    seen.update(cells[j])
        for _, j, codes, coded in categorical:
            if j is not None:
                coded.extend(map(codes.__getitem__, cells[j]))
        block = np.empty((len(batch), len(numeric)))
        for col, (name, j) in zip(block.T, numeric):
            if j is not None and name not in bad:
                try:
                    col[:] = np.fromiter(map(float, cells[j]), float, len(batch))
                except ValueError as exc:
                    bad[name] = f"non-numeric cell in column {name!r}: {exc}"
        numbers.frombytes(block.tobytes())

    for what, name, j, positive, _, seen in flags:
        if j is None:
            raise _missing(name)
        if positive not in seen:
            raise ValueError(f"{what} positive value {positive!r} never observed "
                             f"(observed: {sorted(seen)[:8]}...)")
    for name, j, *_ in (*categorical, *numeric):
        if j is None:
            raise _missing(name)
        if name in bad:
            raise ParseError(bad[name])
    y, z = (np.frombuffer(is_positive, np.uint8).astype(np.int64) for *_, is_positive, _ in flags)
    feature_names = [*schema.numeric]
    for name, _, codes, _ in categorical:
        feature_names.extend(f"{name}={cat}" for cat in codes)
    if schema.include_protected_in_features:
        feature_names.append(schema.protected)
    root = math.sqrt(len(feature_names))

    X = np.frombuffer(numbers).reshape(n, len(numeric))
    if len(feature_names) > len(numeric):
        X, parsed = np.zeros((n, len(feature_names))), X
        X[:, :len(numeric)] = parsed
        del parsed, numbers
    for col in X.T[:len(numeric)]:
        lo, hi = col.min(), col.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("X contains non-finite entries")
        if hi > lo:
            col -= lo if lo else -0.0  # x - (-0.0) turns a "-0" cell into +0.0
            col /= hi - lo
            col /= root
        else:
            col.fill(0.0)
    j = len(numeric)
    for _, _, codes, coded in categorical:
        if len(codes) > 1:  # a one-category column is constant, so it stays 0.0
            X[np.arange(n), j + np.frombuffer(coded, np.int64)] = 1.0 / root
        j += len(codes)
    if schema.include_protected_in_features and z.min() < z.max():
        X[:, -1] = z / root
    return EncodedDataset(X=X, y=y, z=z, feature_names=tuple(feature_names))


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
