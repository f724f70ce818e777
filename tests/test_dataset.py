import copy
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairdp import dataset
from fairdp.dataset import (
    BATCH_ROWS,
    EncodedDataset,
    FetchError,
    ParseError,
    RemoteFile,
    Schema,
    fetch_dataset,
    read_dataset,
    split,
)

from toys import FIXTURE_DIR, parsed_table, reference_encode

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC_SCHEMA = Schema(
    label="income",
    label_positive="yes",
    protected="sex",
    protected_positive="Male",
    numeric=("age",),
    categorical=("dept",),
)


class TestLoadCsv:
    """read_dataset's parse rules, on files whose columns a, b, sex, income
    LINES_SCHEMA reads."""

    def test_three_line_file(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b,sex,income\n1,x,Male,yes\n3,y,Female,no\n")
        ds = read_dataset(path, LINES_SCHEMA)
        assert ds.n == 2
        assert ds.feature_names == ("a", "b=x", "b=y")

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b,sex,income\n1,x,Male,yes\n3,y,Female,no\n"
                                        "5,x,Male,no\n7,x,Male,no,9\n")
        with pytest.raises(ParseError, match="line 5"):
            read_dataset(path, LINES_SCHEMA)

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b,sex,income\n1,x,Male,yes\n?,x,Female,no\n"
                                        "5,,Male,no\n6,y,Female,no\n")
        ds = read_dataset(path, LINES_SCHEMA)
        assert ds.n == 2  # of 4 data lines: 2 dropped
        assert ds.y.tolist() == [1, 0] and ds.z.tolist() == [1, 0]

    def test_cells_trimmed(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b,sex,income\n 1 ,  x y , Male , yes \n"
                                        "2,x y,Female,no\n")
        ds = read_dataset(path, LINES_SCHEMA)
        assert ds.feature_names == ("a", "b=x y")
        assert ds.y.tolist() == [1, 0] and ds.z.tolist() == [1, 0]

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "t.csv", "|banner line\na,b,sex,income\n\n1,x,Male,yes\n")
        ds = read_dataset(path, LINES_SCHEMA)
        assert ds.feature_names == ("a", "b=x")
        assert ds.n == 1

    def test_no_header_generates_names(self, tmp_path):
        # Given column names, the first row is data, not a header.
        path = write(tmp_path, "t.csv", "1,x,Male,yes\n4,y,Female,no\n")
        ds = read_dataset(path, LINES_SCHEMA, column_names=["a", "b", "sex", "income"])
        assert ds.n == 2

    def test_column_names_count_mismatch_names_line(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,x,Male,yes\n4,y,Female,no\n")
        with pytest.raises(ParseError, match=r"^t.csv: line 1 has 4 cells, expected 5$"):
            read_dataset(path, LINES_SCHEMA, column_names=["a", "b", "c", "sex", "income"])

    @pytest.mark.parametrize("text, names", [
        ("a,b,a\n1,2,3\n", None),
        ("1,2,3\n", ["a", "b", "a"]),
    ])
    def test_repeated_column_name(self, tmp_path, text, names):
        # A header or column list that repeats a name used to be read as if
        # only its first column existed.
        path = write(tmp_path, "t.csv", text)
        with pytest.raises(ParseError, match=r"^t.csv: column name 'a' is repeated$"):
            read_dataset(path, LINES_SCHEMA, column_names=names)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b,sex,income\n1,\xff,Male,yes\n")
        with pytest.raises(ParseError, match=r"^t.csv: not UTF-8 text \(invalid start byte\)$"):
            read_dataset(path, LINES_SCHEMA)

    def test_empty_file_with_column_names(self, tmp_path):
        with pytest.raises(ParseError, match="file is empty"):
            read_dataset(write(tmp_path, "t.csv", "\n"), LINES_SCHEMA, column_names=["a"])

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="^t.csv: file is empty$"):
            read_dataset(write(tmp_path, "t.csv", ""), LINES_SCHEMA)

    @pytest.mark.parametrize("column_names", [None, ["age", "hours", "dept", "sex", "income"]])
    def test_byte_order_mark_skipped(self, tmp_path, column_names):
        # Excel's "CSV UTF-8" starts the file with EF BB BF.
        text = (FIXTURE_DIR / "toy.csv").read_bytes()
        if column_names:
            text = text.partition(b"\n")[2]
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text)
        assert read_dataset(path, BASIC_SCHEMAS_TOY, column_names).fingerprint() == TOY_FINGERPRINT


LINES_SCHEMA = Schema(label="income", label_positive="yes", protected="sex",
                      protected_positive="Male", numeric=("a",), categorical=("b",))


class TestEncode:
    def make_raw(self):
        return (
            ("age", "dept", "sex", "income"),
            [
                ("30", "eng", "Male", "yes"),
                ("40", "ops", "Female", "no"),
                ("50", "hr", "Female", "yes"),
                ("35", "eng", "Male", "no"),
            ],
        )

    def test_protected_mapping(self):
        ds = dataset._encode(*self.make_raw(), BASIC_SCHEMA)
        np.testing.assert_array_equal(ds.z, [1, 0, 0, 1])
        np.testing.assert_array_equal(ds.y, [1, 0, 1, 0])

    def test_one_hot_columns_sum_to_one(self):
        ds = dataset._encode(*self.make_raw(), BASIC_SCHEMA)
        onehot = ds.X[:, 1:] * 2.0  # age is first; entries are 1/sqrt(4) or 0
        assert onehot.shape == (4, 3)
        np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(4))
        # first-seen category order
        assert ds.feature_names == ("age", "dept=eng", "dept=ops", "dept=hr")

    def test_protected_excluded_by_default(self):
        ds = dataset._encode(*self.make_raw(), BASIC_SCHEMA)
        assert "sex" not in ds.feature_names

    def test_protected_included_when_flagged(self):
        schema = Schema(
            label="income",
            label_positive="yes",
            protected="sex",
            protected_positive="Male",
            numeric=("age",),
            include_protected_in_features=True,
        )
        ds = dataset._encode(*self.make_raw(), schema)
        assert ds.feature_names[-1] == "sex"
        np.testing.assert_array_equal(ds.X[:, -1], ds.z / math.sqrt(2))

    def test_unseen_positive_label_errors(self):
        schema = Schema(
            label="income",
            label_positive=">50K",
            protected="sex",
            protected_positive="Male",
            numeric=("age",),
        )
        with pytest.raises(ValueError, match="label"):
            dataset._encode(*self.make_raw(), schema)

    def test_missing_column_errors(self):
        schema = Schema(
            label="income",
            label_positive="yes",
            protected="sex",
            protected_positive="Male",
            numeric=("salary",),
        )
        with pytest.raises(ValueError, match="salary"):
            dataset._encode(*self.make_raw(), schema)

    def test_non_numeric_cell_errors(self):
        raw = ("age", "sex", "income"), [("abc", "Male", "yes"), ("30", "Female", "no")]
        schema = Schema(
            label="income",
            label_positive="yes",
            protected="sex",
            protected_positive="Male",
            numeric=("age",),
        )
        with pytest.raises(ParseError, match="age"):
            dataset._encode(*raw, schema)

    def test_schema_rejects_label_as_feature(self):
        with pytest.raises(ValueError):
            Schema(
                label="income",
                label_positive="yes",
                protected="sex",
                protected_positive="Male",
                numeric=("income",),
            )

    @pytest.mark.parametrize("include", [False, True])
    def test_schema_rejects_protected_as_feature(self, include):
        # Listed and flagged, the attribute used to be encoded twice: as the
        # one-hot block sex=Male, sex=Female and again as the 0/1 column sex.
        with pytest.raises(ValueError, match="'sex' is the protected column"):
            dataclasses.replace(BASIC_SCHEMA, categorical=("dept", "sex"),
                                include_protected_in_features=include)

    def test_schema_needs_a_feature_column(self):
        # The flag alone selects one: the protected 0/1 column.
        with pytest.raises(ValueError, match="^schema lists no feature columns$"):
            dataclasses.replace(BASIC_SCHEMA, numeric=(), categorical=())
        flag_only = dataclasses.replace(BASIC_SCHEMA, numeric=(), categorical=(),
                                        include_protected_in_features=True)
        ds = dataset._encode(*self.make_raw(), flag_only)
        assert ds.feature_names == ("sex",)
        np.testing.assert_array_equal(ds.X[:, 0], ds.z)


def normalize(X):
    """The encoded X of a table whose feature columns are the columns of X,
    written as the shortest text that parses back to each value."""
    n, d = X.shape
    names = tuple(f"c{j}" for j in range(d))
    groups = ["Male"] + ["Female"] * (n - 1)
    rows = [(*map(repr, map(float, row)), g, "yes") for row, g in zip(X, groups)]
    schema = Schema(label="income", label_positive="yes",
                    protected="sex", protected_positive="Male", numeric=names)
    return dataset._encode((*names, "sex", "income"), rows, schema).X


class TestNormalize:
    def test_single_column_minmax(self):
        out = normalize(np.array([[0.0], [5.0], [10.0]]))
        np.testing.assert_allclose(out, [[0.0], [0.5], [1.0]])

    def test_constant_columns_collapse(self):
        out = normalize(np.ones((2, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_random_matrix_row_norms(self, rng):
        X = rng.normal(size=(50, 6)) * 100 + 3
        out = normalize(X)
        np.testing.assert_array_equal(out, scaled(X))
        assert (out >= 0).all()
        assert (np.linalg.norm(out, axis=1) <= 1.0 + 1e-12).all()

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 20), st.integers(1, 8)),
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_ball_property(self, X):
        out = normalize(X)
        np.testing.assert_array_equal(out, scaled(X))
        assert (out >= 0.0).all()
        assert (np.linalg.norm(out, axis=1) <= 1.0 + 1e-12).all()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="^X contains non-finite entries$"):
            normalize(np.array([[1.0], [np.inf]]))


class TestBuildDataset:
    def test_normalized_invariant_holds(self, tmp_path):
        read_dataset(FIXTURE_DIR / "toy.csv", BASIC_SCHEMAS_TOY).check_normalized()

    @pytest.mark.parametrize("include", [False, True])
    def test_scaling_matches_direct_formula(self, include):
        # Bit-exact: per-column min-max of the encoded matrix (the protected
        # 0/1 column included), then one division by sqrt(columns).
        path = FIXTURE_DIR / "toy.csv"
        schema = dataclasses.replace(BASIC_SCHEMAS_TOY, include_protected_in_features=include)
        expected = scaled(reference_encode(*parsed_table(path), schema).X)
        np.testing.assert_array_equal(read_dataset(path, schema).X, expected)


BASIC_SCHEMAS_TOY = Schema(
    label="income",
    label_positive="yes",
    protected="sex",
    protected_positive="Male",
    numeric=("age", "hours"),
    categorical=("dept",),
)
TOY_FINGERPRINT = "4bae6472e0a916754d42b782e0d026f212e3d6c05fd2fcca4284c317c5d0f439"


class TestGoldenPipeline:
    def test_encode_load_byte_stable(self):
        # Golden: fingerprint of read_dataset(fixture) frozen at build time.
        path = FIXTURE_DIR / "toy.csv"
        ds = read_dataset(path, BASIC_SCHEMAS_TOY)
        assert len(path.read_text().splitlines()) - 1 - ds.n == 1  # one row dropped
        assert ds.fingerprint() == TOY_FINGERPRINT

    def test_fingerprint_hashed_once(self, monkeypatch):
        ds = read_dataset(FIXTURE_DIR / "toy.csv", BASIC_SCHEMAS_TOY)
        first = ds.fingerprint()
        monkeypatch.setattr(hashlib, "sha256", None)  # a second hash would fail
        assert ds.fingerprint() == first


class TestBackgroundHash:
    """read_dataset starts the fingerprint on a worker thread that ends with
    the hash; fingerprint() joins it and gives the value a lazy hash gives."""

    @pytest.mark.parametrize("form", ["plain", "bom", "quoted"])
    def test_hash_runs_off_the_calling_thread(self, tmp_path, monkeypatch, parse_calls, form):
        text = (FIXTURE_DIR / "toy.csv").read_bytes()
        if form == "bom":
            text = b"\xef\xbb\xbf" + text
        elif form == "quoted":  # the same cells, but the csv path reads them
            text = text.replace(b",sales,", b',"sales",', 1)
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        hashed_on, real = [], hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda *a: hashed_on.append(threading.get_ident()) or real(*a))
        ds = read_dataset(path, BASIC_SCHEMAS_TOY)
        assert ds.fingerprint() == TOY_FINGERPRINT
        assert len(hashed_on) == 1 and hashed_on[0] != threading.get_ident()
        assert bool(parse_calls) == (form == "quoted")

    def test_no_thread_outlives_the_hash(self):
        before = threading.active_count()
        ds = read_dataset(FIXTURE_DIR / "toy.csv", BASIC_SCHEMAS_TOY)
        assert ds.fingerprint() == TOY_FINGERPRINT
        assert threading.active_count() == before

    @pytest.mark.parametrize("copy_of", [lambda ds: pickle.loads(pickle.dumps(ds)),
                                         copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copy_taken_while_hashing(self, monkeypatch, copy_of):
        twin = copy_of(read_dataset(FIXTURE_DIR / "toy.csv", BASIC_SCHEMAS_TOY))
        monkeypatch.setattr(dataset, "_digest", None)  # the digest came with the copy
        assert twin.fingerprint() == TOY_FINGERPRINT

    # The test forks a process that has a running thread on purpose.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_child_forked_while_hashing(self, monkeypatch):
        release, caller, real = threading.Event(), threading.get_ident(), dataset._digest

        def held(ds):
            if threading.get_ident() != caller:  # the worker waits until the child is forked
                release.wait(30)
            return real(ds)

        monkeypatch.setattr(dataset, "_digest", held)
        before = threading.active_count()
        ds = read_dataset(FIXTURE_DIR / "toy.csv", BASIC_SCHEMAS_TOY)
        assert threading.active_count() == before + 1  # the hash is running
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=lambda: queue.put(ds.fingerprint()))
        child.start()
        try:
            forked = queue.get(timeout=30)
        finally:
            release.set()
            child.join(30)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert forked == ds.fingerprint() == TOY_FINGERPRINT

    def test_error_of_the_hash_raised_by_fingerprint(self, monkeypatch):
        def fail(ds):
            raise MemoryError("no room to hash")

        monkeypatch.setattr(dataset, "_digest", fail)
        ds = read_dataset(FIXTURE_DIR / "toy.csv", BASIC_SCHEMAS_TOY)
        with pytest.raises(MemoryError, match="no room to hash"):
            ds.fingerprint()

    def test_no_thread_to_be_had(self, monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        ds = read_dataset(FIXTURE_DIR / "toy.csv", BASIC_SCHEMAS_TOY)
        assert ds.fingerprint() == TOY_FINGERPRINT


# --- encoder oracle -----------------------------------------------------------
# reference_encode (in toys.py) transcribes the per-category encoder that the
# array encoder replaced; reference_build scales its output with a masked
# min-max and one division by sqrt(d).  Every bit of the encoder must match.

def scaled(X):
    """Per-column min-max to [0, 1] (a constant column to 0.0), then one
    division by sqrt(d).  A zero is +0.0 whatever the sign of its cell: the
    + 0.0 turns x - lo = -0.0 (a "-0" cell at a minimum of "0") into +0.0."""
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    unit = np.zeros_like(X)
    live = span > 0
    unit[:, live] = (X[:, live] - lo[live] + 0.0) / span[live]
    return unit / math.sqrt(unit.shape[1])


def reference_build(names, rows, schema):
    ds = reference_encode(names, rows, schema)
    return EncodedDataset(X=scaled(ds.X), y=ds.y, z=ds.z, feature_names=ds.feature_names)


def assert_matches_reference(raw, schema):
    """The encoder's dataset of a (column names, rows) table, bit for bit the
    oracle's."""
    ds, ref = dataset._encode(*raw, schema), reference_build(*raw, schema)
    assert ds.X.tobytes() == ref.X.tobytes()
    assert ds.fingerprint() == ref.fingerprint()


NUMERIC_POOLS = (
    ("0", "-0", "1", "1e3", " 2 ", "-1.5", "3.25", "1e-300", "-7", "+4", "1_000"),
    ("0", "-0"),  # a constant column whose x - min can be -0.0
    ("-0",),
    ("5", " 5 ", "5.0", "5e0"),
)
CATEGORY_CELLS = st.one_of(
    st.sampled_from(["a", "a ", " a", "A", "é", "é", "Ω", "x", "x\x00", "\x00", "", "  "]),
    st.text(max_size=3),
)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 25))
    cols = {}
    for name, pos, neg in (("income", "yes", "no"), ("sex", "Male", "Female")):
        cells = draw(st.lists(st.sampled_from([pos, neg]), min_size=n, max_size=n))
        cells[draw(st.integers(0, n - 1))] = pos
        cols[name] = cells
    numeric, categorical = [], []
    for i in range(draw(st.integers(0, 3))):
        pool = draw(st.sampled_from(NUMERIC_POOLS))
        cols[f"num{i}"] = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        numeric.append(f"num{i}")
    for i in range(draw(st.integers(0, 3))):
        cols[f"cat{i}"] = draw(st.lists(CATEGORY_CELLS, min_size=n, max_size=n))
        categorical.append(f"cat{i}")
    include = draw(st.booleans()) or not (numeric or categorical)
    order = draw(st.permutations(list(cols)))
    raw = tuple(order), list(zip(*(cols[c] for c in order)))
    schema = Schema(
        label="income", label_positive="yes",
        protected="sex", protected_positive="Male",
        numeric=tuple(draw(st.permutations(numeric))),
        categorical=tuple(draw(st.permutations(categorical))),
        include_protected_in_features=include,
    )
    return raw, schema


ADULT_NUMERIC = ("age", "fnlwgt", "education-num", "capital-gain", "capital-loss",
                 "hours-per-week")
ADULT_CATEGORICAL = {"workclass": 7, "education": 16, "marital-status": 7,
                     "occupation": 14, "relationship": 6, "race": 5,
                     "native-country": 41}
ADULT_ORDER = ("age", "workclass", "fnlwgt", "education", "education-num",
               "marital-status", "occupation", "relationship", "race", "sex",
               "capital-gain", "capital-loss", "hours-per-week", "native-country",
               "income")


def adult_shaped_table(n=3000, seed=0):
    """15 Adult-like columns; every category appears, so d = 6 + 96 = 102."""
    gen = np.random.default_rng(seed)
    cols = {name: [str(v) for v in gen.integers(0, 10 ** (2 + i % 4), size=n)]
            for i, name in enumerate(ADULT_NUMERIC)}
    for name, k in ADULT_CATEGORICAL.items():
        codes = np.concatenate([np.arange(k), gen.integers(0, k, size=n - k)])
        cols[name] = [f"{name[:4]}-{c}" for c in codes]
    cols["sex"] = [("Male", "Female")[c] for c in gen.integers(0, 2, size=n)]
    cols["income"] = [(">50K", "<=50K")[c] for c in gen.integers(0, 2, size=n)]
    raw = ADULT_ORDER, list(zip(*(cols[c] for c in ADULT_ORDER)))
    schema = Schema(
        label="income", label_positive=">50K",
        protected="sex", protected_positive="Male",
        numeric=ADULT_NUMERIC, categorical=tuple(ADULT_CATEGORICAL),
    )
    return raw, schema


def unique_encode(raw, schema):
    """An encoder for categorical-only schemas that codes categories by
    np.unique over a NumPy string array, re-ranked by first occurrence: the
    shortcut the oracle must reject."""
    column_names, rows = raw
    X, names = [], []
    for name in schema.categorical:
        idx = column_names.index(name)
        values = np.array([row[idx] for row in rows])
        cats, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first))
        block = np.zeros((len(rows), len(cats)))
        block[np.arange(len(rows)), rank[inverse]] = 1.0
        X.append(block)
        names += [f"{name}={c}" for c in cats[np.argsort(first)]]
    ds = reference_encode(*raw, schema)
    return EncodedDataset(X=np.column_stack(X), y=ds.y, z=ds.z, feature_names=tuple(names))


class TestEncoderOracle:
    @given(tables())
    @settings(max_examples=100, deadline=None)
    def test_generated_tables(self, case):
        assert_matches_reference(*case)

    def test_adult_shaped_table(self):
        raw, schema = adult_shaped_table()
        assert dataset._encode(*raw, schema).d == 102
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("include", [False, True])
    @pytest.mark.parametrize("numeric", [False, True])
    def test_toy_fixture(self, include, numeric):
        schema = dataclasses.replace(BASIC_SCHEMAS_TOY, include_protected_in_features=include,
                                     numeric=BASIC_SCHEMAS_TOY.numeric if numeric else ())
        assert_matches_reference(parsed_table(FIXTURE_DIR / "toy.csv"), schema)

    def test_trailing_nul_is_its_own_category(self):
        raw = ("dept", "sex", "income"), [("x", "Male", "yes"), ("x\x00", "Female", "no"),
                                          ("x", "Female", "no")]
        schema = Schema(label="income", label_positive="yes",
                        protected="sex", protected_positive="Male",
                        categorical=("dept",))
        ds = dataset._encode(*raw, schema)
        assert ds.feature_names == ("dept=x", "dept=x\x00")
        np.testing.assert_array_equal(ds.X, np.array([[1, 0], [0, 1], [1, 0]]) / math.sqrt(2))
        assert_matches_reference(raw, schema)
        # A NumPy string array strips the NUL and merges the two categories.
        assert unique_encode(raw, schema).fingerprint() != \
            reference_encode(*raw, schema).fingerprint()

    @pytest.mark.parametrize("cells", [("0", "-0"), ("-0", "0"), ("0", "-0", "0")])
    def test_zero_signs_in_constant_column(self, cells):
        # x - min is -0.0 for some orders; constant columns must read +0.0.
        groups = [("Male", "yes")] + [("Female", "no")] * (len(cells) - 1)
        raw = ("v", "sex", "income"), [(c, *g) for c, g in zip(cells, groups)]
        schema = Schema(label="income", label_positive="yes",
                        protected="sex", protected_positive="Male",
                        numeric=("v",))
        X = dataset._encode(*raw, schema).X
        assert not np.signbit(X).any()
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_numeric_cell_rejected(self, cell):
        raw = ("age", "sex", "income"), [(cell, "Male", "yes"), ("30", "Female", "no")]
        schema = Schema(label="income", label_positive="yes",
                        protected="sex", protected_positive="Male",
                        numeric=("age",))
        with pytest.raises(ValueError, match="X contains non-finite entries"):
            dataset._encode(*raw, schema)


def table(columns, **schema):
    """A (column names, rows) table of the given columns (name -> cells),
    with a label column "income" (yes, no, yes, ...) and a protected column
    "sex" (Male, then Female) unless they are given, and a Schema with these
    feature columns."""
    n = len(next(iter(columns.values())))
    cols = {"sex": ["Male"] + ["Female"] * (n - 1),
            "income": ["yes", "no"] * (n // 2) + ["yes"] * (n % 2), **columns}
    raw = tuple(cols), list(zip(*cols.values()))
    return raw, Schema(label="income", label_positive="yes",
                       protected="sex", protected_positive="Male", **schema)


class TestBuildDatasetEdges:
    """The encoder against the encode-then-scale oracle, byte for byte."""

    def test_one_category_column_is_exact_zeros(self):
        raw, schema = table({"one": ["x"] * 4, "two": ["a", "b", "a", "b"]},
                            categorical=("one", "two"))
        X = dataset._encode(*raw, schema).X
        assert X[:, 0].tobytes() == np.zeros(4).tobytes()
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("sex", [["Male"] * 4, ["Male", "Female", "Male", "Female"]])
    def test_protected_feature(self, sex):
        raw, schema = table({"age": ["30", "40", "50", "60"], "sex": sex}, numeric=("age",),
                            include_protected_in_features=True)
        ds = dataset._encode(*raw, schema)
        expected = ds.z / math.sqrt(2) if 0 < ds.z_bar < 1 else np.zeros(4)
        assert ds.X[:, 1].tobytes() == expected.tobytes()
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("cells", [("-0", "0", "1"), ("0", "-0", "1"), ("1", "-0", "0"),
                                       ("-0", "1", "0"), ("-0", "-0", "2"), ("0", "-0", "0")])
    def test_zero_signs_mixed(self, cells):
        # A "-0" cell at a zero minimum reads as +0.0, as "0" would.
        raw, schema = table({"v": list(cells), "w": ["5", "-0", "0"]}, numeric=("v", "w"))
        X = dataset._encode(*raw, schema).X
        assert not np.signbit(X).any()
        plain, _ = table({"v": [c.lstrip("-") for c in cells], "w": ["5", "0", "0"]},
                         numeric=("v", "w"))
        assert X.tobytes() == dataset._encode(*plain, schema).X.tobytes()
        assert_matches_reference(raw, schema)

    def test_column_order(self):
        # Numeric, then categorical, then protected, whatever the file order.
        raw, schema = table({"d": ["p", "q", "p"], "a": ["1", "2", "4"], "c": ["u", "u", "v"],
                             "b": ["3", "1", "2"]},
                            numeric=("b", "a"), categorical=("d", "c"),
                            include_protected_in_features=True)
        ds = dataset._encode(*raw, schema)
        assert ds.feature_names == ("b", "a", "d=p", "d=q", "c=u", "c=v", "sex")
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("cell, error, message", [
        ("inf", ValueError, "X contains non-finite entries"),
        ("nan", ValueError, "X contains non-finite entries"),
        ("abc", ParseError,
         "non-numeric cell in column 'age': could not convert string to float: 'abc'"),
    ])
    def test_bad_cells(self, cell, error, message):
        raw, schema = table({"age": ["30", cell, "40"]}, numeric=("age",))
        with pytest.raises(ValueError) as exc:
            dataset._encode(*raw, schema)
        assert type(exc.value) is error and str(exc.value) == message

    def test_bad_cell_reported_before_non_finite_one(self):
        # Every numeric column is parsed before any is checked for finiteness.
        raw, schema = table({"a": ["inf", "1"], "b": ["2", "abc"]}, numeric=("a", "b"))
        with pytest.raises(ParseError, match="column 'b'"):
            dataset._encode(*raw, schema)


class TestSplit:
    def make(self, n=10, d=3, seed=0):
        gen = np.random.default_rng(seed)
        return EncodedDataset(
            X=gen.random((n, d)) / math.sqrt(d),
            y=gen.integers(0, 2, size=n),
            z=gen.integers(0, 2, size=n),
            feature_names=tuple(f"f{i}" for i in range(d)),
        )

    def test_sizes_and_determinism(self):
        ds = self.make(10)
        a1, b1 = split(ds, 0.2, seed=42)
        a2, b2 = split(ds, 0.2, seed=42)
        assert a1.n == 8 and b1.n == 2
        np.testing.assert_array_equal(a1.X, a2.X)
        np.testing.assert_array_equal(b1.y, b2.y)

    def test_different_seeds_differ(self):
        ds = self.make(10)
        _, b1 = split(ds, 0.2, seed=1)
        _, b2 = split(ds, 0.2, seed=2)
        assert not np.array_equal(b1.X, b2.X)

    def test_partition_property(self):
        ds = self.make(17, d=2)
        train, test = split(ds, 0.3, seed=5)
        combined = np.vstack([train.X, test.X])
        assert combined.shape[0] == ds.n
        orig = {tuple(row) for row in np.round(ds.X, 12)}
        got = {tuple(row) for row in np.round(combined, 12)}
        assert orig == got

    def test_zbar_recomputed(self):
        X = np.full((5, 1), 0.5)
        ds = EncodedDataset(X=X, y=[0, 1, 0, 1, 0], z=[1, 1, 1, 1, 1],
                            feature_names=("a",))
        train, test = split(ds, 0.2, seed=0)
        assert test.z_bar == 1.0
        assert train.z_bar == 1.0

    def test_fraction_guards(self):
        ds = self.make(10)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split(ds, bad, seed=0)

    def test_empty_test_part_rejected(self):
        ds = self.make(3)
        with pytest.raises(ValueError):
            split(ds, 0.2, seed=0)  # ceil(3*0.8) == 3 leaves nothing

    @pytest.mark.parametrize("d, order", [(1, "C"), (7, "C"), (102, "C"), (7, "F")])
    def test_parts_are_the_indexed_rows(self, d, order):
        # split gathers X with np.take: the bytes of ds.X[idx], C-ordered
        # even from an F-ordered parent, so the parts' linear statistics
        # take the einsum path whatever the parent's layout.
        ds = self.make(1001, d=d, seed=d)
        ds = EncodedDataset(X=np.asfortranarray(ds.X) if order == "F" else ds.X,
                            y=ds.y, z=ds.z, feature_names=ds.feature_names)
        perm = np.random.default_rng(3).permutation(ds.n)
        for part, idx in zip(split(ds, 0.3, seed=3), (perm[:701], perm[701:])):
            assert part.X.flags.c_contiguous
            for name in ("X", "y", "z"):
                got, want = getattr(part, name), getattr(ds, name)[idx]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestEncodedDatasetInvariants:
    def test_value_domain_checks(self):
        with pytest.raises(ValueError):
            EncodedDataset(X=np.ones((2, 1)), y=[0, 2], z=[0, 1], feature_names=("a",))
        with pytest.raises(ValueError):
            EncodedDataset(X=np.ones((2, 1)), y=[0, 1], z=[0, 1], feature_names=())

    @pytest.mark.parametrize("y, z, name", [([0.7, 1.0], [0, 1], "y"),
                                            ([0, 1], [1.9, 0], "z"),
                                            ([0.0, 1.0], [1, -0.5], "z"),
                                            ([0.0, np.nan], [1, 0], "y")])
    def test_values_not_exactly_0_or_1_rejected(self, y, z, name):
        # Checked before the int64 cast, which would truncate 0.7 to 0 and 1.9 to 1.
        with pytest.raises(ValueError, match=f"^{name} must contain only 0 and 1$"):
            EncodedDataset(X=np.ones((2, 1)) / 2, y=y, z=z, feature_names=("a",))

    @pytest.mark.parametrize("values, valid", [(["1", "0"], False), ([0.7, 1], False),
                                               ([np.nan, 1], False), ([True, False], True),
                                               ([1, 0], True)])
    def test_domain_check_agrees_with_isin(self, values, valid):
        # The check compares with 0 and 1, which gives np.isin(v, (0, 1))'s
        # verdict on each of these, text included, with no warning.
        assert np.isin(np.asarray(values), (0, 1)).all() == valid
        for name in ("y", "z"):
            columns = {"y": [0, 1], "z": [1, 0], name: values}
            if valid:
                ds = EncodedDataset(X=np.ones((2, 1)) / 2, feature_names=("a",), **columns)
                assert getattr(ds, name).tolist() == [int(v) for v in values]
            else:
                with pytest.raises(ValueError, match=f"^{name} must contain only 0 and 1$"):
                    EncodedDataset(X=np.ones((2, 1)) / 2, feature_names=("a",), **columns)

    def test_exact_0_and_1_of_any_type_accepted(self):
        ds = EncodedDataset(X=np.ones((3, 1)) / 2, y=[0.0, 1.0, True], z=np.array([1, 0, 0], bool),
                            feature_names=("a",))
        assert ds.y.dtype == ds.z.dtype == np.int64
        assert ds.y.tolist() == [0, 1, 1] and ds.z.tolist() == [1, 0, 0]

    def test_immutability(self):
        ds = EncodedDataset(X=np.ones((2, 2)) / 2, y=[0, 1], z=[1, 0],
                            feature_names=("a", "b"))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 9.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fingerprint_hashes_row_major_bytes(self, order):
        X = np.asarray(np.arange(12.0).reshape(4, 3) / 16, order=order)
        ds = EncodedDataset(X=X, y=[0, 1, 1, 0], z=[1, 0, 1, 0], feature_names=("a", "b", "c"))
        h = hashlib.sha256()
        for part in (X.tobytes(), ds.y.tobytes(), ds.z.tobytes(), b"a|b|c"):
            h.update(part)
        assert ds.fingerprint() == h.hexdigest()

    def test_zbar_exact(self):
        ds = EncodedDataset(X=np.ones((4, 1)) / 2, y=[0, 1, 0, 1], z=[1, 0, 0, 1],
                            feature_names=("a",))
        assert ds.z_bar == 0.5


class TestLinearStatistics:
    """logistic_c1 and protected_cov are ``np.einsum("i,ij->j", w, X)`` on a
    C-ordered X with d > 1, bit for bit the one-shot (w[:, None] * X).sum(axis=0),
    which adds the products row by row in order.  A NumPy build whose einsum
    fuses multiply-add (FMA) fails here, and every seeded output differs on it."""

    @staticmethod
    def one_hot_rows(gen, n, d):
        X = np.zeros((n, d))
        X[np.arange(n), gen.integers(0, d, size=n)] = 1.0 / math.sqrt(d)
        return X

    # Rows n around 4,096, at widths d = 2, 7 and 102; d = 7 keeps its plain ids.
    @pytest.mark.parametrize("n, d", [
        pytest.param(n, d, id=str(n) if d == 7 else f"d{d}-{n}")
        for d in (2, 7, 102) for n in (1, 100, 4096, 4097, 12305)])
    @pytest.mark.parametrize("kind", ["dense", "one-hot"])
    def test_matches_one_shot_sum(self, n, d, kind):
        from conftest import random_unit_rows
        gen = np.random.default_rng(n)
        X = random_unit_rows(gen, n, d) if kind == "dense" else self.one_hot_rows(gen, n, d)
        ds = EncodedDataset(X=X, y=gen.integers(0, 2, size=n), z=gen.integers(0, 2, size=n),
                            feature_names=tuple(f"f{j}" for j in range(d)))
        for got, w in ((ds.logistic_c1, 0.5 - ds.y), (ds.protected_cov, ds.z - ds.z_bar)):
            assert got.tobytes() == (w[:, None] * ds.X).sum(axis=0).tobytes()

    @pytest.mark.parametrize("shape, order", [((4101, 1), "C"), ((8197, 3), "F")])
    def test_layouts_numpy_sums_pairwise(self, shape, order):
        gen = np.random.default_rng(0)
        X = np.asarray(gen.random(shape) / math.sqrt(shape[1]), order=order)
        ds = EncodedDataset(X=X, y=gen.integers(0, 2, size=shape[0]),
                            z=gen.integers(0, 2, size=shape[0]),
                            feature_names=tuple(f"f{j}" for j in range(shape[1])))
        w = ds.z - ds.z_bar
        assert ds.protected_cov.tobytes() == (w[:, None] * ds.X).sum(axis=0).tobytes()


def census_shaped_table(n, seed=0):
    """Seven numeric columns (0/1 indicators and uniform values, as text)
    plus 0/1 label and group columns: the census CSV's shape, d = 7."""
    gen = np.random.default_rng(seed)
    cols = {f"f{j}": list(map(repr, (gen.random(n) if j % 3 else gen.random(n) < 0.4)
                                    .astype(float).tolist()))
            for j in range(7)}
    cols["group"] = list(map(str, gen.integers(0, 2, size=n)))
    cols["y"] = list(map(str, gen.integers(0, 2, size=n)))
    raw = tuple(cols), list(zip(*cols.values()))
    return raw, Schema(label="y", label_positive="1", protected="group",
                       protected_positive="1", numeric=tuple(cols)[:7])


def csv_text(raw):
    """The text of a CSV file with a header row whose parse is the
    (column names, rows) table raw."""
    names, rows = raw
    return "".join(",".join(row) + "\n" for row in (names, *rows))


def traced_peak(f):
    """Peak bytes that tracemalloc, which sees NumPy's buffers, traces
    during f(), and f's result."""
    tracemalloc.start()
    try:
        out = f()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize("shape", ["adult", "census"])
    def test_encode_allocates_x_once(self, shape):
        # The csv path's encoder, on a table of text cells already in memory.
        raw, schema = (adult_shaped_table(n=32_561) if shape == "adult"
                       else census_shaped_table(n=32_561))
        peak, ds = traced_peak(lambda: dataset._encode(*raw, schema))
        assert peak <= 1.5 * (ds.X.nbytes + ds.y.nbytes + ds.z.nbytes)

    @pytest.mark.parametrize("shape, bound", [("adult", 1.3), ("census", 2.0)])
    def test_read_dataset_holds_no_table_of_strings(self, tmp_path, shape, bound):
        # The file is encoded as it is parsed: every cell as a Python string
        # would take about as much memory as X on the Adult shape.
        raw, schema = (adult_shaped_table(n=32_561) if shape == "adult"
                       else census_shaped_table(n=32_561))
        path = write(tmp_path, "t.csv", csv_text(raw))
        del raw
        peak, ds = traced_peak(lambda: read_dataset(path, schema))
        assert ds.n == 32_561
        assert peak <= bound * (ds.X.nbytes + ds.y.nbytes + ds.z.nbytes)

    def test_linear_statistics_form_no_full_product(self):
        raw, schema = adult_shaped_table(n=32_561)
        train, _ = split(dataset._encode(*raw, schema), 0.2, seed=0)
        peak, _ = traced_peak(lambda: (train.logistic_c1, train.protected_cov))
        assert peak < train.X.nbytes / 4


# --- set-up against the oracle -----------------------------------------------
# read_dataset encodes each batch of rows as it is parsed.  It gives the
# oracle's dataset (reference_build of the parsed rows), and the documented
# first error when an input has several faults.

def csv_path(path, schema, column_names=None):
    """read_dataset's csv-module route, whatever the file: dataset._parse,
    then dataset._encode."""
    rows = dataset._parse(Path(path), column_names)
    return dataset._encode(next(rows), rows, schema)

ORDER_SCHEMA = Schema(label="income", label_positive="yes", protected="sex",
                      protected_positive="Male", numeric=("a", "b"), categorical=("c",))


def order_csv(n=600, **faults):
    """A header and n rows of the columns a, b, c, sex, income; each fault
    (row index -> cells) replaces one row by those cells."""
    lines = ["a,b,c,sex,income"]
    for i in range(n):
        lines.append(faults.get(f"row{i}", f"{i},{2 * i},k{i % 3},{('Male', 'Female')[i % 2]},"
                                           f"{('no', 'yes')[i % 3 == 0]}"))
    return "\n".join(lines) + "\n"


SECOND = 2 * BATCH_ROWS + 5  # a row in a later batch than the first rows


class TestSetupErrorOrder:
    """Each input has two faults; the first in this order is reported: parse
    errors, label, protected, categorical columns, numeric columns in schema
    order, non-finite values."""

    @pytest.mark.parametrize("load", [read_dataset], ids=["read_dataset"])
    @pytest.mark.parametrize("text, schema, error, message", [
        pytest.param(order_csv(**{f"row{SECOND}": "1,2,k,Male"}),
                     dataclasses.replace(ORDER_SCHEMA, numeric=("a", "salary")),
                     ParseError, f"t.csv: line {SECOND + 2} has 4 cells, expected 5",
                     id="late ragged row before missing column"),
        pytest.param(order_csv(), dataclasses.replace(ORDER_SCHEMA, label_positive=">50K",
                                                      protected="gender"),
                     ValueError, "label positive value '>50K' never observed "
                                 "(observed: ['no', 'yes']...)",
                     id="unseen label before missing protected column"),
        pytest.param(order_csv(), dataclasses.replace(ORDER_SCHEMA, protected_positive="M",
                                                      categorical=("dept",)),
                     ValueError, "protected positive value 'M' never observed "
                                 "(observed: ['Female', 'Male']...)",
                     id="unseen protected before missing categorical column"),
        pytest.param(order_csv(row1="1,x,k,Male,yes"),
                     dataclasses.replace(ORDER_SCHEMA, categorical=("c", "dept")),
                     ValueError, "column 'dept' not present in table",
                     id="missing categorical before non-numeric cell"),
        pytest.param(order_csv(row1="1,x,k,Male,yes", **{f"row{SECOND}": "y,2,k,Male,yes"}),
                     ORDER_SCHEMA, ParseError,
                     "non-numeric cell in column 'a': could not convert string to float: 'y'",
                     id="earlier column on a later row first"),
        pytest.param(order_csv(row1="1,x,k,Male,yes"),
                     dataclasses.replace(ORDER_SCHEMA, numeric=("salary", "b")),
                     ValueError, "column 'salary' not present in table",
                     id="missing numeric column before a later column's bad cell"),
        pytest.param(order_csv(row1="inf,2,k,Male,yes", **{f"row{SECOND}": "1,abc,k,Male,yes"}),
                     ORDER_SCHEMA, ParseError,
                     "non-numeric cell in column 'b': could not convert string to float: 'abc'",
                     id="non-numeric cell before inf"),
    ])
    def test_first_fault_wins(self, tmp_path, load, text, schema, error, message):
        with pytest.raises(ValueError) as exc:
            load(write(tmp_path, "t.csv", text), schema)
        assert type(exc.value) is error and str(exc.value) == message


TEXT_CELLS = st.sampled_from(["0", "-0", "1", "2.5", " 7 ", "1e3", "abc", "inf", "?", "",
                              '"3"', '"x,y"', '"a""b"', "|c", "k", "k ", "é"])
GROUP_CELLS = st.sampled_from(["Male", "Female", " Male", "?"])
LABEL_CELLS = st.sampled_from(["yes", "no", "yes", '"yes"', ""])


@st.composite
def csv_files(draw):
    """Small CSV texts, with or without a header row, mixing rows, comments,
    blank lines, quoted cells, missing markers and an occasional ragged row;
    and a schema over their columns v, w, c, sex, income."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank", "ragged"]))
        if kind == "comment":
            lines.append("| " + draw(st.sampled_from(["note", "a,b", ""])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
        else:
            cells = [draw(TEXT_CELLS), draw(TEXT_CELLS), draw(TEXT_CELLS),
                     draw(GROUP_CELLS), draw(LABEL_CELLS)]
            lines.append(",".join(cells[:-1] if kind == "ragged" else cells))
    names = ("v", "w", "c", "sex", "income")
    header = draw(st.booleans())
    if header:
        lines.insert(0, ",".join(names))
    numeric = draw(st.sampled_from([(), ("v",), ("w", "v"), ("v", "w"), ("v", "x")]))
    categorical = draw(st.sampled_from([(), ("c",), ("c", "w")] if "w" not in numeric
                                       else [(), ("c",)]))
    schema = Schema(label="income", label_positive="yes", protected="sex",
                    protected_positive="Male", numeric=numeric, categorical=categorical,
                    include_protected_in_features=draw(st.booleans())
                    or not (numeric or categorical))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), schema, \
        None if header else names


def outcome(load, path, schema, column_names):
    try:
        return load(path, schema, column_names).fingerprint()
    except ValueError as exc:
        return type(exc), str(exc)


def reference_outcome(path, schema, column_names=None):
    """The outcome read_dataset must give: csv_path's error on a failing
    input, and otherwise the fingerprint of the oracle's dataset of the
    parsed rows."""
    failure = outcome(csv_path, path, schema, column_names)
    if isinstance(failure, tuple):
        return failure
    return reference_build(*parsed_table(path, column_names), schema).fingerprint()


class TestSetupPathsAgree:
    @given(csv_files())
    @settings(max_examples=200, deadline=None)
    def test_generated_files(self, tmp_path_factory, case):
        text, schema, column_names = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert outcome(read_dataset, path, schema, column_names) == \
            reference_outcome(path, schema, column_names)

    @pytest.mark.parametrize("include", [False, True])
    def test_toy_fixture(self, include):
        schema = dataclasses.replace(BASIC_SCHEMAS_TOY, include_protected_in_features=include)
        path = FIXTURE_DIR / "toy.csv"
        assert read_dataset(path, schema).fingerprint() == reference_outcome(path, schema)

    @pytest.mark.parametrize("shape", ["adult", "census"])
    def test_shaped_tables(self, tmp_path, shape):
        raw, schema = (adult_shaped_table(n=BATCH_ROWS * 3 + 1) if shape == "adult"
                       else census_shaped_table(n=BATCH_ROWS * 3 + 1, seed=3))
        path = write(tmp_path, "t.csv", csv_text(raw))
        assert read_dataset(path, schema).fingerprint() == \
            reference_build(*raw, schema).fingerprint()

    @pytest.mark.parametrize("n", [1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1])
    def test_batch_edges(self, tmp_path, n):
        path = write(tmp_path, "t.csv", order_csv(n=n))
        schema = dataclasses.replace(ORDER_SCHEMA, include_protected_in_features=True)
        ds = read_dataset(path, schema)
        assert ds.n == n
        assert ds.fingerprint() == reference_outcome(path, schema)


# --- read_dataset's two tokenizers --------------------------------------------
# read_dataset tokenizes a plain file with NumPy byte operations and reads any
# other file, or a plain one whose encoding fails, with the csv module
# (csv_path).  Either way its outcome is csv_path's.

@pytest.fixture
def parse_calls(monkeypatch):
    """The arguments of each dataset._parse call so far: the csv path's reads."""
    calls = []
    real = dataset._parse
    monkeypatch.setattr(dataset, "_parse", lambda *a: calls.append(a) or real(*a))
    return calls


def read_counting(path, schema, column_names, parse_calls):
    """read_dataset's outcome, and whether it read the file with the csv module."""
    before = len(parse_calls)
    result = outcome(read_dataset, path, schema, column_names)
    return result, len(parse_calls) > before


PLAIN_NUMBERS = ["-0", "007", " 7 ", "2.5", "1e3", "+5", "1_000", "123456789012345",
                 "9007199254740993", "-15", "0", "42", "-3.75", "1e-300", ".5", "5.", "1E+05",
                 "-.5e-3", "4.9e-324", "0.1000000000000000055511151231257827"]
PLAIN_CELLS = st.sampled_from(PLAIN_NUMBERS * 4 + ["inf", "nan", "k ", "?", ""])
PLAIN_CATEGORIES = st.sampled_from(["k", "k ", " k", "-0", "category", "category_a", "category_b",
                                    "categorya", "a much longer category", "x y", "?", ""])
# Label and protected values over 8 bytes, two of each sharing their first 8.
PLAIN_GROUPS = ["Male", "Female", " Female", "?", "Female_partner", "Female_parent"]
PLAIN_LABELS = ["yes", "no", "no ", "?", "yes_or_more", "yes_or_less"]


@st.composite
def plain_files(draw):
    """Mostly plain CSV texts: padded, missing and non-numeric cells, label
    and protected values longer than 8 bytes, blank and space-only lines, a
    header row or column names, a last line with or without its newline;
    and a schema over the columns v, w, c, sex, income whose positive values
    are in the file, sometimes longer than 8 bytes."""
    positives = draw(st.sampled_from(["Male", "Female_partner"])), \
        draw(st.sampled_from(["yes", "yes_or_more"]))
    rows = draw(st.lists(st.tuples(PLAIN_CELLS, PLAIN_CELLS, PLAIN_CATEGORIES,
                                   st.sampled_from(PLAIN_GROUPS + [positives[0]] * 2),
                                   st.sampled_from(PLAIN_LABELS + [positives[1]] * 2)),
                         min_size=1, max_size=14))
    rows[draw(st.integers(0, len(rows) - 1))] = ("1", "2", "k", *positives)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "   "])))
    names = ("v", "w", "c", "sex", "income")
    header = draw(st.booleans())
    if header:
        lines.insert(0, " , ".join(names))
    numeric = draw(st.sampled_from([(), ("v",), ("w", "v")]))
    categorical = draw(st.sampled_from([(), ("c",), ("c", "w")] if "w" not in numeric
                                       else [(), ("c",)]))
    schema = Schema(label="income", label_positive=positives[1], protected="sex",
                    protected_positive=positives[0], numeric=numeric, categorical=categorical,
                    include_protected_in_features=draw(st.booleans())
                    or not (numeric or categorical))
    return ("\n".join(lines) + draw(st.sampled_from(["", "\n"])), schema,
            None if header else names, draw(st.integers(1, 48)))


class TestTokenizersAgree:
    def test_plain_files(self, tmp_path_factory, monkeypatch, parse_calls):
        by_csv = []

        @given(plain_files())
        @settings(max_examples=200, deadline=None)
        def agree(case):
            text, schema, column_names, chunk = case
            monkeypatch.setattr(dataset, "_CHUNK_BYTES", chunk)  # rows cross chunk edges
            path = tmp_path_factory.mktemp("csv") / "t.csv"
            path.write_bytes(text.encode())
            result, fell_back = read_counting(path, schema, column_names, parse_calls)
            assert result == outcome(csv_path, path, schema, column_names)
            by_csv.append(fell_back)

        agree()
        # Most examples are plain files that encode: about one in ten has a
        # non-finite or non-numeric cell, which sends it to the csv path.
        assert sum(by_csv) <= len(by_csv) / 4

    def test_chunk_with_no_kept_row(self, tmp_path, monkeypatch, parse_calls):
        # The middle chunk holds only dropped rows and blank lines, so it has
        # no numeric cell to parse; NumPy's loadtxt warns on a text with no
        # line (an error under this suite's filter).
        good = order_csv(n=6)
        dropped = "7,?,k1,Female,no\n\n?,16,k2,Male,yes\n   \n8,16,k2,Male,?\n"
        dropped += "\n" * (len(good) - len(dropped))
        text = good + dropped + order_csv(n=6).partition("\n")[2]
        # A chunk is _CHUNK_BYTES and the rest of the line they end in, so each
        # of the three parts is one chunk.
        monkeypatch.setattr(dataset, "_CHUNK_BYTES", len(good) - 1)
        path = write(tmp_path, "t.csv", text)
        result, fell_back = read_counting(path, ORDER_SCHEMA, None, parse_calls)
        assert not fell_back
        assert result == outcome(csv_path, path, ORDER_SCHEMA, None)
        assert read_dataset(path, ORDER_SCHEMA).n == 12

    def test_codes_across_chunks(self, tmp_path, parse_calls):
        # Codes are first-seen across the whole file: a short and a long
        # category first seen in a later chunk, a column whose every cell is
        # over 8 bytes and a long label value, several sharing their first 8.
        def row(i, late):
            c = ("k", "category_one", "k2", "category_two", *(("z", "category_late") * late))
            return (f"{i},{c[i % len(c)]},teamname_{i % 7},{('Male', 'Female')[i % 2]},"
                    f"{('income_at_most_50K', 'income_above_50K')[i % 3 == 0]}")

        lines = ["n,c,t,sex,income"]
        while len("\n".join(lines)) < 2 * dataset._CHUNK_BYTES:
            lines.append(row(len(lines), late=False))
        while len("\n".join(lines)) < 4 * dataset._CHUNK_BYTES:
            lines.append(row(len(lines), late=True))
        text = "\n".join(lines) + "\n"
        assert min(text.index(",z,"), text.index(",category_late,")) > 2 * dataset._CHUNK_BYTES
        path = write(tmp_path, "t.csv", text)
        schema = Schema(label="income", label_positive="income_above_50K", protected="sex",
                        protected_positive="Male", numeric=("n",), categorical=("t", "c"))

        ds = read_dataset(path, schema)
        assert not parse_calls
        ref = csv_path(path, schema)
        assert ds.feature_names == ref.feature_names
        assert {"c=z", "c=category_late", "t=teamname_6"} <= set(ds.feature_names)
        for a, b in ((ds.X, ref.X), (ds.y, ref.y), (ds.z, ref.z)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("text, cell", [
        pytest.param('a,b,c,sex,income\n"3",2,k,Male,yes\n', None, id="quote"),
        pytest.param("a,b,c,sex,income\r\n3,2,k,Male,yes\r\n", None, id="crlf"),
        pytest.param("a,b,c,sex,income\n3,\t2,k,Male,yes\n", None, id="tab"),
        pytest.param("a,b,c,sex,income\n3,2\x1c,k,Male,yes\n", None, id="x1c"),
        pytest.param("a,b,c,sex,income\n3,2,é,Male,yes\n", None, id="non-ascii"),
        pytest.param("a,b,c,sex,income\n| note\n3,2,k,Male,yes\n", None, id="comment"),
        pytest.param("a,b,c,sex,income\n3,2,k,Male\n", None, id="ragged"),
        pytest.param("a,b,c,sex,income\n3,2,{},Male,yes\n", "x" * 131_073, id="over-limit"),
        pytest.param("a,b,c,sex,income\n3,2,{},Male,yes\n", "x" * 131_072, id="at-limit"),
    ])
    def test_triggers_take_the_csv_path(self, tmp_path, parse_calls, text, cell):
        path = tmp_path / "t.csv"
        path.write_bytes(text.format(cell).encode())
        result, fell_back = read_counting(path, ORDER_SCHEMA, None, parse_calls)
        assert result == outcome(csv_path, path, ORDER_SCHEMA, None)
        assert fell_back == (cell != "x" * 131_072)

    @pytest.mark.parametrize("file", ["toy", "adult", "census"])
    def test_shaped_files_take_the_byte_path(self, tmp_path, parse_calls, file):
        # The set-up speed of the CLI rests on these shapes staying plain.
        if file == "toy":
            path, schema = FIXTURE_DIR / "toy.csv", BASIC_SCHEMAS_TOY
        else:
            raw, schema = (adult_shaped_table(n=BATCH_ROWS * 3 + 1) if file == "adult"
                           else census_shaped_table(n=BATCH_ROWS * 3 + 1))
            path = write(tmp_path, "t.csv", csv_text(raw))
        result, fell_back = read_counting(path, schema, None, parse_calls)
        assert not fell_back
        assert result == outcome(csv_path, path, schema, None)

    @pytest.mark.parametrize("column_names", [None, ["a", "b", "c", "sex", "income"]])
    def test_byte_order_mark_takes_the_byte_path(self, tmp_path, parse_calls, column_names):
        text = order_csv().encode()
        if column_names:
            text = text.partition(b"\n")[2]
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text)
        result, fell_back = read_counting(path, ORDER_SCHEMA, column_names, parse_calls)
        assert not fell_back
        assert result == outcome(csv_path, path, ORDER_SCHEMA, column_names)

    @pytest.mark.parametrize("label_positive, protected_positive", [
        ("yës", "Male"), ("yes", "Mâle"), ("maybe", "Male"), ("yes", "Male_and_more")])
    def test_unseen_positive_takes_the_csv_path(self, tmp_path, parse_calls,
                                                label_positive, protected_positive):
        # The byte path finds the positive value in no codebook, so the csv
        # path reads the file and raises its error.
        schema = dataclasses.replace(ORDER_SCHEMA, label_positive=label_positive,
                                     protected_positive=protected_positive)
        path = write(tmp_path, "t.csv", order_csv())
        result, fell_back = read_counting(path, schema, None, parse_calls)
        assert fell_back
        assert result == outcome(csv_path, path, schema, None)
        assert "never observed" in result[1]


class TestFetch:
    def registry_for(self, src: Path, sha256=None):
        return {
            "toy": (
                RemoteFile("toy.csv", src.as_uri(), size=src.stat().st_size,
                           sha256=sha256),
            )
        }

    def test_download_and_idempotence(self, tmp_path):
        src = FIXTURE_DIR / "toy.csv"
        cache = tmp_path / "cache"
        reg = self.registry_for(src)
        paths = fetch_dataset("toy", cache, registry=reg)
        assert paths["toy.csv"].read_text() == src.read_text()
        stamp = paths["toy.csv"].stat().st_mtime_ns
        again = fetch_dataset("toy", cache, registry=reg)
        assert again["toy.csv"].stat().st_mtime_ns == stamp  # no re-download

    def test_checksum_pinned_then_verified(self, tmp_path):
        src = FIXTURE_DIR / "toy.csv"
        cache = tmp_path / "cache"
        reg = self.registry_for(src)
        fetch_dataset("toy", cache, registry=reg)
        pins = json.loads((cache / "checksums.json").read_text())
        expected = hashlib.sha256(src.read_bytes()).hexdigest()
        assert pins["toy.csv"] == expected
        # corrupt the cached copy: revalidation must fail naming both digests
        (cache / "toy.csv").write_text("tampered")
        with pytest.raises(FetchError, match=expected[:16]):
            fetch_dataset("toy", cache, registry=reg)

    def test_explicit_checksum_mismatch(self, tmp_path):
        src = FIXTURE_DIR / "toy.csv"
        reg = self.registry_for(src, sha256="0" * 64)
        with pytest.raises(FetchError, match="checksum mismatch"):
            fetch_dataset("toy", tmp_path / "cache", registry=reg)

    def test_unknown_dataset_lists_supported(self, tmp_path):
        with pytest.raises(FetchError, match="adult"):
            fetch_dataset("nope", tmp_path / "cache")


# --- Adult-specific goldens: run only when the files are present ------------

ADULT_CACHE = Path(os.environ.get("FAIRDP_CACHE", Path.home() / ".cache" / "fairdp"))

requires_adult = pytest.mark.skipif(
    not (ADULT_CACHE / "adult.data").exists(),
    reason="UCI Adult files not cached (run `fairdp fetch adult` on a networked machine)",
)


@requires_adult
class TestAdultGoldens:
    def test_drop_counts_match_published_values(self):
        # A row is dropped for a missing cell, so the drops are the data
        # lines (neither blank nor a "|" comment) less the kept rows.
        schema = Schema(label="income", label_positive=">50K", protected="sex",
                        protected_positive="Male", numeric=ADULT_NUMERIC,
                        categorical=tuple(ADULT_CATEGORICAL))
        lines = 0
        for name, positive, kept, dropped in (("adult.data", ">50K", 30162, 2399),
                                              ("adult.test", ">50K.", 15060, 1221)):
            path = ADULT_CACHE / name
            if not path.exists():  # adult.data always is
                continue
            ds = read_dataset(path, dataclasses.replace(schema, label_positive=positive),
                              column_names=ADULT_ORDER)
            data = sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                       if line.strip() and not line.lstrip().startswith("|"))
            assert (ds.n, data - ds.n) == (kept, dropped)
            lines += data
        if (ADULT_CACHE / "adult.test").exists():
            assert lines == 48842
