import dataclasses
import hashlib
import json
import math
import os
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
    SUM_BLOCK,
    EncodedDataset,
    FetchError,
    ParseError,
    RawTable,
    RemoteFile,
    Schema,
    build_dataset,
    fetch_dataset,
    load_csv,
    read_dataset,
    split,
)

from toys import FIXTURE_DIR, reference_encode

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
    def test_three_line_file(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b\n1,2\n3,4\n")
        table = load_csv(path)
        assert table.column_names == ("a", "b")
        assert table.n_rows == 2
        assert table.n_dropped == 0

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b\n1,2\n3,4\n5,6\n7,8,9\n")
        with pytest.raises(ParseError, match="line 5"):
            load_csv(path)

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b\n1,2\n?,4\n5,\n6,7\n")
        table = load_csv(path)
        assert table.n_rows == 2
        assert table.n_dropped == 2

    def test_cells_trimmed(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b\n 1 ,  x y \n")
        assert load_csv(path).rows[0] == ("1", "x y")

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "t.csv", "|banner line\na,b\n\n1,2\n")
        table = load_csv(path)
        assert table.column_names == ("a", "b")
        assert table.n_rows == 1

    def test_no_header_generates_names(self, tmp_path):
        # Given column names, the first row is data, not a header.
        path = write(tmp_path, "t.csv", "1,2,3\n4,5,6\n")
        table = load_csv(path, column_names=["a", "b", "c"])
        assert table.column_names == ("a", "b", "c")
        assert table.n_rows == 2

    def test_column_names_count_mismatch_names_line(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,3\n4,5,6\n")
        with pytest.raises(ParseError, match=r"^t.csv: line 1 has 3 cells, expected 4$"):
            load_csv(path, column_names=["a", "b", "c", "d"])

    @pytest.mark.parametrize("text, names", [
        ("a,b,a\n1,2,3\n", None),
        ("1,2,3\n", ["a", "b", "a"]),
    ])
    def test_repeated_column_name(self, tmp_path, text, names):
        # A header or column list that repeats a name used to be read as if
        # only its first column existed.
        path = write(tmp_path, "t.csv", text)
        with pytest.raises(ParseError, match=r"^t.csv: column name 'a' is repeated$"):
            load_csv(path, column_names=names)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(ParseError, match=r"^t.csv: not UTF-8 text \(invalid start byte\)$"):
            load_csv(path)

    def test_empty_file_with_column_names(self, tmp_path):
        with pytest.raises(ParseError, match="file is empty"):
            load_csv(write(tmp_path, "t.csv", "\n"), column_names=["a"])

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "t.csv", ""))


class TestEncode:
    def make_raw(self):
        return RawTable(
            column_names=("age", "dept", "sex", "income"),
            rows=(
                ("30", "eng", "Male", "yes"),
                ("40", "ops", "Female", "no"),
                ("50", "hr", "Female", "yes"),
                ("35", "eng", "Male", "no"),
            ),
        )

    def test_protected_mapping(self):
        ds = build_dataset(self.make_raw(), BASIC_SCHEMA)
        np.testing.assert_array_equal(ds.z, [1, 0, 0, 1])
        np.testing.assert_array_equal(ds.y, [1, 0, 1, 0])

    def test_one_hot_columns_sum_to_one(self):
        ds = build_dataset(self.make_raw(), BASIC_SCHEMA)
        onehot = ds.X[:, 1:] * 2.0  # age is first; entries are 1/sqrt(4) or 0
        assert onehot.shape == (4, 3)
        np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(4))
        # first-seen category order
        assert ds.feature_names == ("age", "dept=eng", "dept=ops", "dept=hr")

    def test_protected_excluded_by_default(self):
        ds = build_dataset(self.make_raw(), BASIC_SCHEMA)
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
        ds = build_dataset(self.make_raw(), schema)
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
            build_dataset(self.make_raw(), schema)

    def test_missing_column_errors(self):
        schema = Schema(
            label="income",
            label_positive="yes",
            protected="sex",
            protected_positive="Male",
            numeric=("salary",),
        )
        with pytest.raises(ValueError, match="salary"):
            build_dataset(self.make_raw(), schema)

    def test_non_numeric_cell_errors(self):
        raw = RawTable(
            column_names=("age", "sex", "income"),
            rows=(("abc", "Male", "yes"), ("30", "Female", "no")),
        )
        schema = Schema(
            label="income",
            label_positive="yes",
            protected="sex",
            protected_positive="Male",
            numeric=("age",),
        )
        with pytest.raises(ParseError, match="age"):
            build_dataset(raw, schema)

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
        ds = build_dataset(self.make_raw(), flag_only)
        assert ds.feature_names == ("sex",)
        np.testing.assert_array_equal(ds.X[:, 0], ds.z)


def normalize(X):
    """build_dataset's X for a table whose feature columns are the columns of
    X, written as the shortest text that parses back to each value."""
    n, d = X.shape
    names = tuple(f"c{j}" for j in range(d))
    groups = ["Male"] + ["Female"] * (n - 1)
    raw = RawTable(column_names=(*names, "sex", "income"),
                   rows=tuple((*map(repr, map(float, row)), g, "yes")
                              for row, g in zip(X, groups)))
    schema = Schema(label="income", label_positive="yes",
                    protected="sex", protected_positive="Male", numeric=names)
    return build_dataset(raw, schema).X


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
        raw = load_csv(FIXTURE_DIR / "toy.csv")
        schema = BASIC_SCHEMAS_TOY
        ds = build_dataset(raw, schema)
        ds.check_normalized()

    @pytest.mark.parametrize("include", [False, True])
    def test_scaling_matches_direct_formula(self, include):
        # Bit-exact: per-column min-max of the encoded matrix (the protected
        # 0/1 column included), then one division by sqrt(columns).
        raw = load_csv(FIXTURE_DIR / "toy.csv")
        schema = dataclasses.replace(BASIC_SCHEMAS_TOY, include_protected_in_features=include)
        expected = scaled(reference_encode(raw, schema).X)
        np.testing.assert_array_equal(build_dataset(raw, schema).X, expected)


BASIC_SCHEMAS_TOY = Schema(
    label="income",
    label_positive="yes",
    protected="sex",
    protected_positive="Male",
    numeric=("age", "hours"),
    categorical=("dept",),
)


class TestGoldenPipeline:
    def test_encode_load_byte_stable(self):
        # Golden: fingerprint of build_dataset(load(fixture)) frozen at build time.
        raw = load_csv(FIXTURE_DIR / "toy.csv")
        assert raw.n_dropped == 1
        ds = build_dataset(raw, BASIC_SCHEMAS_TOY)
        assert ds.fingerprint() == (
            "4bae6472e0a916754d42b782e0d026f212e3d6c05fd2fcca4284c317c5d0f439"
        )

    def test_fingerprint_hashed_once(self, monkeypatch):
        ds = build_dataset(load_csv(FIXTURE_DIR / "toy.csv"), BASIC_SCHEMAS_TOY)
        first = ds.fingerprint()
        monkeypatch.setattr(hashlib, "sha256", None)  # a second hash would fail
        assert ds.fingerprint() == first


# --- encoder oracle -----------------------------------------------------------
# reference_encode (in toys.py) transcribes the per-category encoder that the
# array encoder replaced; reference_build scales its output with a masked
# min-max and one division by sqrt(d).  Every bit of build_dataset must match.

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


def reference_build(raw, schema):
    ds = reference_encode(raw, schema)
    return EncodedDataset(X=scaled(ds.X), y=ds.y, z=ds.z, feature_names=ds.feature_names)


def assert_matches_reference(raw, schema):
    ds, ref = build_dataset(raw, schema), reference_build(raw, schema)
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
    raw = RawTable(column_names=tuple(order),
                   rows=tuple(zip(*(cols[c] for c in order))))
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
    raw = RawTable(column_names=ADULT_ORDER,
                   rows=tuple(zip(*(cols[c] for c in ADULT_ORDER))))
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
    X, names = [], []
    for name in schema.categorical:
        idx = raw.column_names.index(name)
        values = np.array([row[idx] for row in raw.rows])
        cats, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(first))
        block = np.zeros((raw.n_rows, len(cats)))
        block[np.arange(raw.n_rows), rank[inverse]] = 1.0
        X.append(block)
        names += [f"{name}={c}" for c in cats[np.argsort(first)]]
    ds = reference_encode(raw, schema)
    return EncodedDataset(X=np.column_stack(X), y=ds.y, z=ds.z, feature_names=tuple(names))


class TestEncoderOracle:
    @given(tables())
    @settings(max_examples=100, deadline=None)
    def test_generated_tables(self, case):
        assert_matches_reference(*case)

    def test_adult_shaped_table(self):
        raw, schema = adult_shaped_table()
        assert build_dataset(raw, schema).d == 102
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("include", [False, True])
    @pytest.mark.parametrize("numeric", [False, True])
    def test_toy_fixture(self, include, numeric):
        schema = dataclasses.replace(BASIC_SCHEMAS_TOY, include_protected_in_features=include,
                                     numeric=BASIC_SCHEMAS_TOY.numeric if numeric else ())
        assert_matches_reference(load_csv(FIXTURE_DIR / "toy.csv"), schema)

    def test_trailing_nul_is_its_own_category(self):
        raw = RawTable(column_names=("dept", "sex", "income"),
                       rows=(("x", "Male", "yes"), ("x\x00", "Female", "no"),
                             ("x", "Female", "no")))
        schema = Schema(label="income", label_positive="yes",
                        protected="sex", protected_positive="Male",
                        categorical=("dept",))
        ds = build_dataset(raw, schema)
        assert ds.feature_names == ("dept=x", "dept=x\x00")
        np.testing.assert_array_equal(ds.X, np.array([[1, 0], [0, 1], [1, 0]]) / math.sqrt(2))
        assert_matches_reference(raw, schema)
        # A NumPy string array strips the NUL and merges the two categories.
        assert unique_encode(raw, schema).fingerprint() != \
            reference_encode(raw, schema).fingerprint()

    @pytest.mark.parametrize("cells", [("0", "-0"), ("-0", "0"), ("0", "-0", "0")])
    def test_zero_signs_in_constant_column(self, cells):
        # x - min is -0.0 for some orders; constant columns must read +0.0.
        groups = [("Male", "yes")] + [("Female", "no")] * (len(cells) - 1)
        raw = RawTable(column_names=("v", "sex", "income"),
                       rows=tuple((c, *g) for c, g in zip(cells, groups)))
        schema = Schema(label="income", label_positive="yes",
                        protected="sex", protected_positive="Male",
                        numeric=("v",))
        X = build_dataset(raw, schema).X
        assert not np.signbit(X).any()
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_numeric_cell_rejected(self, cell):
        raw = RawTable(column_names=("age", "sex", "income"),
                       rows=((cell, "Male", "yes"), ("30", "Female", "no")))
        schema = Schema(label="income", label_positive="yes",
                        protected="sex", protected_positive="Male",
                        numeric=("age",))
        with pytest.raises(ValueError, match="X contains non-finite entries"):
            build_dataset(raw, schema)


def table(columns, **schema):
    """A RawTable of the given columns (name -> cells), with a label column
    "income" (yes, no, yes, ...) and a protected column "sex" (Male, then
    Female) unless they are given, and a Schema with these feature columns."""
    n = len(next(iter(columns.values())))
    cols = {"sex": ["Male"] + ["Female"] * (n - 1),
            "income": ["yes", "no"] * (n // 2) + ["yes"] * (n % 2), **columns}
    raw = RawTable(column_names=tuple(cols), rows=tuple(zip(*cols.values())))
    return raw, Schema(label="income", label_positive="yes",
                       protected="sex", protected_positive="Male", **schema)


class TestBuildDatasetEdges:
    """build_dataset against the encode-then-scale oracle, byte for byte."""

    def test_one_category_column_is_exact_zeros(self):
        raw, schema = table({"one": ["x"] * 4, "two": ["a", "b", "a", "b"]},
                            categorical=("one", "two"))
        X = build_dataset(raw, schema).X
        assert X[:, 0].tobytes() == np.zeros(4).tobytes()
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("sex", [["Male"] * 4, ["Male", "Female", "Male", "Female"]])
    def test_protected_feature(self, sex):
        raw, schema = table({"age": ["30", "40", "50", "60"], "sex": sex}, numeric=("age",),
                            include_protected_in_features=True)
        ds = build_dataset(raw, schema)
        expected = ds.z / math.sqrt(2) if 0 < ds.z_bar < 1 else np.zeros(4)
        assert ds.X[:, 1].tobytes() == expected.tobytes()
        assert_matches_reference(raw, schema)

    @pytest.mark.parametrize("cells", [("-0", "0", "1"), ("0", "-0", "1"), ("1", "-0", "0"),
                                       ("-0", "1", "0"), ("-0", "-0", "2"), ("0", "-0", "0")])
    def test_zero_signs_mixed(self, cells):
        # A "-0" cell at a zero minimum reads as +0.0, as "0" would.
        raw, schema = table({"v": list(cells), "w": ["5", "-0", "0"]}, numeric=("v", "w"))
        X = build_dataset(raw, schema).X
        assert not np.signbit(X).any()
        plain, _ = table({"v": [c.lstrip("-") for c in cells], "w": ["5", "0", "0"]},
                         numeric=("v", "w"))
        assert X.tobytes() == build_dataset(plain, schema).X.tobytes()
        assert_matches_reference(raw, schema)

    def test_column_order(self):
        # Numeric, then categorical, then protected, whatever the file order.
        raw, schema = table({"d": ["p", "q", "p"], "a": ["1", "2", "4"], "c": ["u", "u", "v"],
                             "b": ["3", "1", "2"]},
                            numeric=("b", "a"), categorical=("d", "c"),
                            include_protected_in_features=True)
        ds = build_dataset(raw, schema)
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
            build_dataset(raw, schema)
        assert type(exc.value) is error and str(exc.value) == message

    def test_bad_cell_reported_before_non_finite_one(self):
        # Every numeric column is parsed before any is checked for finiteness.
        raw, schema = table({"a": ["inf", "1"], "b": ["2", "abc"]}, numeric=("a", "b"))
        with pytest.raises(ParseError, match="column 'b'"):
            build_dataset(raw, schema)


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


def blocked_sizes():
    return [1, 100, SUM_BLOCK, SUM_BLOCK + 1, 3 * SUM_BLOCK + 17]


class TestLinearStatistics:
    """logistic_c1 and protected_cov sum w_i x_i a block of rows at a time,
    bit for bit as the one-shot (w[:, None] * X).sum(axis=0)."""

    @staticmethod
    def one_hot_rows(gen, n, d):
        X = np.zeros((n, d))
        X[np.arange(n), gen.integers(0, d, size=n)] = 1.0 / math.sqrt(d)
        return X

    @pytest.mark.parametrize("n", blocked_sizes())
    @pytest.mark.parametrize("kind", ["dense", "one-hot"])
    def test_matches_one_shot_sum(self, n, kind):
        from conftest import random_unit_rows
        gen = np.random.default_rng(n)
        d = 7
        X = random_unit_rows(gen, n, d) if kind == "dense" else self.one_hot_rows(gen, n, d)
        ds = EncodedDataset(X=X, y=gen.integers(0, 2, size=n), z=gen.integers(0, 2, size=n),
                            feature_names=tuple("abcdefg"))
        for got, w in ((ds.logistic_c1, 0.5 - ds.y), (ds.protected_cov, ds.z - ds.z_bar)):
            assert got.tobytes() == (w[:, None] * ds.X).sum(axis=0).tobytes()

    @pytest.mark.parametrize("shape, order", [((SUM_BLOCK + 5, 1), "C"),
                                              ((2 * SUM_BLOCK + 5, 3), "F")])
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
    raw = RawTable(column_names=tuple(cols), rows=tuple(zip(*cols.values())))
    return raw, Schema(label="y", label_positive="1", protected="group",
                       protected_positive="1", numeric=tuple(cols)[:7])


def csv_text(raw):
    """The text of a CSV file with a header row that load_csv reads back as raw."""
    return "".join(",".join(row) + "\n" for row in (raw.column_names, *raw.rows))


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
    def test_build_dataset_allocates_x_once(self, shape):
        raw, schema = (adult_shaped_table(n=32_561) if shape == "adult"
                       else census_shaped_table(n=32_561))
        peak, ds = traced_peak(lambda: build_dataset(raw, schema))
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
        train, _ = split(build_dataset(*adult_shaped_table(n=32_561)), 0.2, seed=0)
        peak, _ = traced_peak(lambda: (train.logistic_c1, train.protected_cov))
        assert peak < train.X.nbytes / 4


# --- the two set-up paths -----------------------------------------------------
# build_dataset(load_csv(...)) encodes a finished table; read_dataset encodes
# each batch of rows as it is parsed.  Both give the same dataset, and the
# same first error when an input has several faults.

def via_table(path, schema, column_names=None):
    return build_dataset(load_csv(path, column_names), schema)


SETUP_PATHS = [pytest.param(via_table, id="load_csv+build_dataset"),
               pytest.param(read_dataset, id="read_dataset")]

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

    @pytest.mark.parametrize("load", SETUP_PATHS)
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


class TestSetupPathsAgree:
    @given(csv_files())
    @settings(max_examples=200, deadline=None)
    def test_generated_files(self, tmp_path_factory, case):
        text, schema, column_names = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert outcome(read_dataset, path, schema, column_names) == \
            outcome(via_table, path, schema, column_names)

    @pytest.mark.parametrize("include", [False, True])
    def test_toy_fixture(self, include):
        schema = dataclasses.replace(BASIC_SCHEMAS_TOY, include_protected_in_features=include)
        path = FIXTURE_DIR / "toy.csv"
        assert read_dataset(path, schema).fingerprint() == via_table(path, schema).fingerprint()

    @pytest.mark.parametrize("shape", ["adult", "census"])
    def test_shaped_tables(self, tmp_path, shape):
        raw, schema = (adult_shaped_table(n=BATCH_ROWS * 3 + 1) if shape == "adult"
                       else census_shaped_table(n=BATCH_ROWS * 3 + 1, seed=3))
        path = write(tmp_path, "t.csv", csv_text(raw))
        ds = read_dataset(path, schema)
        assert ds.fingerprint() == build_dataset(raw, schema).fingerprint()
        assert ds.fingerprint() == via_table(path, schema).fingerprint()

    @pytest.mark.parametrize("n", [1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1])
    def test_batch_edges(self, tmp_path, n):
        path = write(tmp_path, "t.csv", order_csv(n=n))
        schema = dataclasses.replace(ORDER_SCHEMA, include_protected_in_features=True)
        ds = read_dataset(path, schema)
        assert ds.n == n
        assert ds.fingerprint() == via_table(path, schema).fingerprint()


# --- read_dataset's two tokenizers --------------------------------------------
# read_dataset tokenizes a plain file with NumPy byte operations and reads any
# other file, or a plain one whose encoding fails, with the csv module
# (dataset._parse).  Either way its outcome is load_csv + build_dataset's.

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
                 "9007199254740993", "-15", "0", "42", "-3.75", "1e-300"]
PLAIN_CELLS = st.sampled_from(PLAIN_NUMBERS * 4 + ["inf", "nan", "k ", "?", ""])
PLAIN_CATEGORIES = st.sampled_from(["k", "k ", " k", "-0", "category", "category_a", "category_b",
                                    "categorya", "a much longer category", "x y", "?", ""])


@st.composite
def plain_files(draw):
    """Mostly plain CSV texts: padded, missing and non-numeric cells, blank
    and space-only lines, a header row or column names, a last line with
    or without its newline; and a schema over the columns v, w, c, sex,
    income."""
    rows = draw(st.lists(st.tuples(PLAIN_CELLS, PLAIN_CELLS, PLAIN_CATEGORIES,
                                   st.sampled_from(["Male", "Female", " Female", "?"]),
                                   st.sampled_from(["yes", "no", "no ", "?"])),
                         min_size=1, max_size=14))
    rows[draw(st.integers(0, len(rows) - 1))] = ("1", "2", "k", "Male", "yes")
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
    schema = Schema(label="income", label_positive="yes", protected="sex",
                    protected_positive="Male", numeric=numeric, categorical=categorical,
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
            assert result == outcome(via_table, path, schema, column_names)
            by_csv.append(fell_back)

        agree()
        # Most examples are plain files that encode: about one in ten has a
        # non-finite or non-numeric cell, which sends it to the csv path.
        assert sum(by_csv) <= len(by_csv) / 4

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
        assert result == outcome(via_table, path, ORDER_SCHEMA, None)
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
        assert result == outcome(via_table, path, schema, None)


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
        train = load_csv(ADULT_CACHE / "adult.data", column_names=ADULT_ORDER)
        assert train.n_rows == 30162
        assert train.n_dropped == 2399
        test_path = ADULT_CACHE / "adult.test"
        if test_path.exists():
            test = load_csv(test_path, column_names=ADULT_ORDER)
            assert test.n_rows == 15060
            assert test.n_dropped == 1221
            assert train.n_rows + train.n_dropped + test.n_rows + test.n_dropped == 48842
