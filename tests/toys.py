"""Literal toy fixtures shared by tests and the golden regeneration script.

Everything here is spelled out as constants so goldens can be regenerated
bit-for-bit (see regen_goldens.py).
"""

import json
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from fairdp import dataset, trainers
from fairdp.dataset import EncodedDataset
from fairdp.polynomial import PolyObjective

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_DIR = Path(__file__).parent / "fixtures"
TOY_CSV = str(FIXTURE_DIR / "toy.csv")
TOY_SCHEMA = str(FIXTURE_DIR / "toy.schema")

# CLI runs (without --out) whose manifest.json is pinned as a golden.
MANIFEST_GOLDEN_RUNS = {
    "cli_train_manifest.json": [
        "train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA, "--method", "adfc",
        "--eps", "1", "--eps-s", "0.5", "--eps-n", "2",
        "--delta", "1e-3", "--delta-s", "1e-4", "--delta-n", "1e-4", "--seed", "3",
    ],
    "cli_sweep_manifest.json": [
        "sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA, "--methods", "lr,fm",
        "--eps", "0.1,1.0", "--runs", "2", "--seed", "5",
    ],
}


def manifest_for_golden(out_dir) -> str:
    """manifest.json text with the dataset path, which is absolute and so
    differs between checkouts, replaced by a placeholder."""
    text = (Path(out_dir) / "manifest.json").read_text()
    dataset = json.loads(text)["config"]["dataset"]
    return text.replace(json.dumps(dataset), json.dumps("<dataset>"))


def eval_poly(p: PolyObjective, w) -> float:
    """The quadratic's value c0 + c1.w + w.C2 w at w: an oracle for tests."""
    w = np.asarray(w, dtype=float)
    return float(p.c0 + p.c1 @ w + w @ p.c2 @ w)


def gradient_poly(p: PolyObjective, w) -> np.ndarray:
    """Gradient c1 + (C2 + C2^T) w; collapses to c1 + 2 C2 w when symmetric."""
    return p.c1 + (p.c2 + p.c2.T) @ np.asarray(w, dtype=float)


@contextmanager
def noise_free():
    """Within the block the private trainers add no noise: their ``perturb``
    is the identity, so they solve the clean objective."""
    with mock.patch.object(trainers, "perturb", lambda poly, *args: poly):
        yield


def parsed_table(path, column_names=None):
    """The column names and the kept rows of a CSV file, as tuples of text
    cells, by read_dataset's parse rules."""
    names, *rows = dataset._parse(Path(path), column_names)
    return names, rows


def reference_encode(column_names, rows, schema):
    """An unscaled EncodedDataset of a table of text cells with these column
    names, one pass over the rows per category: the encoder read_dataset's
    output is checked against, and a dataset outside the unit ball for the
    trainers' domain check."""
    def column(name):
        idx = column_names.index(name)
        return [row[idx] for row in rows]

    def indicator(values, positive):
        return np.fromiter((1 if v == positive else 0 for v in values), dtype=np.int64)

    y = indicator(column(schema.label), schema.label_positive)
    z = indicator(column(schema.protected), schema.protected_positive)
    columns, names = [], []
    for name in schema.numeric:
        columns.append(np.array([float(v) for v in column(name)], dtype=float))
        names.append(name)
    for name in schema.categorical:
        values = column(name)
        categories, seen = [], set()
        for v in values:
            if v not in seen:
                seen.add(v)
                categories.append(v)
        for cat in categories:
            columns.append(np.fromiter((1.0 if v == cat else 0.0 for v in values), dtype=float))
            names.append(f"{name}={cat}")
    if schema.include_protected_in_features:
        columns.append(z.astype(float))
        names.append(schema.protected)
    return EncodedDataset(X=np.column_stack(columns), y=y, z=z, feature_names=tuple(names))


def toy_d2():
    X = np.array(
        [[0.50, 0.20],
         [0.10, 0.70],
         [0.60, 0.10],
         [0.30, 0.30],
         [0.05, 0.45],
         [0.40, 0.55]]
    )
    y = [1, 0, 1, 0, 0, 1]
    z = [1, 0, 1, 1, 0, 0]
    return EncodedDataset(X=X, y=y, z=z, feature_names=("a", "b"))


def toy_d3():
    X = np.array(
        [[0.50, 0.20, 0.10],
         [0.10, 0.70, 0.05],
         [0.60, 0.10, 0.20],
         [0.30, 0.30, 0.30],
         [0.05, 0.45, 0.50],
         [0.40, 0.55, 0.15],
         [0.25, 0.05, 0.60],
         [0.15, 0.35, 0.25]]
    )
    y = [1, 0, 1, 0, 0, 1, 1, 0]
    z = [1, 0, 1, 1, 0, 0, 1, 0]
    return EncodedDataset(X=X, y=y, z=z, feature_names=("a", "b", "c"))


def perturb_golden_inputs():
    poly = PolyObjective(
        c0=2.0,
        c1=np.array([1.0, -2.0, 0.5]),
        c2=np.array([[0.25, 0.10, 0.00],
                     [0.10, 0.50, -0.20],
                     [0.00, -0.20, 0.75]]),
    )
    return poly, 1, 42  # s_index, seed
