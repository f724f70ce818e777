"""Literal toy fixtures shared by tests and the golden regeneration script.

Everything here is spelled out as constants so goldens can be regenerated
bit-for-bit (see regen_goldens.py).
"""

import json
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

from fairdp import trainers
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


@contextmanager
def noise_free():
    """Within the block the private trainers add no noise: their ``perturb``
    is the identity, so they solve the clean objective."""
    with mock.patch.object(trainers, "perturb", lambda poly, *args: poly):
        yield


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
