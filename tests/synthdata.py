"""Deterministic synthetic census-like data for in-sandbox trend tests.

Shaped like the regime where coefficient-perturbation effects are visible:
large n, small d, indicator-style features.  The protected attribute z lifts
three reward indicators, and the label depends on those indicators plus an
independent skill feature, so an unconstrained model favors the z=1 group.
z=1 is the advantaged group: the signed fairness fold reduces boundary
covariance only with that orientation.  The z-effect strengths are tuned so
the alpha1=1 fold cancels most of the covariance instead of overshooting.
"""

import math

import numpy as np
from scipy.special import expit

from fairdp.dataset import EncodedDataset


def make_adult_like(n: int, seed: int) -> EncodedDataset:
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.45).astype(np.int64)

    degree = (rng.random(n) < 0.25 + 0.50 * z).astype(float)
    fulltime = (rng.random(n) < 0.35 + 0.40 * z).astype(float)
    senior = (rng.random(n) < 0.30 + 0.35 * z).astype(float)
    skill = rng.random(n)
    union = (rng.random(n) < 0.3).astype(float)
    urban = (rng.random(n) < 0.6).astype(float)
    tenure = rng.random(n)

    score = 1.8 * (2.2 * degree + 1.6 * fulltime + 1.2 * senior + 2.6 * skill - 3.6)
    y = (rng.random(n) < expit(score)).astype(np.int64)

    X_raw = np.column_stack([degree, fulltime, senior, skill, union, urban, tenure])
    names = ("degree", "fulltime", "senior", "skill", "union", "urban", "tenure")
    lo = X_raw.min(axis=0)  # per-column min-max, then / sqrt(d), as read_dataset scales
    X = (X_raw - lo) / (X_raw.max(axis=0) - lo) / math.sqrt(X_raw.shape[1])
    return EncodedDataset(X=X, y=y, z=z, feature_names=names)
