"""Degree-2 polynomial form of the logistic loss, optionally with a linear
decision-boundary fairness penalty folded in.

The logistic loss sum_i [log(1 + exp(x_i.w)) - y_i x_i.w] is replaced by its
second-order expansion around w = 0.  Using log(1+exp(0)) = log 2, first
derivative 1/2 and second derivative 1/4, the objective becomes the quadratic

    n log 2  +  sum_i (1/2 - y_i) x_i . w  +  (1/8) sum_i (x_i . w)^2

whose coefficients are plain sums over rows.  Degree-2 coefficients are kept
as the full ordered-pair d x d grid (cells (e, l) and (l, e) separately)
because the privacy machinery adds one noise draw per ordered cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import EncodedDataset


@dataclass(frozen=True)
class PolyObjective:
    """Quadratic c0 + c1.w + sum_{e,l} c2[e,l] w_e w_l over ordered pairs."""

    c0: float
    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        c1 = np.asarray(self.c1, dtype=float)
        c2 = np.asarray(self.c2, dtype=float)
        if c1.ndim != 1:
            raise ValueError("c1 must be a vector")
        if c2.shape != (c1.size, c1.size):
            raise ValueError(f"c2 must be {c1.size}x{c1.size}, got {c2.shape}")
        if not (math.isfinite(self.c0) and np.isfinite(c1).all() and np.isfinite(c2).all()):
            raise ValueError("polynomial coefficients must be finite")
        c1.setflags(write=False)
        c2.setflags(write=False)
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    @property
    def d(self) -> int:
        return self.c1.size


def lr_poly(ds: EncodedDataset) -> PolyObjective:
    """Quadratic expansion of the plain logistic loss on a dataset (from its
    cached sufficient statistics)."""
    return PolyObjective(c0=ds.n * math.log(2.0), c1=ds.logistic_c1, c2=ds.logistic_c2)


def check_alpha1(alpha1: float) -> None:
    """Raise ValueError unless the fairness weight alpha1 is finite."""
    if isinstance(alpha1, bool):  # it would be recorded as true or false
        raise ValueError(f"alpha1 must be a number, got {alpha1!r}")
    if not math.isfinite(alpha1):
        raise ValueError(f"alpha1 must be finite, got {alpha1}")


def fair_poly(ds: EncodedDataset, alpha1: float = 1.0) -> PolyObjective:
    """Logistic quadratic with the fairness penalty folded into the linear term.

    The fold is signed: c1 gains alpha1 * sum_i (z_i - z_bar) x_i.  This keeps
    the objective a pure quadratic, which coefficient perturbation requires.
    Orient the protected encoding (which group is z=1) so the clean boundary
    covariance is positive if the penalty is meant to shrink it.
    """
    check_alpha1(alpha1)
    base = lr_poly(ds)
    with np.errstate(over="ignore"):  # reported below instead
        c1 = base.c1 + alpha1 * ds.protected_cov
    if not np.isfinite(c1).all():
        raise ValueError(f"alpha1 {alpha1} overflows the fairness term's linear "
                         "coefficients")
    return PolyObjective(c0=base.c0, c1=c1, c2=base.c2)

