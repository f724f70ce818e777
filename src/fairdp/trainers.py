"""The six training routines.

The four private trainers are one mechanism and share one path,
``_private_fit``: build the quadratic objective, perturb its coefficients
with noise calibrated to the closed-form fair sensitivity at one or two
scales, and release the minimizer of the perturbed quadratic
(``minimize_quadratic`` symmetrizes the ordered-pair grid):

  - FM:        plain quadratic + single-budget Laplace noise (eps-DP)
  - RelaxedFM: plain quadratic + single-budget Gaussian noise ((eps,delta)-DP)
  - PDFC:      fairness-penalized quadratic + attribute-wise Laplace budgets
  - ADFC:      fairness-penalized quadratic + attribute-wise Gaussian budgets

FM and RelaxedFM are the single-budget alpha1 = 0 case of PDFC and ADFC: the
fair sensitivity bounds at alpha1 = 0 equal the plain ones bit for bit.

Non-private baselines:

  - LR:     damped Newton on the exact logistic loss
  - FairLR: minimizer of the clean fairness-penalized quadratic (the
            no-noise limit every private trainer collapses to)

Every trainer is a pure function of (dataset, parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import EncodedDataset
from .mechanisms import (
    compose_split_delta,
    compose_split_epsilon,
    gaussian_sigma,
    l1_sensitivity_fair,
    l2_sensitivity_fair,
    perturb,
)
from .optimizer import RegularizationPolicy, minimize_logistic_exact, minimize_quadratic
from .polynomial import fair_poly, lr_poly

METHODS = ("LR", "FairLR", "FM", "RelaxedFM", "PDFC", "ADFC")
PRIVATE_METHODS = ("FM", "RelaxedFM", "PDFC", "ADFC")
DELTA_METHODS = ("RelaxedFM", "ADFC")  # read a delta: Gaussian noise
FAIR_METHODS = ("FairLR", "PDFC", "ADFC")  # read alpha1: fairness penalty
SPLIT_METHODS = ("PDFC", "ADFC")  # split the budget around w_s


@dataclass(frozen=True)
class BudgetInfo:
    """Composite budget plus the raw split parts it was composed from."""

    epsilon: float
    delta: float | None = None
    eps_s: float | None = None
    eps_n: float | None = None
    delta_s: float | None = None
    delta_n: float | None = None
    s_index: int | None = None


@dataclass(frozen=True)
class TrainedModel:
    w: np.ndarray
    method: str
    budgets: BudgetInfo | None
    sensitivity_used: float | None
    alpha1: float
    seed: int | None
    diagnostics: dict

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if (self.budgets is not None) != (self.method in PRIVATE_METHODS):
            raise ValueError("budgets must be present exactly for private methods")
        w = np.asarray(self.w, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def d(self) -> int:
        return self.w.size

    def to_dict(self) -> dict:
        """JSON layout written by the CLI: weights, method, budgets, seed,
        sensitivity, alpha1 and optimizer diagnostics."""
        return {**asdict(self), "w": self.w.tolist()}


def _private_fit(
    ds: EncodedDataset,
    method: str,
    eps_s: float,
    eps_n: float,
    delta_s: float | None,
    delta_n: float | None,
    s_index: int,
    alpha1: float,
    seed: int,
) -> TrainedModel:
    """The one perturb-and-solve path of the four private methods.

    Without deltas the noise is Laplace at the fair L1 bound over eps, with
    deltas Gaussian at the sigma calibrated for the fair L2 bound; monomials
    containing w_s get the (eps_s[, delta_s]) scale, the rest (eps_n[,
    delta_n]).  PDFC/ADFC perturb the fairness-penalized quadratic and record
    split budgets; FM/RelaxedFM are the single-budget alpha1 = 0 case on the
    plain quadratic, where the fair bounds equal the plain ones bit for bit.
    The bounds assume rows in the nonnegative unit ball; other data is
    rejected before any noise scale is computed.
    """
    split_budget = method in SPLIT_METHODS
    names = ("eps_s", "eps_n") if split_budget else ("epsilon", "epsilon")
    for name, eps in zip(names, (eps_s, eps_n)):
        if not 0.0 < eps < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {eps}")
    if not 0 <= s_index < ds.d:
        raise ValueError(f"s_index {s_index} out of range for d={ds.d}")
    ds.check_normalized()
    poly = fair_poly(ds, alpha1) if split_budget else lr_poly(ds)
    if delta_s is None:
        kind, sensitivity = "laplace", l1_sensitivity_fair(ds.d, alpha1)
        scale_s, scale_n = sensitivity / eps_s, sensitivity / eps_n
    else:
        kind, sensitivity = "gaussian", l2_sensitivity_fair(ds.d, alpha1)
        scale_s = gaussian_sigma(eps_s, delta_s, sensitivity)
        scale_n = gaussian_sigma(eps_n, delta_n, sensitivity)
    for name, eps, scale in zip(names, (eps_s, eps_n), (scale_s, scale_n)):
        if not math.isfinite(scale):
            raise ValueError(f"{name} {eps} is too small: its noise scale overflows to {scale}")
    poly = perturb(poly, kind, scale_s, scale_n, s_index, np.random.default_rng(seed))
    w, diag = minimize_quadratic(poly)
    if split_budget:
        budgets = BudgetInfo(
            epsilon=compose_split_epsilon(eps_s, eps_n, ds.d),
            delta=None if delta_s is None else compose_split_delta(delta_s, delta_n),
            eps_s=eps_s, eps_n=eps_n, delta_s=delta_s, delta_n=delta_n, s_index=s_index,
        )
    else:
        budgets = BudgetInfo(epsilon=eps_s, delta=delta_s)
    return TrainedModel(
        w=w,
        method=method,
        budgets=budgets,
        sensitivity_used=sensitivity,
        alpha1=alpha1,
        seed=seed,
        diagnostics=asdict(diag),
    )


def train_fm(ds: EncodedDataset, epsilon: float, seed: int) -> TrainedModel:
    """Functional mechanism: Laplace noise Lap(Delta1/eps) on every coefficient."""
    return _private_fit(ds, "FM", epsilon, epsilon, None, None, 0, 0.0, seed)


def train_relaxed_fm(
    ds: EncodedDataset, epsilon: float, delta: float, seed: int
) -> TrainedModel:
    """Relaxed functional mechanism: Gaussian noise sized by the L2 sensitivity."""
    return _private_fit(ds, "RelaxedFM", epsilon, epsilon, delta, delta, 0, 0.0, seed)


def train_pdfc(
    ds: EncodedDataset,
    eps_s: float,
    eps_n: float,
    s_index: int,
    alpha1: float = 1.0,
    seed: int = 0,
) -> TrainedModel:
    """Purely DP and fair training: fairness-penalized quadratic, Laplace noise
    Lap(Delta1/eps_s) on monomials containing w_s and Lap(Delta1/eps_n) elsewhere
    (Delta1: the fair L1 sensitivity at alpha1)."""
    return _private_fit(ds, "PDFC", eps_s, eps_n, None, None, s_index, alpha1, seed)


def train_adfc(
    ds: EncodedDataset,
    eps_s: float,
    eps_n: float,
    delta_s: float,
    delta_n: float,
    s_index: int,
    alpha1: float = 1.0,
    seed: int = 0,
) -> TrainedModel:
    """Approximately DP and fair training: Gaussian noise with per-group sigmas
    calibrated from (eps_s, delta_s) and (eps_n, delta_n) at the fair L2
    sensitivity for this alpha1."""
    return _private_fit(ds, "ADFC", eps_s, eps_n, delta_s, delta_n, s_index, alpha1, seed)


def train_lr(
    ds: EncodedDataset, policy: RegularizationPolicy | None = None
) -> TrainedModel:
    """Non-private baseline: exact logistic loss, no fairness penalty."""
    w, diag = minimize_logistic_exact(ds, policy)
    return TrainedModel(
        w=w,
        method="LR",
        budgets=None,
        sensitivity_used=None,
        alpha1=0.0,
        seed=None,
        diagnostics=asdict(diag),
    )


def train_fair_lr(ds: EncodedDataset, alpha1: float = 1.0) -> TrainedModel:
    """No-noise limit of the fair trainers: minimize the clean penalized quadratic."""
    w, diag = minimize_quadratic(fair_poly(ds, alpha1))
    return TrainedModel(
        w=w,
        method="FairLR",
        budgets=None,
        sensitivity_used=None,
        alpha1=alpha1,
        seed=None,
        diagnostics=asdict(diag),
    )
