"""The six training routines.

Private trainers build the quadratic objective, perturb its coefficients with
noise calibrated to the closed-form sensitivity, and release the minimizer of
the perturbed quadratic:

  - FM:        plain quadratic + single-budget Laplace noise (eps-DP)
  - RelaxedFM: plain quadratic + single-budget Gaussian noise ((eps,delta)-DP)
  - PDFC:      fairness-penalized quadratic + attribute-wise Laplace budgets
  - ADFC:      fairness-penalized quadratic + attribute-wise Gaussian budgets

Non-private baselines:

  - LR:     gradient descent on the exact logistic loss
  - FairLR: minimizer of the clean fairness-penalized quadratic (the
            no-noise limit every private trainer collapses to)

Every trainer is a pure function of (dataset, parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EncodedDataset
from .mechanisms import (
    NoiseDistribution,
    compose_split_delta,
    compose_split_epsilon,
    gaussian_sigma,
    l1_sensitivity_fair,
    l1_sensitivity_lr,
    l2_sensitivity_fair,
    l2_sensitivity_lr,
    perturb,
)
from .optimizer import (
    RegularizationPolicy,
    canonicalize,
    minimize_logistic_exact,
    minimize_quadratic,
)
from .polynomial import fair_poly, lr_poly

METHODS = ("LR", "FairLR", "FM", "RelaxedFM", "PDFC", "ADFC")
PRIVATE_METHODS = ("FM", "RelaxedFM", "PDFC", "ADFC")


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

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "eps_s": self.eps_s,
            "eps_n": self.eps_n,
            "delta_s": self.delta_s,
            "delta_n": self.delta_n,
            "s_index": self.s_index,
        }


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
        return {
            "w": self.w.tolist(),
            "method": self.method,
            "budgets": None if self.budgets is None else self.budgets.to_dict(),
            "sensitivity_used": self.sensitivity_used,
            "alpha1": self.alpha1,
            "seed": self.seed,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainedModel":
        budgets = data.get("budgets")
        return cls(
            w=np.array(data["w"], dtype=float),
            method=data["method"],
            budgets=None if budgets is None else BudgetInfo(**budgets),
            sensitivity_used=data.get("sensitivity_used"),
            alpha1=data.get("alpha1", 0.0),
            seed=data.get("seed"),
            diagnostics=data.get("diagnostics", {}),
        )


def _solve(poly, policy):
    w, diag = minimize_quadratic(canonicalize(poly), policy)
    return w, diag.to_dict()


def _perturbed_solve(poly, noise_s, noise_n, s_index, seed, policy, disable_noise):
    if disable_noise:
        return _solve(poly, policy)
    noisy = perturb(poly, noise_s, noise_n, s_index, np.random.default_rng(seed))
    return _solve(noisy, policy)


def train_fm(
    ds: EncodedDataset,
    epsilon: float,
    seed: int,
    policy: RegularizationPolicy | None = None,
    disable_noise: bool = False,
) -> TrainedModel:
    """Functional mechanism: Laplace noise Lap(Delta1/eps) on every coefficient."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    delta1 = l1_sensitivity_lr(ds.d)
    noise = NoiseDistribution("laplace", delta1 / epsilon)
    w, diag = _perturbed_solve(lr_poly(ds), noise, noise, 0, seed, policy, disable_noise)
    return TrainedModel(
        w=w,
        method="FM",
        budgets=BudgetInfo(epsilon=epsilon),
        sensitivity_used=delta1,
        alpha1=0.0,
        seed=seed,
        diagnostics=diag,
    )


def train_relaxed_fm(
    ds: EncodedDataset,
    epsilon: float,
    delta: float,
    seed: int,
    policy: RegularizationPolicy | None = None,
    disable_noise: bool = False,
) -> TrainedModel:
    """Relaxed functional mechanism: Gaussian noise sized by the L2 sensitivity."""
    delta2 = l2_sensitivity_lr(ds.d)
    noise = NoiseDistribution("gaussian", gaussian_sigma(epsilon, delta, delta2))
    w, diag = _perturbed_solve(lr_poly(ds), noise, noise, 0, seed, policy, disable_noise)
    return TrainedModel(
        w=w,
        method="RelaxedFM",
        budgets=BudgetInfo(epsilon=epsilon, delta=delta),
        sensitivity_used=delta2,
        alpha1=0.0,
        seed=seed,
        diagnostics=diag,
    )


def train_pdfc(
    ds: EncodedDataset,
    eps_s: float,
    eps_n: float,
    s_index: int,
    alpha1: float = 1.0,
    seed: int = 0,
    policy: RegularizationPolicy | None = None,
    disable_noise: bool = False,
) -> TrainedModel:
    """Purely DP and fair training: fairness-penalized quadratic, Laplace noise
    Lap(Delta1/eps_s) on monomials containing w_s and Lap(Delta1/eps_n) elsewhere
    (Delta1: the fair L1 sensitivity at alpha1)."""
    delta1 = l1_sensitivity_fair(ds.d, alpha1)
    noise_s = NoiseDistribution("laplace", delta1 / eps_s)
    noise_n = NoiseDistribution("laplace", delta1 / eps_n)
    poly = fair_poly(ds, alpha1)
    w, diag = _perturbed_solve(poly, noise_s, noise_n, s_index, seed, policy, disable_noise)
    return TrainedModel(
        w=w,
        method="PDFC",
        budgets=BudgetInfo(
            epsilon=compose_split_epsilon(eps_s, eps_n, ds.d),
            eps_s=eps_s,
            eps_n=eps_n,
            s_index=s_index,
        ),
        sensitivity_used=delta1,
        alpha1=alpha1,
        seed=seed,
        diagnostics=diag,
    )


def train_adfc(
    ds: EncodedDataset,
    eps_s: float,
    eps_n: float,
    delta_s: float,
    delta_n: float,
    s_index: int,
    alpha1: float = 1.0,
    seed: int = 0,
    policy: RegularizationPolicy | None = None,
    disable_noise: bool = False,
) -> TrainedModel:
    """Approximately DP and fair training: Gaussian noise with per-group sigmas
    calibrated from (eps_s, delta_s) and (eps_n, delta_n) at the fair L2
    sensitivity for this alpha1."""
    delta2 = l2_sensitivity_fair(ds.d, alpha1)
    noise_s = NoiseDistribution("gaussian", gaussian_sigma(eps_s, delta_s, delta2))
    noise_n = NoiseDistribution("gaussian", gaussian_sigma(eps_n, delta_n, delta2))
    poly = fair_poly(ds, alpha1)
    w, diag = _perturbed_solve(poly, noise_s, noise_n, s_index, seed, policy, disable_noise)
    return TrainedModel(
        w=w,
        method="ADFC",
        budgets=BudgetInfo(
            epsilon=compose_split_epsilon(eps_s, eps_n, ds.d),
            delta=compose_split_delta(delta_s, delta_n),
            eps_s=eps_s,
            eps_n=eps_n,
            delta_s=delta_s,
            delta_n=delta_n,
            s_index=s_index,
        ),
        sensitivity_used=delta2,
        alpha1=alpha1,
        seed=seed,
        diagnostics=diag,
    )


def train_lr(
    ds: EncodedDataset, policy: RegularizationPolicy | None = None
) -> TrainedModel:
    """Non-private baseline: exact logistic loss, no fairness penalty."""
    w, diag = minimize_logistic_exact(ds, alpha1=0.0, policy=policy)
    return TrainedModel(
        w=w,
        method="LR",
        budgets=None,
        sensitivity_used=None,
        alpha1=0.0,
        seed=None,
        diagnostics=diag.to_dict(),
    )


def train_fair_lr(
    ds: EncodedDataset, alpha1: float = 1.0, policy: RegularizationPolicy | None = None
) -> TrainedModel:
    """No-noise limit of the fair trainers: minimize the clean penalized quadratic."""
    w, diag = _solve(fair_poly(ds, alpha1), policy)
    return TrainedModel(
        w=w,
        method="FairLR",
        budgets=None,
        sensitivity_used=None,
        alpha1=alpha1,
        seed=None,
        diagnostics=diag,
    )
