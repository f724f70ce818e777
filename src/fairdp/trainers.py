"""The six training routines.

The four private trainers are one mechanism and share one path,
``_private_fit``: build the quadratic objective, perturb its coefficients
with noise at the one or two scales ``mechanisms.calibrate`` sets (the one
place where noise is calibrated to the closed-form fair sensitivity and the
recorded budget is set), and release the minimizer of the perturbed
quadratic (``minimize_quadratic`` symmetrizes the ordered-pair grid):

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
import numbers
import operator
from contextlib import suppress
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import EncodedDataset
from .mechanisms import calibrate, perturb
from .optimizer import RegularizationPolicy, minimize_logistic_exact, minimize_quadratic
from .polynomial import fair_poly, lr_poly

METHODS = ("LR", "FairLR", "FM", "RelaxedFM", "PDFC", "ADFC")
PRIVATE_METHODS = ("FM", "RelaxedFM", "PDFC", "ADFC")
DELTA_METHODS = ("RelaxedFM", "ADFC")  # read a delta: Gaussian noise
FAIR_METHODS = ("FairLR", "PDFC", "ADFC")  # read alpha1: fairness penalty
SPLIT_METHODS = ("PDFC", "ADFC")  # split the budget around w_s


@dataclass(frozen=True)
class BudgetInfo:
    """Recorded budget plus the raw split parts it was derived from."""

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


def _solve(poly, inputs: str) -> tuple[np.ndarray, dict]:
    """``minimize_quadratic(poly)``'s weights and diagnostics (as a dict).  A
    solve whose weights or residual overflow is a ValueError naming
    ``inputs``, the settings that made the coefficients that large."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        w, diag = minimize_quadratic(poly)
    if not (np.isfinite(w).all() and math.isfinite(diag.residual_inf)):
        raise ValueError(f"the quadratic solve overflows at {inputs}: its weights or "
                         "residual are not finite")
    return w, asdict(diag)


def _integer(name: str, value) -> int:
    """``value`` as a Python int, which ``json`` writes and a NumPy int64 is not."""
    if not isinstance(value, bool):  # it would be recorded as true or false
        with suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """``value`` as a Python float, which ``json`` writes and a NumPy float32 is not."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        with suppress(OverflowError):  # an int past the float range
            return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


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
    """The one perturb-and-solve path of the four private methods: PDFC and
    ADFC perturb the fairness-penalized quadratic, FM and RelaxedFM the plain
    one, and ``calibrate`` sets the noise and the recorded budget.  Rows
    outside the nonnegative unit ball, where the sensitivity bounds fail, are
    rejected before any noise scale is computed.  The seed and ``s_index``
    are used and recorded as Python ints, the budgets and alpha1 as floats.
    """
    split_budget = method in SPLIT_METHODS
    inputs = (f"alpha1 {alpha1}, eps_s {eps_s} and eps_n {eps_n}" if split_budget
              else f"epsilon {eps_s}")  # as the caller wrote them
    names = (("eps_s", "eps_n", "delta_s", "delta_n") if split_budget
             else ("epsilon", "epsilon", "delta", "delta"))
    given = (eps_s, eps_n, delta_s, delta_n)
    eps_s, eps_n, delta_s, delta_n = (None if value is None else _real(name, value)
                                      for name, value in zip(names, given))
    alpha1, seed = _real("alpha1", alpha1), _integer("seed", seed)
    s_index = _integer("s_index", s_index)
    if not 0 <= s_index < ds.d:
        raise ValueError(f"s_index {s_index} out of range for d={ds.d}")
    ds.check_normalized()
    poly = fair_poly(ds, alpha1) if split_budget else lr_poly(ds)
    cal = calibrate(method in DELTA_METHODS, split_budget, ds.d, alpha1,
                    eps_s, eps_n, delta_s, delta_n)
    try:
        with np.errstate(over="raise"):  # a draw or noisy coefficient past the float range
            poly = perturb(poly, cal.kind, cal.scale_s, cal.scale_n, s_index,
                           np.random.default_rng(seed))
    except FloatingPointError:
        raise ValueError(f"the noise overflows the coefficients at {inputs}") from None
    w, diagnostics = _solve(poly, inputs)
    parts = (dict(eps_s=eps_s, eps_n=eps_n, delta_s=delta_s, delta_n=delta_n, s_index=s_index)
             if split_budget else {})
    budgets = BudgetInfo(epsilon=cal.epsilon, delta=cal.delta, **parts)
    return TrainedModel(
        w=w,
        method=method,
        budgets=budgets,
        sensitivity_used=cal.sensitivity,
        alpha1=alpha1,
        seed=seed,
        diagnostics=diagnostics,
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
    *,
    seed: int,
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
    *,
    seed: int,
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
    alpha1 = _real("alpha1", alpha1)
    w, diagnostics = _solve(fair_poly(ds, alpha1), f"alpha1 {alpha1}")
    return TrainedModel(
        w=w,
        method="FairLR",
        budgets=None,
        sensitivity_used=None,
        alpha1=alpha1,
        seed=None,
        diagnostics=diagnostics,
    )
