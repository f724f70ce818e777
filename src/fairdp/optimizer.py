"""Minimizers for the (possibly noise-perturbed) quadratic objective and for
the exact logistic loss.

The quadratic path takes the ordered-pair ``PolyObjective`` every trainer
builds (clean for FairLR, perturbed for the four private methods) and
symmetrizes its degree-2 grid itself; no other module does.  Noise can make
the quadratic indefinite and therefore unbounded below, so the solve
restores well-posedness with a spectral floor: eigenvalues of the
symmetrized degree-2 matrix below ``EIGEN_FLOOR`` are clamped up to it
before the closed-form solve.  Diagnostics report how often that floor bites.

The exact path minimizes the unexpanded logistic loss (the LR baseline) by
damped Newton with a backtracking line search.  ``logistic_objective``
returns the probabilities p = expit(X w) behind its gradient, and the
Newton loop builds each Hessian from the p of the point it accepted, so
every iteration scores X w once per candidate and no more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataset import EncodedDataset
from .polynomial import PolyObjective

EIGEN_FLOOR = 1e-3  # eigenvalues of the quadratic below this are clamped up to it
GRAD_TOL = 1e-8  # the exact solve has converged once |grad|_inf <= GRAD_TOL


@dataclass(frozen=True)
class RegularizationPolicy:
    """Settings of the exact logistic solve: ``max_gd_iters`` caps its Newton
    iterations and must be an integer >= 1; ``gd_step`` is accepted but no
    longer read."""

    max_gd_iters: int = 5000
    gd_step: float = 0.1

    def __post_init__(self):
        if not isinstance(self.max_gd_iters, int) or isinstance(self.max_gd_iters, bool):
            raise ValueError(f"max_gd_iters must be an integer, got {self.max_gd_iters!r}")
        if self.max_gd_iters < 1:
            raise ValueError("max_gd_iters must be >= 1")


@dataclass(frozen=True)
class QuadraticDiagnostics:
    clamped_eigenvalues: int
    residual_inf: float
    min_eigenvalue: float


@dataclass(frozen=True)
class DescentDiagnostics:
    iterations: int
    grad_inf: float
    converged: bool
    hit_iteration_cap: bool
    final_step: float


def minimize_quadratic(poly: PolyObjective) -> tuple[np.ndarray, QuadraticDiagnostics]:
    """Closed-form minimizer of the floor-clamped quadratic.

    Symmetrizes the ordered-pair grid, A = (C2 + C2^T)/2 (w.C2 w == w.A w for
    every w), eigendecomposes A, lifts every eigenvalue below ``EIGEN_FLOOR``
    up to it, and solves 2 A_reg w = -c1 in the eigenbasis.  The returned w is
    the unique global minimizer of the clamped (strongly convex) objective.
    """
    lam, vec = np.linalg.eigh((poly.c2 + poly.c2.T) / 2.0)
    clamped = int((lam < EIGEN_FLOOR).sum())
    lam_reg = np.maximum(lam, EIGEN_FLOOR)
    beta = vec.T @ poly.c1
    w = vec @ (-beta / (2.0 * lam_reg))
    residual = 2.0 * (vec @ (lam_reg * (vec.T @ w))) + poly.c1
    diag = QuadraticDiagnostics(
        clamped_eigenvalues=clamped,
        residual_inf=float(np.abs(residual).max()),
        min_eigenvalue=float(lam[0]),
    )
    return w, diag


def logistic_objective(
    ds: EncodedDataset, w: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact logistic loss sum_i [log(1 + exp(s_i)) - y_i s_i], s = X w, its
    gradient X^T (p - y) and the probabilities p = expit(s) behind it.

    Each log(1 + exp(s)) is max(s, 0) + log1p(exp(-|s|)), the formula
    ``np.logaddexp(0, s)`` evaluates per element, written as array
    operations so NumPy runs vectorized loops; it cannot overflow, and its
    last bits may differ from logaddexp's.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scores = ds.X @ w
        # One expression, so no per-row array outlives the sum into expit.
        loss = float((np.maximum(scores, 0.0) + np.log1p(np.exp(-np.abs(scores)))).sum()
                     - ds.y @ scores)
        p = expit(scores)
        grad = ds.X.T @ (p - ds.y)
    return loss, grad, p


def minimize_logistic_exact(
    ds: EncodedDataset, policy: RegularizationPolicy | None = None
) -> tuple[np.ndarray, DescentDiagnostics]:
    """Damped Newton on the exact logistic loss from w = 0.

    The direction solves H d = grad, H = X^T diag(p(1-p)) X, by least squares:
    one-hot designs make H singular, but the gradient lies in its range.  H
    is built from the p that ``logistic_objective`` returned for the start
    point or the last accepted candidate; X w is not scored again.  The
    line search halves from step 1 and accepts a candidate that lowers the
    objective, or that lowers the gradient infinity-norm while raising the
    objective by at most n ulps, its rounding error near the optimum.  Stops
    when that norm falls to ``GRAD_TOL``, after ``max_gd_iters`` iterations,
    or when no step is accepted; ``final_step`` is the last accepted step.
    """
    policy = policy or RegularizationPolicy()
    w = np.zeros(ds.d)
    obj, grad, p = logistic_objective(ds, w)
    if not math.isfinite(obj):
        raise ValueError("objective non-finite at start")
    grad_inf = float(np.abs(grad).max())
    iterations, step = 0, 1.0
    while iterations < policy.max_gd_iters and grad_inf > GRAD_TOL:
        iterations += 1
        hess = (ds.X * (p * (1.0 - p))[:, None]).T @ ds.X
        direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        trial, slack = 1.0, ds.n * math.ulp(obj)
        while trial > 0.0:  # NaN compares false, so a non-finite candidate halves
            cand = w - trial * direction
            cand_obj, cand_grad, cand_p = logistic_objective(ds, cand)
            cand_inf = float(np.abs(cand_grad).max())
            if cand_obj < obj or (cand_obj <= obj + slack and cand_inf < grad_inf):
                break
            trial /= 2.0
        if trial == 0.0:
            break  # no representable progress left
        w, obj, grad, p, grad_inf, step = cand, cand_obj, cand_grad, cand_p, cand_inf, trial
    converged = grad_inf <= GRAD_TOL
    diag = DescentDiagnostics(
        iterations=iterations,
        grad_inf=grad_inf,
        converged=converged,
        hit_iteration_cap=not converged and iterations >= policy.max_gd_iters,
        final_step=step,
    )
    return w, diag
