"""Minimizers for the (possibly noise-perturbed) quadratic objective and for
the exact logistic loss.

The quadratic path takes the ordered-pair ``PolyObjective`` every trainer
builds (clean for FairLR, perturbed for the four private methods) and
symmetrizes its degree-2 grid itself; no other module does.  Noise can make
the quadratic indefinite and therefore unbounded below, so the solve
restores well-posedness with a spectral floor: eigenvalues of the
symmetrized degree-2 matrix below ``eigen_floor`` are clamped up to it
before the closed-form solve.  Diagnostics report how often that floor bites.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from .dataset import EncodedDataset
from .polynomial import PolyObjective


class OptimizationError(RuntimeError):
    """Raised when the exact-loss descent hits a non-finite objective."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class RegularizationPolicy:
    """Knobs for both minimizers; defaults suit unit-ball-normalized data."""

    eigen_floor: float = 1e-3
    max_gd_iters: int = 5000
    gd_step: float = 0.1
    gd_tol: float = 1e-8

    def __post_init__(self):
        if self.eigen_floor <= 0:
            raise ValueError("eigen_floor must be positive")


@dataclass(frozen=True)
class QuadraticDiagnostics:
    clamped_eigenvalues: int
    residual_inf: float
    min_eigenvalue: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DescentDiagnostics:
    iterations: int
    grad_inf: float
    converged: bool
    hit_iteration_cap: bool
    final_step: float

    def to_dict(self) -> dict:
        return asdict(self)


def minimize_quadratic(
    poly: PolyObjective, policy: RegularizationPolicy | None = None
) -> tuple[np.ndarray, QuadraticDiagnostics]:
    """Closed-form minimizer of the floor-clamped quadratic.

    Symmetrizes the ordered-pair grid, A = (C2 + C2^T)/2 (w.C2 w == w.A w for
    every w), eigendecomposes A, lifts every eigenvalue below the floor up to
    it, and solves 2 A_reg w = -c1 in the eigenbasis.  The returned w is the
    unique global minimizer of the clamped (strongly convex) objective.
    """
    policy = policy or RegularizationPolicy()
    lam, vec = np.linalg.eigh((poly.c2 + poly.c2.T) / 2.0)
    clamped = int((lam < policy.eigen_floor).sum())
    lam_reg = np.maximum(lam, policy.eigen_floor)
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
    ds: EncodedDataset, w: np.ndarray, alpha1: float = 0.0
) -> tuple[float, np.ndarray]:
    """Exact penalized loss and its gradient.

    Loss: sum_i [log(1 + exp(x_i.w)) - y_i x_i.w] + alpha1 * (c_fair . w),
    with c_fair = sum_i (z_i - z_bar) x_i the decision-boundary covariance
    vector (``ds.protected_cov``).  log(1+exp(.)) is
    computed via logaddexp so large scores cannot overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scores = ds.X @ w
        loss = float(np.logaddexp(0.0, scores).sum() - ds.y @ scores)
        grad = ds.X.T @ (expit(scores) - ds.y)
    if alpha1 != 0.0:
        c = ds.protected_cov
        loss += alpha1 * float(c @ w)
        grad = grad + alpha1 * c
    return loss, grad


def minimize_logistic_exact(
    ds: EncodedDataset, alpha1: float = 0.0, policy: RegularizationPolicy | None = None
) -> tuple[np.ndarray, DescentDiagnostics]:
    """Gradient descent on the exact penalized logistic loss from w = 0.

    The step is fixed; an iteration whose candidate fails to decrease the
    objective (non-finite counts as failure) halves the step and stays put,
    so the iterate sequence is monotone.  Stops when the gradient
    infinity-norm falls below ``gd_tol`` or the iteration cap is hit.
    """
    policy = policy or RegularizationPolicy()
    w = np.zeros(ds.d)
    step = policy.gd_step
    obj, grad = logistic_objective(ds, w, alpha1)
    if not math.isfinite(obj):
        raise OptimizationError("objective non-finite at start", iteration=0)
    grad_inf = float(np.abs(grad).max())
    iterations = 0
    while iterations < policy.max_gd_iters and grad_inf > policy.gd_tol:
        iterations += 1
        cand = w - step * grad
        cand_obj, cand_grad = logistic_objective(ds, cand, alpha1)
        if cand_obj < obj:  # NaN compares false, so it also halves
            w, obj, grad = cand, cand_obj, cand_grad
            grad_inf = float(np.abs(grad).max())
        else:
            step /= 2.0
            if step == 0.0:
                break  # no representable progress left
    converged = grad_inf <= policy.gd_tol
    diag = DescentDiagnostics(
        iterations=iterations,
        grad_inf=grad_inf,
        converged=converged,
        hit_iteration_cap=not converged and iterations >= policy.max_gd_iters,
        final_step=step,
    )
    return w, diag
