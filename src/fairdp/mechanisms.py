"""Privacy machinery: sensitivity bounds, calibrated noise, the monomial
mask for attribute-wise budgets, coefficient perturbation and budget
composition.  The four private trainers share one path through it
(``trainers._private_fit``): ``calibrate``, the one place where a fit's
budgets are checked, its noise is calibrated and its recorded (eps, delta)
is set, then ``perturb`` at the record's one or two scales of one noise kind.

Sensitivities are the closed-form worst-case bounds over neighboring datasets
(one row replaced), never data-dependent quantities.  For rows in the
nonnegative unit ball, folding the fairness penalty with weight alpha1 into
the logistic quadratic bounds the coefficient difference by
d^2/4 + (1 + 2|alpha1|) d in L1 and sqrt(d^2/16 + (1 + 2|alpha1|)^2 d) in
L2.  alpha1 = 0 is the plain logistic quadratic (d^2/4 + d and
sqrt(d^2/16 + d), bit for bit), which FM and RelaxedFM use.

Noise is drawn one value per degree-1 coefficient and per ordered degree-2
cell, in a fixed order (degree-1 ascending, then degree-2 row-major), so a
seed fully determines the perturbed polynomial.  Both samplers are explicit
transforms of the generator's uniform stream, drawn as one array (equal to
the one-at-a-time stream).  log is ``scipy.special.xlogy(1.0, x)``, scipy's
compiled loop over the C library's scalar ``log``; cos is ``np.cos``; sqrt
is correctly rounded.  ``np.log`` stays out: under numpy's AVX-512 dispatch
it differs from the C library's log in the last bit on about 0.35% of
uniforms.  The draws therefore equal the scalar ``math.log``/``math.cos``
transform bit for bit exactly where numpy's float64 cos is the C library's
cos, and outputs agree across hosts only where the C libraries' log and cos
round the same way (neither is specified to the last bit).
``TestBulkBitExact`` in ``tests/test_mechanisms.py`` fails on a host where
the first condition does not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .polynomial import PolyObjective


# --- sensitivity bounds -----------------------------------------------------

def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")


def _finite_bound(bound: float, d: int, alpha1: float) -> float:
    if not math.isfinite(bound):
        raise ValueError(f"alpha1 {alpha1} gives a non-finite sensitivity bound "
                         f"({bound}) at d = {d}")
    return bound


def l1_sensitivity_fair(d: int, alpha1: float = 1.0) -> float:
    _check_dim(d)
    return _finite_bound(d * d / 4.0 + (1.0 + 2.0 * abs(alpha1)) * d, d, alpha1)


def l2_sensitivity_fair(d: int, alpha1: float = 1.0) -> float:
    _check_dim(d)
    try:
        bound = math.sqrt(d * d / 16.0 + (1.0 + 2.0 * abs(alpha1)) ** 2 * d)
    except OverflowError:  # float ** raises where * gives inf
        bound = math.inf
    return _finite_bound(bound, d, alpha1)


# --- noise calibration and sampling -----------------------------------------

# log(sqrt(2/pi)/delta) must be positive, so delta must stay below sqrt(2/pi).
_DELTA_SUP = math.sqrt(2.0 / math.pi)


def check_gaussian_delta(delta: float) -> None:
    """Raise ValueError unless delta is below sqrt(2/pi) (see above)."""
    if delta >= _DELTA_SUP:
        raise ValueError(
            f"delta must be below sqrt(2/pi) ~ {_DELTA_SUP:.4f} for the calibration "
            f"to be defined, got {delta}"
        )


def gaussian_sigma(epsilon: float, delta: float, l2_sensitivity: float) -> float:
    """Smallest sigma the extended Gaussian mechanism certifies:

        sigma = (sqrt(2) * Delta2 / (2 eps)) * (sqrt(L) + sqrt(L + eps)),
        L = log(sqrt(2/pi) / delta).

    epsilon must be finite and positive, delta in (0, sqrt(2/pi)) and the
    sensitivity finite and positive.
    """
    check_budget("epsilon", epsilon)
    check_budget("delta", delta)
    check_gaussian_delta(delta)
    if not 0.0 < l2_sensitivity < math.inf:
        raise ValueError(f"sensitivity must be finite and positive, got {l2_sensitivity}")
    big_l = math.log(_DELTA_SUP / delta)
    return (
        math.sqrt(2.0) * l2_sensitivity / (2.0 * epsilon)
        * (math.sqrt(big_l) + math.sqrt(big_l + epsilon))
    )


def _check_positive(scale: np.ndarray) -> None:
    if not (scale > 0).all():
        raise ValueError(f"scale must be positive, got {scale[~(scale > 0)][0]}")


def laplace_sample(rng: np.random.Generator, scale: np.ndarray) -> np.ndarray:
    """Lap(0, scale) draws, one per entry of the 1-d array ``scale``, each
    from a single uniform via the inverse CDF.

    u < 1/2 maps to scale*log(2u), u >= 1/2 to -scale*log(2(1-u)).  A zero
    uniform (probability 2^-53) is nudged to the next representable value so
    the transform stays finite.  log is ``xlogy(1.0, x)``, the C library's
    log in a compiled loop, equal to ``math.log`` bit for bit.
    """
    _check_positive(scale)
    u = rng.random(scale.size)
    u[u == 0.0] = 2.0 ** -53
    low = u < 0.5
    magnitude = scale * xlogy(1.0, np.where(low, 2.0 * u, 2.0 * (1.0 - u)))
    return np.where(low, magnitude, -magnitude)


def gaussian_sample(rng: np.random.Generator, sigma: np.ndarray) -> np.ndarray:
    """N(0, sigma^2) draws, one per entry of the 1-d array ``sigma``, each via
    Box-Muller on two consecutive uniforms.

    The sine twin is discarded so every draw consumes exactly two uniforms,
    keeping the stream position independent of call history.  log is
    ``xlogy(1.0, x)`` and cos is ``np.cos``, equal to ``math.log`` and
    ``math.cos`` bit for bit wherever numpy's float64 cos is the C library's.
    """
    _check_positive(sigma)
    u = rng.random(2 * sigma.size)
    u1 = 1.0 - u[0::2]  # in (0, 1], log stays finite
    radius = np.sqrt(-2.0 * xlogy(1.0, u1))
    return sigma * radius * np.cos(2.0 * math.pi * u[1::2])


_SAMPLERS = {"laplace": laplace_sample, "gaussian": gaussian_sample}


def sensitive_mask(d: int, s_index: int) -> np.ndarray:
    """Boolean flag per monomial, in canonical (noise-draw) order: True for
    the 2d monomials containing w_s (w_s itself and every degree-2 cell in
    row or column s), False for the d^2 - d others."""
    _check_dim(d)
    if not 0 <= s_index < d:
        raise ValueError(f"s_index {s_index} out of range for d={d}")
    is_s = np.arange(d) == s_index
    return np.concatenate([is_s, (is_s[:, None] | is_s[None, :]).ravel()])


def perturb(
    poly: PolyObjective,
    kind: str,
    scale_s: float,
    scale_n: float,
    s_index: int,
    rng: np.random.Generator,
) -> PolyObjective:
    """Add one independent ``kind`` ("laplace" or "gaussian") noise draw to
    every degree-1 and ordered degree-2 coefficient; monomials containing w_s
    draw at scale_s, the rest at scale_n (Laplace scale b or Gaussian sigma).

    Draws happen in canonical order (degree-1 ascending, then degree-2
    row-major) so a seed pins the exact output.  c0 is never perturbed: the
    algorithms only touch degrees 1 and 2, and a constant cannot move the
    minimizer.
    """
    if kind not in _SAMPLERS:
        raise ValueError(f"unknown noise kind {kind!r}")
    d = poly.d
    scales = np.where(sensitive_mask(d, s_index), scale_s, scale_n)
    draws = _SAMPLERS[kind](rng, scales)
    return PolyObjective(
        c0=poly.c0,
        c1=poly.c1 + draws[:d],
        c2=poly.c2 + draws[d:].reshape(d, d),
    )


# --- budget composition ------------------------------------------------------

def check_budget(name: str, value: float | None) -> None:
    """Raise ValueError naming budget ``name`` unless ``value`` is in range:
    a delta (a name that starts with "delta") in (0, 1), an epsilon finite
    and positive."""
    if isinstance(value, bool):  # it would be recorded as true or false
        raise ValueError(f"{name} must be a number, got {value!r}")
    delta = name.startswith("delta")
    if value is None or not 0.0 < value < (1.0 if delta else math.inf):
        rule = "in (0, 1)" if delta else "finite and positive"
        raise ValueError(f"{name} must be {rule}, got {value}")


def compose_split_epsilon(eps_s: float, eps_n: float, d: int) -> float:
    """Composite budget of attribute-wise perturbation: eps_s/d + eps_n(d-1)/d.

    Evaluated in the factored form eps_n + (eps_s - eps_n)/d, which is the
    same real-valued formula but rounds to exactly eps when the two budgets
    coincide.
    """
    check_budget("eps_s", eps_s)
    check_budget("eps_n", eps_n)
    _check_dim(d)
    return eps_n + (eps_s - eps_n) / d


def compose_split_delta(delta_s: float, delta_n: float) -> float:
    """Composite failure probability: 1 - (1 - delta_s)(1 - delta_n)."""
    check_budget("delta_s", delta_s)
    check_budget("delta_n", delta_n)
    return 1.0 - (1.0 - delta_s) * (1.0 - delta_n)


def split_total_delta(delta: float) -> float:
    """Equal per-group delta whose composition gives back ``delta`` exactly:
    delta_s = delta_n = 1 - sqrt(1 - delta)."""
    check_budget("delta", delta)
    return 1.0 - math.sqrt(1.0 - delta)


# --- calibration of a private fit --------------------------------------------

@dataclass(frozen=True)
class Calibration:
    """A private fit's noise ``kind``, the sensitivity bound it is calibrated
    to, its scale (Laplace b or Gaussian sigma) on the monomials containing
    w_s and on the rest, and the (epsilon, delta) the model records."""

    kind: str
    sensitivity: float
    scale_s: float
    scale_n: float
    epsilon: float
    delta: float | None


def calibrate(gaussian: bool, split: bool, d: int, alpha1: float, eps_s: float,
              eps_n: float, delta_s: float | None = None,
              delta_n: float | None = None) -> Calibration:
    """Noise and recorded budget of a private fit at dimension d and weight alpha1.

    Laplace noise at the fair L1 bound over eps, or (``gaussian``) the sigma
    of (eps, delta) at the fair L2 bound; monomials containing w_s get the
    (eps_s[, delta_s]) scale, the rest (eps_n[, delta_n]).  Unsplit, the two
    are one budget (named epsilon and delta) recorded as given.  ``split``
    records the composed eps for Laplace noise; for Gaussian noise, the eps
    of the group with the smaller sigma (every coefficient's sigma is at
    least that one, which certifies its group's (eps, delta_i), and delta_i
    is at most the composed delta) and the composed delta.  Every budget is
    checked before any scale is computed; an overflowing scale names its eps.
    """
    names = (("eps_s", "eps_n", "delta_s", "delta_n") if split
             else ("epsilon", "epsilon", "delta", "delta"))
    for name, value in zip(names[:4 if gaussian else 2], (eps_s, eps_n, delta_s, delta_n)):
        check_budget(name, value)
    if gaussian:
        kind, sensitivity = "gaussian", l2_sensitivity_fair(d, alpha1)
        scale_s = gaussian_sigma(eps_s, delta_s, sensitivity)
        scale_n = gaussian_sigma(eps_n, delta_n, sensitivity)
    else:
        kind, sensitivity = "laplace", l1_sensitivity_fair(d, alpha1)
        scale_s, scale_n = sensitivity / eps_s, sensitivity / eps_n
    for name, eps, scale in zip(names, (eps_s, eps_n), (scale_s, scale_n)):
        if not math.isfinite(scale):
            raise ValueError(f"{name} {eps} is too small: its noise scale overflows to {scale}")
    epsilon, delta = eps_s, (delta_s if gaussian else None)
    if split and gaussian:  # equal budgets give compose_split_epsilon's value bit for bit
        epsilon = eps_s if scale_s <= scale_n else eps_n
        delta = compose_split_delta(delta_s, delta_n)
    elif split:
        epsilon = compose_split_epsilon(eps_s, eps_n, d)
    return Calibration(kind, sensitivity, scale_s, scale_n, epsilon, delta)
