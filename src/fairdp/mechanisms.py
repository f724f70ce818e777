"""Privacy machinery: sensitivity bounds, calibrated noise, the monomial
mask for attribute-wise budgets, coefficient perturbation and budget
composition.  The four private trainers share one path through it
(``trainers._private_fit``): a fair sensitivity bound, ``perturb`` at one
or two scales of one noise kind, and the composed budget.

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
transforms of the generator's uniform stream, which keeps golden tests
portable across library versions.  The uniforms are drawn as one array (equal
to the one-at-a-time stream), but log and cos go through the C library
(``math.log``/``math.cos``), not numpy's ufuncs: numpy's SIMD log differs from
libm in the last bit on some inputs and CPUs, which would make every private
output depend on the host.  sqrt is correctly rounded and stays vectorized.
"""

from __future__ import annotations

import math

import numpy as np

from .polynomial import PolyObjective


# --- sensitivity bounds -----------------------------------------------------

def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")


def l1_sensitivity_fair(d: int, alpha1: float = 1.0) -> float:
    _check_dim(d)
    return d * d / 4.0 + (1.0 + 2.0 * abs(alpha1)) * d


def l2_sensitivity_fair(d: int, alpha1: float = 1.0) -> float:
    _check_dim(d)
    return math.sqrt(d * d / 16.0 + (1.0 + 2.0 * abs(alpha1)) ** 2 * d)


# --- noise calibration and sampling -----------------------------------------

# log(sqrt(2/pi)/delta) must be positive, so delta must stay below sqrt(2/pi).
_DELTA_SUP = math.sqrt(2.0 / math.pi)


def gaussian_sigma(epsilon: float, delta: float, l2_sensitivity: float) -> float:
    """Smallest sigma the extended Gaussian mechanism certifies:

        sigma = (sqrt(2) * Delta2 / (2 eps)) * (sqrt(L) + sqrt(L + eps)),
        L = log(sqrt(2/pi) / delta).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if delta >= _DELTA_SUP:
        raise ValueError(
            f"delta must be below sqrt(2/pi) ~ {_DELTA_SUP:.4f} for the calibration "
            f"to be defined, got {delta}"
        )
    if l2_sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {l2_sensitivity}")
    big_l = math.log(_DELTA_SUP / delta)
    return (
        math.sqrt(2.0) * l2_sensitivity / (2.0 * epsilon)
        * (math.sqrt(big_l) + math.sqrt(big_l + epsilon))
    )


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn (a ``math`` function) applied to every entry of a 1-d array."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _check_positive(scale: np.ndarray) -> None:
    if not (scale > 0).all():
        raise ValueError(f"scale must be positive, got {scale[~(scale > 0)][0]}")


def laplace_sample(rng: np.random.Generator, scale: np.ndarray) -> np.ndarray:
    """Lap(0, scale) draws, one per entry of the 1-d array ``scale``, each
    from a single uniform via the inverse CDF.

    u < 1/2 maps to scale*log(2u), u >= 1/2 to -scale*log(2(1-u)).  A zero
    uniform (probability 2^-53) is nudged to the next representable value so
    the transform stays finite.
    """
    _check_positive(scale)
    u = rng.random(scale.size)
    u[u == 0.0] = 2.0 ** -53
    low = u < 0.5
    magnitude = scale * _libm(math.log, np.where(low, 2.0 * u, 2.0 * (1.0 - u)))
    return np.where(low, magnitude, -magnitude)


def gaussian_sample(rng: np.random.Generator, sigma: np.ndarray) -> np.ndarray:
    """N(0, sigma^2) draws, one per entry of the 1-d array ``sigma``, each via
    Box-Muller on two consecutive uniforms.

    The sine twin is discarded so every draw consumes exactly two uniforms,
    keeping the stream position independent of call history.
    """
    _check_positive(sigma)
    u = rng.random(2 * sigma.size)
    u1 = 1.0 - u[0::2]  # in (0, 1], log stays finite
    radius = np.sqrt(-2.0 * _libm(math.log, u1))
    return sigma * radius * _libm(math.cos, 2.0 * math.pi * u[1::2])


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

def compose_split_epsilon(eps_s: float, eps_n: float, d: int) -> float:
    """Composite budget of attribute-wise perturbation: eps_s/d + eps_n(d-1)/d.

    Evaluated in the factored form eps_n + (eps_s - eps_n)/d, which is the
    same real-valued formula but rounds to exactly eps when the two budgets
    coincide.
    """
    if eps_s <= 0 or eps_n <= 0:
        raise ValueError("epsilons must be positive")
    _check_dim(d)
    return eps_n + (eps_s - eps_n) / d


def compose_split_delta(delta_s: float, delta_n: float) -> float:
    """Composite failure probability: 1 - (1 - delta_s)(1 - delta_n)."""
    for dv in (delta_s, delta_n):
        if not 0.0 < dv < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {dv}")
    return 1.0 - (1.0 - delta_s) * (1.0 - delta_n)


def split_total_delta(delta: float) -> float:
    """Equal per-group delta whose composition gives back ``delta`` exactly:
    delta_s = delta_n = 1 - sqrt(1 - delta)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return 1.0 - math.sqrt(1.0 - delta)
