import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

import fairdp.optimizer as optimizer_mod
from fairdp.dataset import EncodedDataset, split
from fairdp.evaluation import derive_seed
from fairdp.optimizer import (
    RegularizationPolicy,
    logistic_objective,
    minimize_logistic_exact,
    minimize_quadratic,
)
from fairdp.polynomial import PolyObjective, lr_poly

from conftest import random_dataset
from synthdata import make_adult_like
from toys import eval_poly


def gd_minimize_quadratic(A, b, steps=100_000):
    """Independent oracle: plain gradient descent on c + b.w + w.A w with a
    Gershgorin-bound step size (no eigen machinery), stopped once every
    gradient entry is at most 1e-10: when A's least eigenvalue is at least
    0.05, as random_spd_quadratic makes it, w is then within sqrt(d) * 1e-9
    of the minimizer."""
    lam_max_bound = np.abs(A).sum(axis=1).max()
    step = 1.0 / (2.0 * 2.0 * lam_max_bound)
    w = np.zeros(b.size)
    for _ in range(steps):
        grad = 2.0 * A @ w + b
        if np.abs(grad).max() <= 1e-10:
            break
        w = w - step * grad
    return w


def two_pass_newton(ds, max_iters):
    """Oracle: the Newton loop as it was before ``logistic_objective``
    returned its probabilities.  The loss is ``np.logaddexp``'s and each
    iteration recomputes p = expit(X w) for the Hessian."""

    def objective(w):
        with np.errstate(over="ignore", invalid="ignore"):
            scores = ds.X @ w
            loss = float(np.logaddexp(0.0, scores).sum() - ds.y @ scores)
            grad = ds.X.T @ (expit(scores) - ds.y)
        return loss, grad

    w = np.zeros(ds.d)
    obj, grad = objective(w)
    grad_inf = float(np.abs(grad).max())
    iterations, step = 0, 1.0
    while iterations < max_iters and grad_inf > optimizer_mod.GRAD_TOL:
        iterations += 1
        p = expit(ds.X @ w)
        hess = (ds.X * (p * (1.0 - p))[:, None]).T @ ds.X
        direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        trial, slack = 1.0, ds.n * math.ulp(obj)
        while trial > 0.0:
            cand = w - trial * direction
            cand_obj, cand_grad = objective(cand)
            cand_inf = float(np.abs(cand_grad).max())
            if cand_obj < obj or (cand_obj <= obj + slack and cand_inf < grad_inf):
                break
            trial /= 2.0
        if trial == 0.0:
            break
        w, obj, grad, grad_inf, step = cand, cand_obj, cand_grad, cand_inf, trial
    return w, iterations, step, grad_inf


def random_spd_quadratic(rng, d, min_eig=0.05):
    M = rng.normal(size=(d, d))
    A = M @ M.T / d + min_eig * np.eye(d)
    return PolyObjective(c0=float(rng.normal()), c1=rng.normal(size=d), c2=(A + A.T) / 2.0)


def symmetrized(p):
    return PolyObjective(c0=p.c0, c1=p.c1, c2=(p.c2 + p.c2.T) / 2.0)


class TestCanonicalize:
    """minimize_quadratic symmetrizes the ordered-pair grid itself."""

    def test_symmetric_fixed_point(self, rng):
        p = lr_poly(random_dataset(rng, 10, 3))
        q = symmetrized(p)
        np.testing.assert_array_equal(q.c2, p.c2)
        np.testing.assert_array_equal(minimize_quadratic(q)[0], minimize_quadratic(p)[0])

    def test_symmetrization(self, rng):
        # An ordered grid and its symmetrized grid give the same w, bit for bit.
        p = PolyObjective(c0=0.0, c1=[0.3, -0.2], c2=[[1.0, 1.0], [0.0, 2.0]])
        np.testing.assert_array_equal(symmetrized(p).c2, [[1.0, 0.5], [0.5, 2.0]])
        for _ in range(30):
            d = int(rng.integers(1, 6))
            p = PolyObjective(c0=0.0, c1=rng.normal(size=d), c2=rng.normal(size=(d, d)))
            w, diag = minimize_quadratic(p)
            w_sym, diag_sym = minimize_quadratic(symmetrized(p))
            np.testing.assert_array_equal(w, w_sym)
            assert diag == diag_sym

    def test_eval_equivalence(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 6))
            p = PolyObjective(
                c0=float(rng.normal()), c1=rng.normal(size=d), c2=rng.normal(size=(d, d))
            )
            w = rng.normal(size=d)
            assert eval_poly(symmetrized(p), w) == pytest.approx(
                eval_poly(p, w), abs=1e-10, rel=1e-10)


class TestMinimizeQuadratic:
    def test_identity_closed_form(self):
        q = PolyObjective(c0=0.0, c1=np.array([-2.0, 0.0]), c2=np.eye(2))
        w, diag = minimize_quadratic(q)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
        assert diag.clamped_eigenvalues == 0

    def test_clamping_with_zero_linear_term(self):
        q = PolyObjective(c0=0.0, c1=np.zeros(2), c2=np.diag([1.0, -5.0]))
        w, diag = minimize_quadratic(q)
        np.testing.assert_allclose(w, np.zeros(2), atol=1e-15)
        assert diag.clamped_eigenvalues == 1
        assert diag.min_eigenvalue == pytest.approx(-5.0)

    def test_matches_gradient_descent_oracle(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 8))
            q = random_spd_quadratic(rng, d)
            w, diag = minimize_quadratic(q)
            w_oracle = gd_minimize_quadratic(q.c2, q.c1, steps=50_000)
            assert diag.clamped_eigenvalues == 0
            np.testing.assert_allclose(w, w_oracle, atol=1e-6)

    def test_stationarity_residual(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 10))
            M = rng.normal(size=(d, d)) * rng.uniform(0.1, 5.0)
            q = PolyObjective(c0=0.0, c1=rng.normal(size=d) * 3.0, c2=(M + M.T) / 2.0)
            _, diag = minimize_quadratic(q)
            assert diag.residual_inf <= 1e-8 * (1.0 + np.abs(q.c1).max())

    def test_global_minimum_when_wellposed(self, rng):
        q = random_spd_quadratic(rng, 5, min_eig=0.01)
        w, diag = minimize_quadratic(q)
        assert diag.clamped_eigenvalues == 0
        base = eval_poly(q, w)
        for _ in range(100):
            h = rng.normal(size=5) * rng.uniform(1e-4, 1.0)
            assert eval_poly(q, w + h) >= base - 1e-12

    def test_nonfinite_rejected(self):
        # The objective type refuses non-finite coefficients, so none can
        # reach the solver.
        for c1, c2 in (([0.0], [[np.nan]]), ([np.inf], [[1.0]])):
            with pytest.raises(ValueError, match="finite"):
                minimize_quadratic(PolyObjective(c0=0.0, c1=c1, c2=c2))


class TestExactLogistic:
    def test_balanced_symmetric_pair_keeps_zero(self):
        u = np.array([0.5, 0.2])
        ds = EncodedDataset(X=np.vstack([u, u]), y=[1, 0], z=[0, 1],
                            feature_names=("a", "b"))
        w, diag = minimize_logistic_exact(ds)
        np.testing.assert_allclose(w, np.zeros(2), atol=1e-12)
        assert diag.converged

    def test_separable_toy_reaches_full_accuracy(self):
        # y = 1 exactly when the first coordinate is large: separable.
        X = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.3], [0.05, 0.4]])
        ds = EncodedDataset(X=X, y=[1, 1, 0, 0], z=[0, 1, 0, 1],
                            feature_names=("a", "b"))
        policy = RegularizationPolicy(max_gd_iters=4000, gd_step=1.0)
        w, _ = minimize_logistic_exact(ds, policy=policy)
        margins = X @ w
        labels = (margins >= 0).astype(int)
        np.testing.assert_array_equal(labels, ds.y)

    def test_postcondition_grad_or_cap(self, rng):
        ds = random_dataset(rng, 40, 4)
        policy = RegularizationPolicy(max_gd_iters=50)
        w, diag = minimize_logistic_exact(ds, policy=policy)
        assert diag.converged or diag.hit_iteration_cap
        if diag.converged:
            assert diag.grad_inf <= optimizer_mod.GRAD_TOL

    def test_iteration_cap_is_reported(self, rng):
        ds = random_dataset(rng, 5, 2)
        _, diag = minimize_logistic_exact(ds, RegularizationPolicy(max_gd_iters=1))
        assert diag.iterations == 1
        assert diag.converged is False
        assert diag.hit_iteration_cap is True

    def test_gradient_matches_finite_differences(self, rng):
        ds = random_dataset(rng, 12, 3)
        h = 1e-6
        for _ in range(20):
            w = rng.normal(size=3)
            _, grad, _ = logistic_objective(ds, w)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                lo, _, _ = logistic_objective(ds, w - e)
                hi, _, _ = logistic_objective(ds, w + e)
                assert grad[j] == pytest.approx((hi - lo) / (2 * h), rel=1e-5, abs=1e-6)

    def test_overflow_safe_objective(self, rng):
        ds = random_dataset(rng, 5, 2)
        obj, grad, _ = logistic_objective(ds, np.array([1e4, 1e4]))
        assert np.isfinite(obj)
        assert np.isfinite(grad).all()

    def test_objective_parts(self, rng):
        # p and the gradient are the plain formulas bit for bit; the loss's
        # softplus is logaddexp's formula as array operations, so the sum
        # agrees with the logaddexp sum to within n ulps.
        for _ in range(10):
            ds = random_dataset(rng, 50, 4)
            w = rng.normal(size=4) * 5.0
            _, grad, p = logistic_objective(ds, w)
            np.testing.assert_array_equal(p, expit(ds.X @ w))
            np.testing.assert_array_equal(grad, ds.X.T @ (expit(ds.X @ w) - ds.y))
        for s in (0.0, 3.0, -3.0, 800.0, -800.0, 1e152, -1e152):
            X = np.full((4, 1), s)
            ds = EncodedDataset(X=X, y=[0, 1, 1, 0], z=[0, 1, 0, 1], feature_names=("a",))
            loss, _, _ = logistic_objective(ds, np.ones(1))
            scores = ds.X @ np.ones(1)
            ref = float(np.logaddexp(0.0, scores).sum() - ds.y @ scores)
            assert np.isfinite(loss)
            assert abs(loss - ref) <= ds.n * math.ulp(ref), s

    def test_non_finite_objective_raises_value_error(self, rng):
        ds = random_dataset(rng, 5, 2)
        X_bad = ds.X.copy()
        X_bad[0, 0] = np.nan
        bad = EncodedDataset(X=X_bad, y=ds.y, z=ds.z,
                             feature_names=ds.feature_names)
        with pytest.raises(ValueError, match="^objective non-finite at start$"):
            minimize_logistic_exact(bad)

    def test_extreme_scales_degrade_gracefully(self, rng):
        # Candidates that overflow count as non-decreases; the loop halves
        # its way down instead of diverging.
        ds = random_dataset(rng, 5, 2)
        big = EncodedDataset(X=ds.X * 1e150, y=ds.y, z=ds.z,
                             feature_names=ds.feature_names)
        w, diag = minimize_logistic_exact(
            big, policy=RegularizationPolicy(max_gd_iters=200)
        )
        assert np.isfinite(w).all()


class TestNewton:
    """The damped Newton solve behind ``minimize_logistic_exact``."""

    def test_matches_bfgs(self, rng):
        # An independent quasi-Newton solve of the same loss lands on the same w.
        for _ in range(5):
            ds = random_dataset(rng, 300, 5)
            w, diag = minimize_logistic_exact(ds)
            ref = minimize(lambda v: logistic_objective(ds, v)[:2], np.zeros(ds.d),
                           jac=True, method="BFGS", options={"gtol": 1e-10})
            assert diag.converged and diag.grad_inf <= 1e-8
            np.testing.assert_allclose(w, ref.x, atol=1e-6)

    def test_duplicated_column_converges(self, rng):
        # A rank-deficient design (one-hot designs are) has a singular
        # Hessian; the least-squares Newton direction still converges.
        ds = random_dataset(rng, 200, 3)
        X = np.column_stack([ds.X, ds.X[:, 1]]) / np.sqrt(2.0)
        dup = EncodedDataset(X=X, y=ds.y, z=ds.z, feature_names=("a", "b", "c", "b2"))
        w, diag = minimize_logistic_exact(dup)
        assert np.linalg.matrix_rank(X) == 3
        assert diag.converged and np.isfinite(w).all()
        # The loss is that of the full-rank design at the folded weights.
        w3 = np.array([w[0], w[1] + w[3], w[2]]) / np.sqrt(2.0)
        w_full, _ = minimize_logistic_exact(ds)
        np.testing.assert_allclose(w3, w_full, atol=1e-6)

    def test_weights_match_the_two_pass_loop(self, rng):
        # The Hessian's p comes from the accepted candidate's objective call
        # and the loss's last bits from array exp/log1p; the weights, the
        # iteration count, the last step and the gradient norm are the
        # two-pass loop's bit for bit.
        trend = RegularizationPolicy(max_gd_iters=4000, gd_step=1.0)
        for seed in (0, 1):
            train, _ = split(make_adult_like(100_000, seed), 0.2, derive_seed("split", seed, 0))
            self.assert_matches_two_pass(train, trend)
        ds = random_dataset(rng, 200, 3)
        X = np.column_stack([ds.X, ds.X[:, 1]]) / np.sqrt(2.0)
        self.assert_matches_two_pass(
            EncodedDataset(X=X, y=ds.y, z=ds.z, feature_names=("a", "b", "c", "b2")))
        for n, d in ((5, 2), (40, 6), (300, 5), (2_000, 12), (500, 40)):
            ds = random_dataset(rng, n, d)
            self.assert_matches_two_pass(ds)
            scaled = EncodedDataset(X=ds.X * 1e3, y=ds.y, z=ds.z,
                                    feature_names=ds.feature_names)
            self.assert_matches_two_pass(scaled)

    @staticmethod
    def assert_matches_two_pass(ds, policy=RegularizationPolicy()):
        w, diag = minimize_logistic_exact(ds, policy)
        w_ref, iterations, step, grad_inf = two_pass_newton(ds, policy.max_gd_iters)
        np.testing.assert_array_equal(w, w_ref)
        assert (diag.iterations, diag.final_step, diag.grad_inf) == (iterations, step, grad_inf)

    def test_trend_split_converges_in_few_objective_calls(self, monkeypatch):
        # The last Newton step on this split raises the objective by about
        # one ulp while cutting the gradient by seven orders of magnitude; a
        # strict-decrease line search halves the step to zero instead.
        ds = make_adult_like(100_000, 0)
        train, _ = split(ds, 0.2, derive_seed("split", 0, 0))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return logistic_objective(*args, **kwargs)

        monkeypatch.setattr(optimizer_mod, "logistic_objective", counted)
        _, diag = minimize_logistic_exact(
            train, policy=RegularizationPolicy(max_gd_iters=4000, gd_step=1.0))
        assert diag.converged and not diag.hit_iteration_cap
        assert diag.iterations <= 10
        assert len(calls) < 30


class TestPolicy:
    def test_defaults(self):
        assert optimizer_mod.EIGEN_FLOOR == 1e-3
        assert optimizer_mod.GRAD_TOL == 1e-8
        p = RegularizationPolicy()
        assert [f.name for f in fields(p)] == ["max_gd_iters", "gd_step"]
        assert p.max_gd_iters == 5000
        assert p.gd_step == 0.1

    @pytest.mark.parametrize("cap", [0, -3, 2.5, True, "10", None])
    def test_bad_iteration_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="^max_gd_iters must be"):
            RegularizationPolicy(max_gd_iters=cap)

    @pytest.mark.parametrize("cap", [1, 4000])
    def test_iteration_cap_accepted(self, cap):
        assert RegularizationPolicy(max_gd_iters=cap, gd_step=1.0).max_gd_iters == cap
