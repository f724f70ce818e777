import math

import numpy as np
import pytest

from fairdp.dataset import EncodedDataset
from fairdp.polynomial import PolyObjective, fair_poly, lr_poly

from conftest import random_dataset, random_unit_rows
from regen_goldens import poly_dict
from toys import eval_poly, gradient_poly


def single_tuple_ds(x, y, z=0):
    x = np.asarray(x, dtype=float)
    return EncodedDataset(
        X=x[None, :], y=[y], z=[z], feature_names=tuple(f"f{i}" for i in range(x.size))
    )


def exact_logistic_loss(x, y, w):
    t = float(np.dot(x, w))
    return math.log1p(math.exp(t)) - y * t


class TestLrPoly:
    def test_single_tuple_coefficients(self):
        p = lr_poly(single_tuple_ds([1.0, 0.0], y=1))
        assert p.c0 == pytest.approx(math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(p.c1, [-0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(p.c2, [[0.125, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_zero_feature_vector(self):
        p = lr_poly(single_tuple_ds(np.zeros(3), y=0))
        assert p.c0 == pytest.approx(math.log(2.0))
        np.testing.assert_array_equal(p.c1, np.zeros(3))
        np.testing.assert_array_equal(p.c2, np.zeros((3, 3)))

    def test_additivity_against_per_tuple_sum(self, rng):
        # Oracle: build the polynomial tuple by tuple and sum the pieces.
        ds = random_dataset(rng, 3, 4)
        p = lr_poly(ds)
        parts = [lr_poly(single_tuple_ds(ds.X[i], ds.y[i], ds.z[i])) for i in range(3)]
        np.testing.assert_allclose(p.c0, sum(q.c0 for q in parts), rtol=1e-12)
        np.testing.assert_allclose(p.c1, sum(q.c1 for q in parts), atol=1e-12)
        np.testing.assert_allclose(p.c2, sum(q.c2 for q in parts), atol=1e-12)

    def test_clean_c2_is_symmetric_gram(self, rng):
        ds = random_dataset(rng, 20, 5)
        p = lr_poly(ds)
        np.testing.assert_allclose(p.c2, p.c2.T, atol=1e-10)
        np.testing.assert_allclose(p.c2, (ds.X.T @ ds.X) / 8.0, atol=1e-10)

    def test_c0_is_n_log2(self, rng):
        ds = random_dataset(rng, 17, 3)
        assert lr_poly(ds).c0 == pytest.approx(17 * math.log(2.0), rel=1e-15)


class TestFairnessVector:
    """The fairness vector sum_i (z_i - z_bar) x_i, read as ``ds.protected_cov``."""

    def test_constant_protected_gives_zero(self, rng):
        X = random_unit_rows(rng, 5, 3)
        ds = EncodedDataset(X=X, y=[0, 1, 0, 1, 0], z=np.ones(5, dtype=int),
                            feature_names=("a", "b", "c"))
        np.testing.assert_allclose(ds.protected_cov, np.zeros(3), atol=1e-15)

    def test_symmetric_pair_cancels(self):
        u = np.array([0.3, 0.4])
        ds = EncodedDataset(X=np.vstack([u, u]), y=[0, 1], z=[0, 1],
                            feature_names=("a", "b"))
        np.testing.assert_allclose(ds.protected_cov, np.zeros(2), atol=1e-15)

    def test_matches_direct_summation(self, rng):
        ds = random_dataset(rng, 4, 3)
        zbar = ds.z.sum() / 4
        expected = sum((ds.z[i] - zbar) * ds.X[i] for i in range(4))
        np.testing.assert_allclose(ds.protected_cov, expected, atol=1e-12)

    def test_recomputable_to_tight_tolerance(self, rng):
        ds = random_dataset(rng, 30, 6)
        a = ds.protected_cov
        b = ((ds.z - ds.z_bar)[:, None] * ds.X).sum(axis=0)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestFairPoly:
    def test_zero_penalty_identical_to_plain(self, rng):
        ds = random_dataset(rng, 6, 3)
        p, q = lr_poly(ds), fair_poly(ds, alpha1=0.0)
        assert p.c0 == q.c0
        np.testing.assert_array_equal(p.c1, q.c1)
        np.testing.assert_array_equal(p.c2, q.c2)

    def test_constant_protected_identical_to_plain(self, rng):
        X = random_unit_rows(rng, 5, 2)
        ds = EncodedDataset(X=X, y=[1, 0, 1, 0, 1], z=np.zeros(5, dtype=int),
                            feature_names=("a", "b"))
        p, q = lr_poly(ds), fair_poly(ds, alpha1=3.7)
        np.testing.assert_allclose(p.c1, q.c1, atol=1e-15)
        np.testing.assert_array_equal(p.c2, q.c2)

    def test_against_per_tuple_oracle(self, rng):
        ds = random_dataset(rng, 5, 4)
        p = fair_poly(ds, alpha1=1.0)
        zbar = ds.z.sum() / 5
        c1_expected = sum(
            (0.5 - ds.y[i]) * ds.X[i] + (ds.z[i] - zbar) * ds.X[i] for i in range(5)
        )
        np.testing.assert_allclose(p.c1, c1_expected, atol=1e-12)
        np.testing.assert_allclose(p.c2, lr_poly(ds).c2, atol=1e-15)
        assert p.c0 == lr_poly(ds).c0


class TestEvalPoly:
    def test_w_zero_returns_constant(self, rng):
        ds = random_dataset(rng, 8, 3)
        p = lr_poly(ds)
        assert eval_poly(p, np.zeros(3)) == pytest.approx(p.c0)

    def test_hand_arithmetic_d1(self):
        p = PolyObjective(c0=0.0, c1=[2.0], c2=[[3.0]])
        assert eval_poly(p, np.array([1.0])) == pytest.approx(5.0)

    def test_taylor_close_to_exact_loss_small_w(self, rng):
        for _ in range(50):
            x = random_unit_rows(rng, 1, 4)[0]
            y = int(rng.integers(0, 2))
            w = rng.normal(size=4)
            w *= 0.1 / max(np.linalg.norm(w), 0.1)
            p = lr_poly(single_tuple_ds(x, y))
            assert abs(eval_poly(p, w) - exact_logistic_loss(x, y, w)) < 1e-3

    def test_third_order_remainder_bound(self, rng):
        # |quadratic - exact| <= |x.w|^3 / 16 for any tuple (max |f'''| / 6
        # is ~0.016, well under 1/16).
        for _ in range(200):
            x = random_unit_rows(rng, 1, 3)[0]
            y = int(rng.integers(0, 2))
            w = rng.normal(size=3)
            w *= rng.uniform(0, 0.5) / max(np.linalg.norm(w), 1e-9)
            p = lr_poly(single_tuple_ds(x, y))
            err = abs(eval_poly(p, w) - exact_logistic_loss(x, y, w))
            assert err <= abs(np.dot(x, w)) ** 3 / 16.0 + 1e-9


class TestGradientPoly:
    def test_w_zero_returns_linear_term(self, rng):
        ds = random_dataset(rng, 5, 4)
        p = lr_poly(ds)
        np.testing.assert_array_equal(gradient_poly(p, np.zeros(4)), p.c1)

    def test_symmetric_reduction(self, rng):
        ds = random_dataset(rng, 5, 3)
        p = lr_poly(ds)  # symmetric c2
        w = rng.normal(size=3)
        np.testing.assert_allclose(
            gradient_poly(p, w), p.c1 + 2.0 * p.c2 @ w, atol=1e-12
        )

    def test_matches_central_finite_differences(self, rng):
        # Oracle: central differences of eval_poly with step 1e-5.
        h = 1e-5
        for _ in range(100):
            d = int(rng.integers(1, 6))
            p = PolyObjective(
                c0=float(rng.normal()),
                c1=rng.normal(size=d),
                c2=rng.normal(size=(d, d)),
            )
            w = rng.normal(size=d)
            grad = gradient_poly(p, w)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (eval_poly(p, w + e) - eval_poly(p, w - e)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestAdditivityProperty:
    def test_union_equals_cellwise_sum(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            n1, n2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            d1, d2 = random_dataset(rng, n1, d), random_dataset(rng, n2, d)
            merged = EncodedDataset(
                X=np.vstack([d1.X, d2.X]),
                y=np.concatenate([d1.y, d2.y]),
                z=np.concatenate([d1.z, d2.z]),
                feature_names=d1.feature_names,
            )
            pm, p1, p2 = lr_poly(merged), lr_poly(d1), lr_poly(d2)
            np.testing.assert_allclose(pm.c0, p1.c0 + p2.c0, rtol=1e-12)
            np.testing.assert_allclose(pm.c1, p1.c1 + p2.c1, atol=1e-12)
            np.testing.assert_allclose(pm.c2, p1.c2 + p2.c2, atol=1e-12)


class TestSerialization:
    def test_layout_keys(self, rng):
        d = poly_dict(lr_poly(random_dataset(rng, 2, 2)))
        assert set(d) == {"c0", "c1", "c2"}
        assert isinstance(d["c2"][0], list)  # row-major nested lists
