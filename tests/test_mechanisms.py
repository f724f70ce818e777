import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from fairdp import mechanisms
from fairdp.dataset import EncodedDataset
from fairdp.evaluation import DEFAULT_DELTA_GRID, DEFAULT_EPS_GRID
from fairdp.mechanisms import (
    calibrate,
    compose_split_delta,
    compose_split_epsilon,
    gaussian_sample,
    gaussian_sigma,
    l1_sensitivity_fair,
    l2_sensitivity_fair,
    laplace_sample,
    perturb,
    sensitive_mask,
    split_total_delta,
)
from fairdp.polynomial import PolyObjective, fair_poly, lr_poly

from conftest import random_unit_rows
from toys import GOLDEN_DIR, perturb_golden_inputs


def log_privacy_profile(eps, sigma, sensitivity):
    """log delta(eps) of the Gaussian mechanism (Balle & Wang, ICML 2018,
    Thm 8): delta(eps) = Phi(D/2s - eps s/D) - e^eps Phi(-D/2s - eps s/D),
    with D the L2 sensitivity and s the noise scale, in log space so that
    small tails keep their relative precision.  A delta that rounds to 0 is
    -inf."""
    a, b = sensitivity / (2.0 * sigma), eps * sigma / sensitivity
    first, second = log_ndtr(a - b), log_ndtr(-a - b)
    if eps + second - first >= 0:
        return -math.inf
    return first + math.log1p(-math.exp(eps + second - first))


def neighboring_pair(rng, n, d):
    """Two datasets differing in exactly the first tuple."""
    X = random_unit_rows(rng, n + 1, d)
    y = rng.integers(0, 2, size=n + 1)
    z = rng.integers(0, 2, size=n + 1)
    names = tuple(f"f{i}" for i in range(d))
    a = EncodedDataset(X=X[:n], y=y[:n], z=z[:n], feature_names=names)
    Xb = X[:n].copy()
    Xb[0] = X[n]
    yb, zb = y[:n].copy(), z[:n].copy()
    yb[0], zb[0] = y[n], z[n]
    b = EncodedDataset(X=Xb, y=yb, z=zb, feature_names=names)
    return a, b


def one_coordinate_pair(rng, n, d):
    """Like :func:`neighboring_pair`, but every row, the replaced one too,
    is a unit vector times 0, 1 or one uniform draw."""
    X = np.zeros((n + 1, d))
    X[np.arange(n + 1), rng.integers(d, size=n + 1)] = rng.choice([0.0, 1.0, rng.random()],
                                                                size=n + 1)
    y = rng.integers(0, 2, size=n + 1)
    z = rng.integers(0, 2, size=n + 1)
    names = tuple(f"f{i}" for i in range(d))
    rows = [n, *range(1, n)]
    a = EncodedDataset(X=X[:n], y=y[:n], z=z[:n], feature_names=names)
    b = EncodedDataset(X=X[rows], y=y[rows], z=z[rows], feature_names=names)
    return a, b


def monomials(d):
    """All d + d^2 monomial ids in canonical (noise-draw) order: (e,) is the
    degree-1 monomial w_e, (e, l) the ordered degree-2 monomial w_e w_l."""
    return [(e,) for e in range(d)] + [(e, l) for e in range(d) for l in range(d)]


def coefficient_diffs(pa, pb):
    dc1 = pa.c1 - pb.c1
    dc2 = pa.c2 - pb.c2
    l1 = np.abs(dc1).sum() + np.abs(dc2).sum()
    l2 = math.sqrt((dc1 ** 2).sum() + (dc2 ** 2).sum())
    return l1, l2


class TestSensitivityFormulas:
    @pytest.mark.parametrize("d,expected", [(2, 3.0), (4, 8.0)])
    def test_l1_lr(self, d, expected):
        assert l1_sensitivity_fair(d, 0.0) == expected

    @pytest.mark.parametrize("d,expected", [(2, 7.0), (4, 16.0)])
    def test_l1_fair(self, d, expected):
        assert l1_sensitivity_fair(d) == expected
        assert l1_sensitivity_fair(d, 1.0) == expected

    def test_fair_bounds_scale_with_alpha1(self):
        # d^2/4 + (1 + 2|alpha1|) d and sqrt(d^2/16 + (1 + 2|alpha1|)^2 d);
        # alpha1 = 0 is the plain logistic bound, d^2/4 + d and
        # sqrt(d^2/16 + d) bit for bit.
        assert l1_sensitivity_fair(2, 20.0) == 1.0 + 41.0 * 2
        assert l1_sensitivity_fair(2, -20.0) == l1_sensitivity_fair(2, 20.0)
        assert l1_sensitivity_fair(5, 0.0) == 5 * 5 / 4.0 + 5
        assert l2_sensitivity_fair(2, 20.0) == pytest.approx(
            math.sqrt(0.25 + 41.0 ** 2 * 2), rel=1e-15)
        assert l2_sensitivity_fair(5, 0.0) == math.sqrt(5 * 5 / 16.0 + 5)

    def test_l2_lr(self):
        assert l2_sensitivity_fair(4, 0.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert l2_sensitivity_fair(1, 0.0) == pytest.approx(math.sqrt(17.0) / 4.0, rel=1e-15)

    def test_l2_fair(self):
        assert l2_sensitivity_fair(4) == pytest.approx(math.sqrt(37.0), rel=1e-15)
        assert l2_sensitivity_fair(2) == pytest.approx(math.sqrt(18.25), rel=1e-15)

    def test_domain_guard(self):
        for fn in (l1_sensitivity_fair, l2_sensitivity_fair):
            for alpha1 in (0.0, 1.0):
                with pytest.raises(ValueError):
                    fn(0, alpha1)

    @pytest.mark.parametrize("fn, alpha1", [
        *((l1_sensitivity_fair, a) for a in (1e307, -1e308, math.inf, math.nan)),
        *((l2_sensitivity_fair, a) for a in (1e200, -1e308, math.inf, math.nan)),
    ])
    def test_non_finite_bound_names_alpha1(self, fn, alpha1):
        # l2 used to raise OverflowError from the power at 1e200, and l1 to
        # return inf, which a trainer then blamed on its epsilon.
        with pytest.raises(ValueError, match=r"^alpha1 .* non-finite sensitivity bound"):
            fn(102, alpha1)

    def test_largest_finite_bounds_keep_the_formula(self):
        assert l1_sensitivity_fair(102, 1e300) == 102 * 102 / 4.0 + (1.0 + 2.0 * 1e300) * 102
        assert l2_sensitivity_fair(102, 1e150) == math.sqrt(
            102 * 102 / 16.0 + (1.0 + 2.0 * 1e150) ** 2 * 102)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_empirical_bounds_on_neighbors(self, rng, d):
        # Quick version of the acceptance sweep: measured coefficient
        # differences never exceed the closed forms, for every penalty weight.
        for _ in range(100):
            a, b = neighboring_pair(rng, 5, d)
            l1, l2 = coefficient_diffs(lr_poly(a), lr_poly(b))
            assert l1 <= l1_sensitivity_fair(d, 0.0)
            assert l2 <= l2_sensitivity_fair(d, 0.0)
            for alpha1 in (0.0, 0.5, 1.0, 2.0, 20.0):
                l1f, l2f = coefficient_diffs(fair_poly(a, alpha1), fair_poly(b, alpha1))
                assert l1f <= l1_sensitivity_fair(d, alpha1)
                assert l2f <= l2_sensitivity_fair(d, alpha1)


class TestSplitBudgetLedger:
    # PDFC draws Laplace noise at scale b_s on the monomials S that contain
    # w_s and b_n on the rest.  Replacing one row moves the fair coefficients
    # by v, so the output density changes by at most
    # exp(sum_S |v| / b_s + sum_N |v| / b_n); that realised loss must stay
    # within the epsilon PDFC records.  Scales and record come from
    # ``calibrate``, the code the trainers run.
    EPS_PAIRS = np.array([(10.0, 0.01), (0.01, 10.0), (1.0, 1.0), (3.0, 0.3), (0.3, 3.0)])

    @pytest.mark.parametrize("d", range(1, 7))
    def test_realised_loss_within_composed_epsilon(self, rng, d):
        masks = [sensitive_mask(d, s) for s in range(d)]
        pairs = [make(rng, 5, d) for make in (neighboring_pair, one_coordinate_pair)
                 for _ in range(100)]
        for alpha1 in (0.0, 1.0, 20.0):
            records = [calibrate(False, True, d, alpha1, es, en) for es, en in self.EPS_PAIRS]
            assert {r.kind for r in records} == {"laplace"}
            scale_s, scale_n, composed = (np.array([getattr(r, key) for r in records])
                                          for key in ("scale_s", "scale_n", "epsilon"))
            for a, b in pairs:
                pa, pb = fair_poly(a, alpha1), fair_poly(b, alpha1)
                v = np.abs(np.concatenate([pa.c1 - pb.c1, (pa.c2 - pb.c2).ravel()]))
                for mask in masks:
                    loss = v[mask].sum() / scale_s + v[~mask].sum() / scale_n
                    assert (loss <= composed).all(), (alpha1, loss, composed)


class TestGaussianSplitBudgetLedger:
    # ADFC draws Gaussian noise at sigma_s on the monomials S that contain
    # w_s and sigma_n on the rest.  Replacing one row moves the fair
    # coefficients by v, so the pair of output laws is the Gaussian
    # mechanism's at unit noise with sensitivity mu = ||v / sigma||_2; its
    # exact privacy profile at the epsilon ADFC records must stay within the
    # delta it records.  Sigmas and record come from ``calibrate``.
    @pytest.mark.parametrize("d", range(1, 7))
    def test_realised_delta_within_recorded(self, rng, d):
        masks = [sensitive_mask(d, s) for s in range(d)]
        pairs = [make(rng, 5, d) for make in (neighboring_pair, one_coordinate_pair)
                 for _ in range(100)]
        for alpha1 in (0.0, 1.0, 20.0):
            diffs = []
            for a, b in pairs:
                pa, pb = fair_poly(a, alpha1), fair_poly(b, alpha1)
                v = np.concatenate([pa.c1 - pb.c1, (pa.c2 - pb.c2).ravel()])
                diffs += [(np.linalg.norm(v[mask]), np.linalg.norm(v[~mask])) for mask in masks]
            for delta in (1e-3, 1e-7):
                part = split_total_delta(delta)
                for eps_s, eps_n in TestSplitBudgetLedger.EPS_PAIRS:
                    record = calibrate(True, True, d, alpha1, eps_s, eps_n, part, part)
                    assert record.kind == "gaussian"
                    for norm_s, norm_n in diffs:
                        mu = math.hypot(norm_s / record.scale_s, norm_n / record.scale_n)
                        if mu > 0:
                            realised = log_privacy_profile(record.epsilon, 1.0, mu)
                            assert realised <= math.log(record.delta), (
                                alpha1, eps_s, eps_n, delta, realised)


class TestGaussianSigma:
    def test_golden_value(self):
        # Frozen from a 60-digit mpmath evaluation of the same formula.
        assert gaussian_sigma(1.0, 1e-3, 1.0) == pytest.approx(
            3.787677652877969, abs=1e-14
        )

    def test_matches_high_precision_recomputation(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for eps, delta, d2 in [(1.0, 1e-3, 1.0), (0.01, 1e-7, 2.5), (10.0, 1e-4, 7.0)]:
            L = mp.log(mp.sqrt(2 / mp.pi) / mp.mpf(delta))
            expected = mp.sqrt(2) * d2 / (2 * eps) * (mp.sqrt(L) + mp.sqrt(L + eps))
            assert gaussian_sigma(eps, delta, d2) == pytest.approx(
                float(expected), rel=1e-14
            )

    def test_linear_in_sensitivity(self):
        assert gaussian_sigma(0.5, 1e-4, 2.0) == pytest.approx(
            2.0 * gaussian_sigma(0.5, 1e-4, 1.0), rel=1e-15
        )

    def test_monotone_decreasing_in_epsilon(self):
        grid = [10 ** k for k in (-2, -1.5, -1, 0, 0.5, 1)]
        sigmas = [gaussian_sigma(e, 1e-3, 1.0) for e in grid]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_defining_identity(self):
        for eps in (0.01, 0.1, 1.0, 10.0):
            for delta in (1e-3, 1e-5, 1e-7):
                sigma = gaussian_sigma(eps, delta, 3.0)
                L = math.log(math.sqrt(2 / math.pi) / delta)
                lhs = sigma * 2 * eps / (math.sqrt(2) * 3.0)
                assert abs(lhs - (math.sqrt(L) + math.sqrt(L + eps))) < 1e-12

    @pytest.mark.parametrize("eps", DEFAULT_EPS_GRID)
    def test_exact_privacy_profile_within_delta(self, eps):
        # Every default-grid sigma, at the full delta (RelaxedFM) and at
        # ADFC's per-group split_total_delta(delta), meets the exact
        # Gaussian privacy profile; a quarter of it does not.
        for grid_delta in DEFAULT_DELTA_GRID:
            for delta in (grid_delta, split_total_delta(grid_delta)):
                for sens in (1.0, l2_sensitivity_fair(102, 1.0)):
                    sigma = gaussian_sigma(eps, delta, sens)
                    assert log_privacy_profile(eps, sigma, sens) <= math.log(delta)
                    assert log_privacy_profile(eps, sigma / 4, sens) > math.log(delta)

    def test_privacy_profile_matches_high_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        for eps, delta in [(0.01, 1e-7), (1.0, 1e-3), (10.0, 1e-5)]:
            sigma = gaussian_sigma(eps, delta, 1.0)
            a, b = 1 / (2 * mp.mpf(sigma)), eps * mp.mpf(sigma)
            exact = mp.ncdf(a - b) - mp.exp(eps) * mp.ncdf(-a - b)
            assert log_privacy_profile(eps, sigma, 1.0) == pytest.approx(
                float(mp.log(exact)), rel=1e-9
            )

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            gaussian_sigma(0.0, 1e-3, 1.0)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 0.9, 1.0)  # above sqrt(2/pi)
        with pytest.raises(ValueError):
            gaussian_sigma(1.0, 1e-3, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_epsilon_and_sensitivity_out_of_range_rejected(self, bad):
        # NaN and inf used to pass the `<= 0` tests and give sigma = nan.
        with pytest.raises(ValueError, match=f"^epsilon must be finite and positive, got {bad}$"):
            gaussian_sigma(bad, 1e-5, 1.0)
        with pytest.raises(ValueError,
                           match=f"^sensitivity must be finite and positive, got {bad}$"):
            gaussian_sigma(1.0, 1e-5, bad)


class TestSamplers:
    def test_laplace_moments(self):
        rng = np.random.default_rng(99)
        draws = laplace_sample(rng, np.full(200_000, 2.0))
        assert abs(draws.mean()) < 0.02
        assert draws.std() == pytest.approx(2.0 * math.sqrt(2.0), rel=0.01)

    def test_gaussian_moments(self):
        rng = np.random.default_rng(98)
        draws = gaussian_sample(rng, np.full(200_000, 3.0))
        assert abs(draws.mean()) < 0.03
        assert draws.std() == pytest.approx(3.0, rel=0.01)

    def test_identical_seed_identical_stream(self):
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        for _ in range(100):
            assert laplace_sample(a, np.array([1.5])) == laplace_sample(b, np.array([1.5]))
        a = np.random.default_rng(6)
        b = np.random.default_rng(6)
        for _ in range(100):
            assert gaussian_sample(a, np.array([0.7])) == gaussian_sample(b, np.array([0.7]))

    def test_nonpositive_scale_rejected(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                laplace_sample(rng, np.array([bad]))
            with pytest.raises(ValueError):
                gaussian_sample(rng, np.array([bad]))
            with pytest.raises(ValueError):
                laplace_sample(rng, np.array([1.0, bad]))
            poly, s_index, _ = perturb_golden_inputs()
            with pytest.raises(ValueError):
                perturb(poly, "laplace", 1.0, bad, s_index, rng)


class TestPartition:
    """sensitive_mask splits the monomials by whether they contain w_s."""

    def test_d2_s0_enumeration(self):
        mask = sensitive_mask(2, 0)
        phi_s = {m for m, flag in zip(monomials(2), mask) if flag}
        assert phi_s == {(0,), (0, 0), (0, 1), (1, 0)}

    def test_d1_degenerate(self):
        np.testing.assert_array_equal(sensitive_mask(1, 0), [True, True])

    def test_d5_s3_counts_by_enumeration(self):
        # Oracle: brute count over all monomials.
        mask = sensitive_mask(5, 3)
        brute_s = [m for m in monomials(5) if 3 in m]
        assert mask.sum() == len(brute_s) == 10
        assert (~mask).sum() == 20

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=50, deadline=None)
    def test_disjoint_cover_with_2d_sensitive(self, d, data):
        s = data.draw(st.integers(0, d - 1))
        mask = sensitive_mask(d, s)
        # One flag per monomial in draw order, set exactly where w_s occurs.
        assert mask.dtype == bool and mask.shape == (d + d * d,)
        assert mask.tolist() == [s in m for m in monomials(d)]
        assert mask.sum() == 2 * d

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sensitive_mask(3, 3)
        with pytest.raises(ValueError):
            sensitive_mask(3, -1)
        with pytest.raises(ValueError):
            sensitive_mask(0, 0)


class TestPerturb:
    def test_zero_noise_identity(self, monkeypatch):
        monkeypatch.setitem(mechanisms._SAMPLERS, "laplace",
                            lambda rng, scale: np.zeros_like(scale))
        poly, s_index, seed = perturb_golden_inputs()
        out = perturb(poly, "laplace", 1.0, 1.0, s_index, np.random.default_rng(seed))
        assert out.c0 == poly.c0
        np.testing.assert_array_equal(out.c1, poly.c1)
        np.testing.assert_array_equal(out.c2, poly.c2)

    def test_equal_scales_partition_independent(self):
        # One draw per monomial in canonical order makes equal-distribution
        # groups produce the exact same stream for any s_index.
        poly, _, seed = perturb_golden_inputs()
        outs = [perturb(poly, "laplace", 0.8, 0.8, s, np.random.default_rng(seed))
                for s in range(poly.d)]
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0].c1, other.c1)
            np.testing.assert_array_equal(outs[0].c2, other.c2)

    def test_seeded_golden(self):
        golden = json.loads((GOLDEN_DIR / "perturb_d3.json").read_text())
        poly, s_index, seed = perturb_golden_inputs()
        out = perturb(poly, "laplace", 2.0, 0.5, s_index, np.random.default_rng(seed))
        assert out.c0 == golden["c0"]
        np.testing.assert_array_equal(out.c1, np.array(golden["c1"]))
        np.testing.assert_array_equal(out.c2, np.array(golden["c2"]))

    def test_c0_untouched_and_determinism(self):
        poly, s_index, seed = perturb_golden_inputs()
        a = perturb(poly, "gaussian", 1.0, 3.0, s_index, np.random.default_rng(seed))
        b = perturb(poly, "gaussian", 1.0, 3.0, s_index, np.random.default_rng(seed))
        assert a.c0 == poly.c0
        np.testing.assert_array_equal(a.c1, b.c1)
        np.testing.assert_array_equal(a.c2, b.c2)
        assert not np.array_equal(a.c1, poly.c1)

    def test_dimension_mismatch(self):
        poly, _, _ = perturb_golden_inputs()
        for s_index in (poly.d, -1):
            with pytest.raises(ValueError, match="out of range"):
                perturb(poly, "laplace", 1.0, 1.0, s_index, np.random.default_rng(0))

    def test_unknown_kind_rejected(self):
        poly, s_index, _ = perturb_golden_inputs()
        for kind in ("exponential", "Laplace", ""):
            with pytest.raises(ValueError, match="unknown noise kind"):
                perturb(poly, kind, 1.0, 1.0, s_index, np.random.default_rng(0))


def reference_perturb(poly, kind, scale_s, scale_n, s_index, rng):
    """The original scalar perturbation loop, kept as the bit-exactness
    reference: monomials in canonical order, one ``rng.random()`` per Laplace
    draw and two per Gaussian draw, each transformed with ``math``."""

    def laplace(scale):
        u = rng.random()
        if u == 0.0:
            u = 2.0 ** -53
        if u < 0.5:
            return scale * math.log(2.0 * u)
        return -scale * math.log(2.0 * (1.0 - u))

    def gaussian(sigma):
        u1 = 1.0 - rng.random()
        u2 = rng.random()
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    sample = {"laplace": laplace, "gaussian": gaussian}[kind]
    c1 = poly.c1.copy()
    c2 = poly.c2.copy()
    for m in monomials(poly.d):
        draw = sample(scale_s if s_index in m else scale_n)
        if len(m) == 1:
            c1[m[0]] += draw
        else:
            c2[m[0], m[1]] += draw
    return c1, c2


class ScriptedUniforms:
    """Stands in for a Generator whose uniform stream is given up front."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


class TestBitExact:
    """The vector samplers reproduce the scalar reference bit for bit at the
    dimensions the trainers use (d = 102 is the Adult encoding)."""

    @pytest.mark.parametrize("d", [1, 7, 102])
    @pytest.mark.parametrize("kind", ["laplace", "gaussian"])
    def test_matches_scalar_reference(self, d, kind):
        gen = np.random.default_rng(d)
        poly = PolyObjective(c0=1.5, c1=gen.normal(size=d), c2=gen.normal(size=(d, d)))
        for seed in (0, 1, 20240, 2 ** 62 + 7):
            for s_index in sorted({0, d // 2, d - 1}):
                out = perturb(poly, kind, 7.25, 0.3, s_index, np.random.default_rng(seed))
                c1, c2 = reference_perturb(poly, kind, 7.25, 0.3, s_index,
                                           np.random.default_rng(seed))
                np.testing.assert_array_equal(out.c1, c1)
                np.testing.assert_array_equal(out.c2, c2)
                assert out.c0 == poly.c0

    @pytest.mark.parametrize("kind", ["laplace", "gaussian"])
    def test_edge_uniforms(self, kind):
        # u = 0 (nudged), u = 1/2 (upper branch) and u next to 1.
        stream = [0.0, 0.5, 1.0 - 2.0 ** -53, 0.25, 2.0 ** -53, 0.75] * 2
        poly = PolyObjective(c0=0.0, c1=np.zeros(2), c2=np.zeros((2, 2)))
        out = perturb(poly, kind, 2.0, 0.5, 1, ScriptedUniforms(stream))
        c1, c2 = reference_perturb(poly, kind, 2.0, 0.5, 1, ScriptedUniforms(stream))
        assert np.isfinite(out.c1).all() and np.isfinite(out.c2).all()
        np.testing.assert_array_equal(out.c1, c1)
        np.testing.assert_array_equal(out.c2, c2)

    def test_consecutive_calls_continue_the_stream(self):
        # One-entry calls walk the same uniform stream as one array call.
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        singles = [laplace_sample(a, np.array([1.5])) for _ in range(5)]
        singles += [gaussian_sample(a, np.array([0.5])) for _ in range(5)]
        arrays = np.concatenate([laplace_sample(b, np.full(5, 1.5)),
                                 gaussian_sample(b, np.full(5, 0.5))])
        np.testing.assert_array_equal(np.concatenate(singles), arrays)


class TestBulkBitExact:
    """The samplers' log and cos equal ``math.log`` and ``math.cos`` bit for
    bit on a million seeded uniforms and the edges.  At unit scale a Laplace
    draw is +-log of its argument and a Gaussian draw sqrt(-2 log u1) cos(2 pi
    u2), so the samplers' outputs are compared with the scalar transform.  A
    host whose numpy float64 cos or scipy log is not the C library's fails
    here, and every seeded private output would differ on it."""

    EDGES = [2.0 ** -53, 0.5, 1.0 - 2.0 ** -53] * 2  # each edge as u1 and as u2

    def streams(self):
        """(generator, the uniforms it yields): a million seeded ones, then the edges."""
        yield np.random.default_rng(0), np.random.default_rng(0).random(1_000_000)
        yield ScriptedUniforms(self.EDGES), np.array(self.EDGES)

    @staticmethod
    def assert_same_bits(a, b):
        mismatched = np.flatnonzero(np.asarray(a).view(np.int64) != np.asarray(b).view(np.int64))
        assert mismatched.size == 0, f"{mismatched.size} differ, first at {mismatched[:5]}"

    def test_laplace_log(self):
        for rng, u in self.streams():
            out = laplace_sample(rng, np.ones(u.size))
            expected = [math.log(2.0 * v) if v < 0.5 else -math.log(2.0 * (1.0 - v))
                        for v in u.tolist()]
            self.assert_same_bits(out, expected)

    def test_gaussian_log_and_cos(self):
        for rng, u in self.streams():
            out = gaussian_sample(rng, np.ones(u.size // 2))
            v = u.tolist()
            expected = [math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
                        for u1, u2 in zip(v[0::2], v[1::2])]
            self.assert_same_bits(out, expected)

    @pytest.mark.parametrize("kind", ["laplace", "gaussian"])
    def test_no_per_value_python_path(self, kind, monkeypatch):
        def scalar_call(x):
            raise AssertionError("a noise draw went through the math module")

        monkeypatch.setattr(math, "log", scalar_call)
        monkeypatch.setattr(math, "cos", scalar_call)
        d = 102
        poly = PolyObjective(c0=0.0, c1=np.zeros(d), c2=np.zeros((d, d)))
        out = perturb(poly, kind, 2.0, 0.5, 3, np.random.default_rng(0))
        assert np.isfinite(out.c2).all() and (out.c2 != 0.0).all()


class TestComposition:
    def test_equal_epsilons_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            eps = float(rng.uniform(1e-3, 20.0))
            d = int(rng.integers(1, 200))
            assert compose_split_epsilon(eps, eps, d) == eps

    def test_arithmetic_example(self):
        assert compose_split_epsilon(0.5, 1.0, 4) == pytest.approx(0.875, abs=1e-15)

    def test_monotone_in_both(self):
        base = compose_split_epsilon(0.5, 1.0, 5)
        assert compose_split_epsilon(0.6, 1.0, 5) > base
        assert compose_split_epsilon(0.5, 1.1, 5) > base

    def test_delta_compose(self):
        value = compose_split_delta(1e-3, 1e-3)
        assert value == pytest.approx(1.0 - (1.0 - 1e-3) ** 2, abs=1e-16)
        assert value == pytest.approx(0.001999, abs=1e-15)

    def test_delta_small_limit_and_bounds(self):
        assert compose_split_delta(1e-12, 1e-12) == pytest.approx(2e-12, rel=1e-3)
        for ds, dn in [(1e-3, 1e-5), (0.2, 0.4), (0.9, 0.9)]:
            c = compose_split_delta(ds, dn)
            assert 0.0 < c < 1.0
            assert c >= max(ds, dn)

    def test_split_total_delta_inverts_composition(self):
        for delta in (1e-3, 1e-5, 0.3):
            part = split_total_delta(delta)
            assert compose_split_delta(part, part) == pytest.approx(delta, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_split_epsilon_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^eps_s must be finite and positive, got {bad}$"):
            compose_split_epsilon(bad, 1.0, 3)
        with pytest.raises(ValueError, match=f"^eps_n must be finite and positive, got {bad}$"):
            compose_split_epsilon(1.0, bad, 3)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            compose_split_epsilon(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            compose_split_delta(0.0, 0.5)
        with pytest.raises(ValueError):
            split_total_delta(1.0)

