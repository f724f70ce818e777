import json
import math

import numpy as np
import pytest

from fairdp import trainers as trainers_mod
from fairdp.cli import load_encoded_dataset
from fairdp.dataset import EncodedDataset, encode, split
from fairdp.evaluation import accuracy, risk_difference
from fairdp.mechanisms import (
    compose_split_delta,
    compose_split_epsilon,
    gaussian_sigma,
    l1_sensitivity_fair,
    l2_sensitivity_fair,
    perturb,
)
from fairdp.optimizer import RegularizationPolicy, minimize_quadratic
from fairdp.polynomial import fair_poly, lr_poly
from fairdp.trainers import (
    TrainedModel,
    BudgetInfo,
    train_adfc,
    train_fair_lr,
    train_fm,
    train_lr,
    train_pdfc,
    train_relaxed_fm,
)

from synthdata import make_adult_like
from toys import GOLDEN_DIR, TOY_CSV, TOY_SCHEMA, noise_free, toy_d2, toy_d3


def load_golden(name):
    return json.loads((GOLDEN_DIR / name).read_text())


class TestFm:
    def test_huge_epsilon_approaches_clean_minimizer(self, conditioned_ds):
        with noise_free():
            clean = train_fm(conditioned_ds, 1e9, seed=3)
        noisy = train_fm(conditioned_ds, 1e9, seed=3)
        assert np.linalg.norm(noisy.w - clean.w) <= 1e-3

    def test_golden_seeded_run(self):
        golden = load_golden("train_fm_d2.json")
        model = train_fm(toy_d2(), epsilon=2.0, seed=7)
        np.testing.assert_array_equal(model.w, np.array(golden["w"]))
        assert model.budgets.epsilon == golden["budgets"]["epsilon"]
        assert model.sensitivity_used == golden["sensitivity_used"] == 3.0

    def test_epsilon_guard(self):
        with pytest.raises(ValueError):
            train_fm(toy_d2(), epsilon=0.0, seed=0)

    def test_determinism(self):
        a = train_fm(toy_d2(), epsilon=0.5, seed=21)
        b = train_fm(toy_d2(), epsilon=0.5, seed=21)
        np.testing.assert_array_equal(a.w, b.w)


class TestRelaxedFm:
    def test_gaussian_beats_laplace_scale_here(self, conditioned_ds):
        # The utility edge: for these (eps, delta, d) the calibrated sigma is
        # below the Laplace mechanism's standard deviation at the same eps.
        d = conditioned_ds.d
        sigma = gaussian_sigma(1e-2, 1e-3, math.sqrt(d * d / 16 + d))
        laplace_std = (d * d / 4 + d) / 1e-2 * math.sqrt(2.0)
        assert sigma < laplace_std

    def test_huge_epsilon_approaches_clean_minimizer(self, conditioned_ds):
        with noise_free():
            clean = train_relaxed_fm(conditioned_ds, 1e9, 1e-3, seed=5)
        noisy = train_relaxed_fm(conditioned_ds, 1e9, 1e-3, seed=5)
        assert np.linalg.norm(noisy.w - clean.w) <= 1e-3

    def test_delta_guard(self):
        with pytest.raises(ValueError):
            train_relaxed_fm(toy_d2(), 1.0, 1.0, seed=0)

    def test_budgets_recorded(self):
        m = train_relaxed_fm(toy_d2(), 0.7, 1e-4, seed=1)
        assert m.budgets.epsilon == 0.7
        assert m.budgets.delta == 1e-4
        assert m.method == "RelaxedFM"


class TestPdfc:
    def test_equal_budgets_compose_to_same(self, conditioned_ds):
        m = train_pdfc(conditioned_ds, 0.8, 0.8, s_index=1, seed=2)
        assert m.budgets.epsilon == 0.8

    def test_constant_protected_same_objective_alpha_aware_noise(self, rng):
        # With a constant protected attribute the penalty vanishes, so the
        # clean objective and the noise-free fit do not depend on alpha1; the
        # noise still does, because the sensitivity bound cannot look at the
        # data.
        from conftest import random_unit_rows
        from fairdp.dataset import EncodedDataset

        X = random_unit_rows(rng, 30, 3)
        y = rng.integers(0, 2, size=30)
        ds = EncodedDataset(X=X, y=y, z=np.ones(30, dtype=int),
                            feature_names=("a", "b", "c"))
        with_pen, without = fair_poly(ds, 5.0), fair_poly(ds, 0.0)
        np.testing.assert_array_equal(with_pen.c1, without.c1)
        np.testing.assert_array_equal(with_pen.c2, without.c2)
        np.testing.assert_array_equal(without.c1, lr_poly(ds).c1)
        for train, args in ((train_pdfc, (0.5, 0.5)),
                            (train_adfc, (0.5, 0.5, 1e-3, 1e-3))):
            with noise_free():
                clean = [train(ds, *args, s_index=0, alpha1=a, seed=9) for a in (5.0, 0.0)]
            np.testing.assert_array_equal(clean[0].w, clean[1].w)
        pdfc = train_pdfc(ds, 0.5, 0.5, s_index=0, alpha1=5.0, seed=9)
        assert pdfc.sensitivity_used == l1_sensitivity_fair(3, 5.0) == 9 / 4 + 11 * 3
        assert train_pdfc(ds, 0.5, 0.5, s_index=0, alpha1=0.0, seed=9).sensitivity_used \
            == 9 / 4 + 3
        adfc = train_adfc(ds, 0.5, 0.5, 1e-3, 1e-3, s_index=0, alpha1=5.0, seed=9)
        assert adfc.sensitivity_used == l2_sensitivity_fair(3, 5.0)

    def test_golden_seeded_run(self):
        golden = load_golden("train_pdfc_d3.json")
        model = train_pdfc(toy_d3(), eps_s=0.5, eps_n=1.0, s_index=1, alpha1=1.0, seed=11)
        np.testing.assert_array_equal(model.w, np.array(golden["w"]))
        assert model.budgets.epsilon == pytest.approx(0.5 / 3 + 2.0 / 3, rel=1e-12)
        assert model.budgets.s_index == 1

    def test_zero_noise_hook_reproduces_fair_lr(self, conditioned_ds):
        with noise_free():
            hooked = train_pdfc(conditioned_ds, 0.1, 0.2, s_index=2, alpha1=1.0, seed=4)
        fair = train_fair_lr(conditioned_ds, alpha1=1.0)
        assert np.abs(hooked.w - fair.w).max() <= 1e-8


class TestAdfc:
    def test_composite_delta_arithmetic(self, conditioned_ds):
        m = train_adfc(conditioned_ds, 1.0, 1.0, 1e-3, 1e-3, s_index=0, seed=0)
        assert m.budgets.delta == pytest.approx(1.0 - (1.0 - 1e-3) ** 2, abs=1e-16)

    def test_symmetric_budgets_match_single_budget_stream(self, conditioned_ds):
        # With eps_s=eps_n and delta_s=delta_n both groups share one sigma, so
        # the draw stream equals unsplit perturbation of the fair polynomial.
        ds = conditioned_ds
        m = train_adfc(ds, 0.9, 0.9, 1e-3, 1e-3, s_index=1, alpha1=1.0, seed=17)
        sigma = gaussian_sigma(0.9, 1e-3, l2_sensitivity_fair(ds.d))
        noisy = perturb(fair_poly(ds, 1.0), "gaussian", sigma, sigma, 0,
                        np.random.default_rng(17))
        w, _ = minimize_quadratic(noisy)
        np.testing.assert_array_equal(m.w, w)

    def test_golden_seeded_run(self):
        golden = load_golden("train_adfc_d3.json")
        model = train_adfc(toy_d3(), eps_s=0.5, eps_n=1.0, delta_s=1e-3,
                           delta_n=1e-4, s_index=1, alpha1=1.0, seed=13)
        np.testing.assert_array_equal(model.w, np.array(golden["w"]))
        assert model.budgets.epsilon == pytest.approx(0.5 / 3 + 2.0 / 3, rel=1e-12)
        assert model.budgets.delta == pytest.approx(
            1.0 - (1.0 - 1e-3) * (1.0 - 1e-4), rel=1e-12
        )

    def test_zero_noise_hook_reproduces_fair_lr(self, conditioned_ds):
        with noise_free():
            hooked = train_adfc(conditioned_ds, 0.3, 0.3, 1e-4, 1e-4, s_index=0,
                                alpha1=1.0, seed=6)
        fair = train_fair_lr(conditioned_ds, alpha1=1.0)
        assert np.abs(hooked.w - fair.w).max() <= 1e-8


class TestBaselines:
    def test_lr_separable_accuracy(self):
        from fairdp.dataset import EncodedDataset

        X = np.array([[0.9, 0.1], [0.85, 0.15], [0.1, 0.2], [0.05, 0.3]])
        ds = EncodedDataset(X=X, y=[1, 1, 0, 0], z=[0, 1, 0, 1],
                            feature_names=("a", "b"))
        model = train_lr(ds, policy=RegularizationPolicy(max_gd_iters=4000, gd_step=1.0))
        assert accuracy(model, ds) == 1.0

    def test_fair_lr_alpha_zero_equals_clean_fm(self, conditioned_ds):
        fair = train_fair_lr(conditioned_ds, alpha1=0.0)
        with noise_free():
            clean_fm = train_fm(conditioned_ds, 1.0, seed=0)
        np.testing.assert_array_equal(fair.w, clean_fm.w)

    def test_fair_lr_reduces_rd_on_adult_like_data(self):
        ds = make_adult_like(20000, seed=42)
        train, test = split(ds, 0.2, seed=0)
        policy = RegularizationPolicy(max_gd_iters=4000, gd_step=1.0)
        lr = train_lr(train, policy=policy)
        fair = train_fair_lr(train, alpha1=1.0)
        rd_lr = risk_difference(lr, test)
        rd_fair = risk_difference(fair, test)
        assert rd_fair < rd_lr

    def test_no_budgets_on_baselines(self, conditioned_ds):
        assert train_lr(conditioned_ds).budgets is None
        assert train_fair_lr(conditioned_ds).budgets is None


PRIVATE_TRAINERS = {
    "FM": lambda ds, eps, **kw: train_fm(ds, eps, seed=0, **kw),
    "RelaxedFM": lambda ds, eps, **kw: train_relaxed_fm(ds, eps, 1e-3, seed=0, **kw),
    "PDFC": lambda ds, eps, **kw: train_pdfc(ds, eps, 1.0, s_index=0, **kw),
    "ADFC": lambda ds, eps, **kw: train_adfc(ds, eps, 1.0, 1e-3, 1e-3, s_index=0, **kw),
}


class TestInputValidation:
    """Every private trainer rejects bad inputs with a ValueError naming the
    parameter, before any noise is drawn."""

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("method", sorted(PRIVATE_TRAINERS))
    def test_epsilon_outside_open_positive_range(self, method, eps):
        name = "eps_s" if method in ("PDFC", "ADFC") else "epsilon"
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            PRIVATE_TRAINERS[method](toy_d3(), eps)

    def test_eps_n_checked_too(self):
        with pytest.raises(ValueError, match="eps_n must be finite and positive"):
            train_pdfc(toy_d3(), 1.0, 0.0, s_index=0)
        with pytest.raises(ValueError, match="eps_n must be finite and positive"):
            train_adfc(toy_d3(), 1.0, math.nan, 1e-3, 1e-3, s_index=0)
        with pytest.raises(ValueError, match="eps_n 1e-320 is too small"):
            train_pdfc(toy_d3(), 1.0, 1e-320, s_index=0)
        with pytest.raises(ValueError, match="eps_n 1e-320 is too small"):
            train_adfc(toy_d3(), 1.0, 1e-320, 1e-3, 1e-3, s_index=0)

    @pytest.mark.parametrize("method", sorted(PRIVATE_TRAINERS))
    def test_overflowing_noise_scale_names_epsilon(self, method):
        name = "eps_s" if method in ("PDFC", "ADFC") else "epsilon"
        with pytest.raises(ValueError, match=f"{name} 1e-320 is too small"):
            PRIVATE_TRAINERS[method](toy_d3(), 1e-320)

    @pytest.mark.parametrize("train", [train_pdfc, train_adfc])
    @pytest.mark.parametrize("s_index", [3, 7, -1])
    def test_s_index_out_of_range_even_without_noise(self, train, s_index):
        args = (1.0, 1.0) if train is train_pdfc else (1.0, 1.0, 1e-3, 1e-3)
        with noise_free():
            with pytest.raises(ValueError, match=f"s_index {s_index} out of range for d=3"):
                train(toy_d3(), *args, s_index=s_index)

    @pytest.mark.parametrize("method", sorted(PRIVATE_TRAINERS))
    def test_rows_outside_unit_ball_rejected_before_noise(self, method, monkeypatch):
        # encode() skips the scaling: toy.csv rows reach norm 79.4, where the
        # sensitivity bounds (which assume ||x|| <= 1, x >= 0) do not hold.
        _, schema, raw = load_encoded_dataset(TOY_CSV, TOY_SCHEMA)
        ds = encode(raw, schema)
        for name in ("l1_sensitivity_fair", "l2_sensitivity_fair", "perturb"):
            monkeypatch.setattr(trainers_mod, name, None)  # any call would fail
        with pytest.raises(ValueError, match=r"unit ball .*row norm exceeds 1: max=79\.4"):
            PRIVATE_TRAINERS[method](ds, 1.0)

    @pytest.mark.parametrize("X, problem", [
        ([[0.5, -0.1], [0.2, 0.2]], "negative or NaN"),
        ([[0.5, math.nan], [0.2, 0.2]], "negative or NaN"),
        ([[0.8, 0.7], [0.2, 0.2]], "row norm exceeds 1"),
    ])
    def test_rows_outside_unit_ball_cases(self, X, problem):
        ds = EncodedDataset(X=np.array(X), y=[0, 1], z=[1, 0], feature_names=("a", "b"))
        for _ in range(2):  # the second call reads the cached outcome
            with pytest.raises(ValueError, match=problem):
                train_fm(ds, 1.0, seed=0)

    @pytest.mark.parametrize("alpha1", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha1(self, alpha1):
        with pytest.raises(ValueError, match="alpha1 must be finite"):
            train_pdfc(toy_d3(), 1.0, 1.0, s_index=0, alpha1=alpha1)
        with pytest.raises(ValueError, match="alpha1 must be finite"):
            train_adfc(toy_d3(), 1.0, 1.0, 1e-3, 1e-3, s_index=0, alpha1=alpha1)
        with pytest.raises(ValueError, match="alpha1 must be finite"):
            train_fair_lr(toy_d3(), alpha1=alpha1)


class TestModelInvariants:
    def test_budget_bookkeeping_recomputes(self, conditioned_ds):
        d = conditioned_ds.d
        pdfc = train_pdfc(conditioned_ds, 0.4, 1.3, s_index=1, seed=8)
        assert pdfc.budgets.epsilon == compose_split_epsilon(0.4, 1.3, d)
        adfc = train_adfc(conditioned_ds, 0.4, 1.3, 1e-3, 1e-5, s_index=1, seed=8)
        assert adfc.budgets.epsilon == compose_split_epsilon(0.4, 1.3, d)
        assert adfc.budgets.delta == compose_split_delta(1e-3, 1e-5)

    def test_budgets_present_iff_private(self):
        with pytest.raises(ValueError):
            TrainedModel(w=np.zeros(2), method="LR", budgets=BudgetInfo(epsilon=1.0),
                         sensitivity_used=None, alpha1=0.0, seed=None, diagnostics={})
        with pytest.raises(ValueError):
            TrainedModel(w=np.zeros(2), method="FM", budgets=None,
                         sensitivity_used=3.0, alpha1=0.0, seed=1, diagnostics={})

    def test_monotone_noise_sanity(self, conditioned_ds):
        # Mean distance to the clean solution shrinks as eps grows.
        ds = conditioned_ds
        with noise_free():
            clean_plain = train_fm(ds, 1.0, seed=0).w
        clean_fair = train_fair_lr(ds, alpha1=1.0).w

        def mean_dist(train_fn, clean):
            dists = []
            for seed in range(50):
                dists.append(np.linalg.norm(train_fn(seed).w - clean))
            return np.mean(dists)

        cases = [
            (lambda s, e=None: train_fm(ds, e, seed=s), clean_plain),
            (lambda s, e=None: train_relaxed_fm(ds, e, 1e-3, seed=s), clean_plain),
            (lambda s, e=None: train_pdfc(ds, e, e, s_index=0, seed=s), clean_fair),
            (lambda s, e=None: train_adfc(ds, e, e, 1e-3, 1e-3, s_index=0, seed=s),
             clean_fair),
        ]
        for train_fn, clean in cases:
            tight = mean_dist(lambda s: train_fn(s, 0.01), clean)
            loose = mean_dist(lambda s: train_fn(s, 10.0), clean)
            assert tight > loose
