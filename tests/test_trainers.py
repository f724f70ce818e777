import json
import math
import re

import numpy as np
import pytest

from fairdp import trainers as trainers_mod
from fairdp.cli import load_encoded_dataset
from fairdp.dataset import EncodedDataset, split
from fairdp.evaluation import accuracy, risk_difference, train_method
from fairdp.mechanisms import (
    calibrate,
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
from toys import (GOLDEN_DIR, TOY_CSV, TOY_SCHEMA, noise_free, parsed_table,
                  reference_encode, toy_d2, toy_d3)


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
        # (1.0, 1e-4) calibrates the smaller sigma, so eps_n is what is certified.
        assert model.budgets.epsilon == 1.0
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
    "PDFC": lambda ds, eps, **kw: train_pdfc(ds, eps, 1.0, s_index=0, seed=0, **kw),
    "ADFC": lambda ds, eps, **kw: train_adfc(ds, eps, 1.0, 1e-3, 1e-3, s_index=0, seed=0, **kw),
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
            train_pdfc(toy_d3(), 1.0, 0.0, s_index=0, seed=0)
        with pytest.raises(ValueError, match="eps_n must be finite and positive"):
            train_adfc(toy_d3(), 1.0, math.nan, 1e-3, 1e-3, s_index=0, seed=0)
        with pytest.raises(ValueError, match="eps_n 1e-320 is too small"):
            train_pdfc(toy_d3(), 1.0, 1e-320, s_index=0, seed=0)
        with pytest.raises(ValueError, match="eps_n 1e-320 is too small"):
            train_adfc(toy_d3(), 1.0, 1e-320, 1e-3, 1e-3, s_index=0, seed=0)

    @pytest.mark.parametrize("train, args, text", [
        (train_relaxed_fm, (1.0, None), "delta must be in (0, 1), got None"),
        (train_adfc, (1.0, 1.0, None, None, 1), "delta_s must be in (0, 1), got None"),
        (train_adfc, (1.0, 1.0, 1e-3, None, 1), "delta_n must be in (0, 1), got None"),
        (train_adfc, (1.0, 1.0, 1e-3, 1.5, 1), "delta_n must be in (0, 1), got 1.5"),
    ])
    def test_gaussian_methods_require_delta(self, train, args, text, monkeypatch):
        # Without a delta RelaxedFM and ADFC used to draw Laplace noise and
        # return FM's and PDFC's models under their own names.
        monkeypatch.setattr(trainers_mod, "perturb", None)  # no noise is drawn
        with pytest.raises(ValueError) as exc:
            train(toy_d3(), *args, seed=0)
        assert str(exc.value) == text

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
                train(toy_d3(), *args, s_index=s_index, seed=0)

    @pytest.mark.parametrize("method", sorted(PRIVATE_TRAINERS))
    def test_rows_outside_unit_ball_rejected_before_noise(self, method, monkeypatch):
        # reference_encode skips the scaling: toy.csv rows reach norm 79.4, where the
        # sensitivity bounds (which assume ||x|| <= 1, x >= 0) do not hold.
        schema = load_encoded_dataset(TOY_CSV, TOY_SCHEMA)[1]
        ds = reference_encode(*parsed_table(TOY_CSV), schema)
        for name in ("calibrate", "perturb"):
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

    @pytest.mark.parametrize("fit, message", [
        (lambda ds: train_method(ds, "FM", True, eps=1.0), "seed must be an integer, got True"),
        (lambda ds: train_fm(ds, 1.0, seed=1.0), "seed must be an integer, got 1.0"),
        (lambda ds: train_pdfc(ds, 1.0, 1.0, s_index=np.True_, seed=0),
         "s_index must be an integer, got np.True_"),
        (lambda ds: train_adfc(ds, 1.0, 1.0, 1e-3, 1e-3, s_index=0.0, seed=0),
         "s_index must be an integer, got 0.0"),
        (lambda ds: train_relaxed_fm(ds, "1", 1e-3, seed=0), "epsilon must be a number, got '1'"),
        (lambda ds: train_adfc(ds, 1.0, 1.0, 1e-3, np.True_, s_index=0, seed=0),
         "delta_n must be a number, got np.True_"),
    ], ids=["seed-bool", "seed-float", "s_index-numpy-bool", "s_index-float", "epsilon-str",
            "delta_n-numpy-bool"])
    def test_bad_seed_index_or_budget_names_it(self, fit, message):
        # seed=True used to train with seed 1 and record true; seed=1.0 failed
        # in NumPy's SeedSequence with a TypeError naming no argument.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit(toy_d3())

    @pytest.mark.parametrize("fit, plain", [
        (lambda ds: train_fm(ds, np.float32(2.0), seed=np.int64(7)),
         lambda ds: train_fm(ds, 2.0, seed=7)),
        (lambda ds: train_relaxed_fm(ds, np.float64(0.5), np.float32(0.25), seed=np.uint8(3)),
         lambda ds: train_relaxed_fm(ds, 0.5, 0.25, seed=3)),
        (lambda ds: train_pdfc(ds, np.float32(0.5), 1, s_index=np.int64(1),
                               alpha1=np.float32(1.5), seed=np.int64(11)),
         lambda ds: train_pdfc(ds, 0.5, 1.0, s_index=1, alpha1=1.5, seed=11)),
        (lambda ds: train_adfc(ds, 0.5, 1.0, np.float32(0.125), 1e-3, s_index=np.int32(2),
                               alpha1=2, seed=13),
         lambda ds: train_adfc(ds, 0.5, 1.0, 0.125, 1e-3, s_index=2, alpha1=2.0, seed=13)),
        (lambda ds: train_fair_lr(ds, alpha1=np.float32(0.5)),
         lambda ds: train_fair_lr(ds, alpha1=0.5)),
    ], ids=["FM", "RelaxedFM", "PDFC", "ADFC", "FairLR"])
    def test_numbers_are_recorded_as_python_numbers(self, fit, plain):
        # A NumPy int64 or float32 seed, s_index, budget or alpha1 used to be
        # recorded as given, so json.dumps(model.to_dict()) raised TypeError.
        # Each value here is exact in float32, so the models are the same.
        assert json.dumps(fit(toy_d3()).to_dict()) == json.dumps(plain(toy_d3()).to_dict())

    @pytest.mark.parametrize("alpha1", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha1(self, alpha1):
        with pytest.raises(ValueError, match="alpha1 must be finite"):
            train_pdfc(toy_d3(), 1.0, 1.0, s_index=0, alpha1=alpha1, seed=0)
        with pytest.raises(ValueError, match="alpha1 must be finite"):
            train_adfc(toy_d3(), 1.0, 1.0, 1e-3, 1e-3, s_index=0, alpha1=alpha1, seed=0)
        with pytest.raises(ValueError, match="alpha1 must be finite"):
            train_fair_lr(toy_d3(), alpha1=alpha1)

    @pytest.mark.parametrize("fit, inputs", [
        (lambda ds: train_pdfc(ds, 1.0, 1.0, s_index=0, alpha1=1e300, seed=0),
         "alpha1 1e+300, eps_s 1.0 and eps_n 1.0"),
        (lambda ds: train_fm(ds, 1e-300, seed=0), "epsilon 1e-300"),
        (lambda ds: train_relaxed_fm(ds, 1e-300, 1e-5, seed=0), "epsilon 1e-300"),
        (lambda ds: train_fair_lr(ds, alpha1=1e308), "alpha1 1e+308"),
    ], ids=["PDFC", "FM", "RelaxedFM", "FairLR"])
    def test_solve_that_overflows_names_its_inputs(self, fit, inputs):
        # Finite but huge coefficients used to give NaN weights or residual
        # (and RuntimeWarnings, errors under this suite's filter).
        with pytest.raises(ValueError,
                           match=re.escape(f"the quadratic solve overflows at {inputs}: ")):
            fit(toy_d3())

    @pytest.mark.parametrize("fit, message", [
        (lambda ds: train_fair_lr(ds, alpha1=1.7e308),
         "alpha1 1.7e+308 overflows the fairness term's linear coefficients"),
        (lambda ds: train_pdfc(ds, 1, 1, 0, alpha1=1e307, seed=0),
         "the noise overflows the coefficients at alpha1 1e+307, eps_s 1 and eps_n 1"),
        (lambda ds: train_relaxed_fm(ds, 1e-307, 1e-3, seed=0),
         "the noise overflows the coefficients at epsilon 1e-307"),
    ], ids=["FairLR-fold", "PDFC-laplace", "RelaxedFM-gaussian"])
    def test_coefficient_overflow_names_its_inputs(self, fit, message):
        # The fold alpha1 * protected_cov and the noise draws used to emit a
        # RuntimeWarning (an error under this suite's filter) and then fail
        # with "polynomial coefficients must be finite", naming no setting.
        ds = load_encoded_dataset(TOY_CSV, TOY_SCHEMA)[0]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit(ds)


class TestModelInvariants:
    def test_budget_bookkeeping_recomputes(self):
        d = 3
        fm = calibrate(False, False, d, 0.0, 0.7, 0.7)
        bound = l1_sensitivity_fair(d, 0.0)
        assert (fm.kind, fm.sensitivity, fm.scale_s, fm.scale_n, fm.epsilon, fm.delta) \
            == ("laplace", bound, bound / 0.7, bound / 0.7, 0.7, None)
        relaxed = calibrate(True, False, d, 0.0, 0.7, 0.7, 1e-4, 1e-4)
        sigma = gaussian_sigma(0.7, 1e-4, l2_sensitivity_fair(d, 0.0))
        assert (relaxed.kind, relaxed.scale_s, relaxed.scale_n, relaxed.epsilon,
                relaxed.delta) == ("gaussian", sigma, sigma, 0.7, 1e-4)
        pdfc = calibrate(False, True, d, 1.0, 0.4, 1.3)
        assert pdfc.epsilon == compose_split_epsilon(0.4, 1.3, d)
        assert pdfc.delta is None
        adfc = calibrate(True, True, d, 1.0, 0.4, 1.3, 1e-3, 1e-5)
        # ADFC records the eps whose (eps, delta) calibrates the smaller sigma.
        assert adfc.scale_n < adfc.scale_s
        assert adfc.epsilon == 1.3
        assert adfc.delta == compose_split_delta(1e-3, 1e-5)
        # The budgets are checked before the bound (non-finite at alpha1 = inf).
        with pytest.raises(ValueError, match="^eps_n must be finite and positive, got 0.0$"):
            calibrate(False, True, d, math.inf, 1.0, 0.0)

    CALIBRATED_FITS = {  # the fit on toy_d3, and calibrate's arguments for it
        "FM": (lambda ds: train_fm(ds, 0.6, seed=4), (False, False, 3, 0.0, 0.6, 0.6)),
        "RelaxedFM": (lambda ds: train_relaxed_fm(ds, 0.6, 1e-4, seed=4),
                      (True, False, 3, 0.0, 0.6, 0.6, 1e-4, 1e-4)),
        "PDFC": (lambda ds: train_pdfc(ds, 0.4, 1.3, s_index=1, alpha1=0.7, seed=4),
                 (False, True, 3, 0.7, 0.4, 1.3)),
        "ADFC": (lambda ds: train_adfc(ds, 0.4, 1.3, 1e-3, 1e-5, s_index=1, alpha1=0.7, seed=4),
                 (True, True, 3, 0.7, 0.4, 1.3, 1e-3, 1e-5)),
    }

    @pytest.mark.parametrize("method", sorted(CALIBRATED_FITS))
    def test_trainer_perturbs_and_records_what_calibrate_returns(self, method, monkeypatch):
        # Ties the ledger audits, which read calibrate's record, to the fits.
        fit, args = self.CALIBRATED_FITS[method]
        record = calibrate(*args)
        seen = []

        def spy(poly, kind, scale_s, scale_n, *rest):
            seen.append((kind, scale_s, scale_n))
            return perturb(poly, kind, scale_s, scale_n, *rest)

        monkeypatch.setattr(trainers_mod, "perturb", spy)
        model = fit(toy_d3())
        assert model.method == method
        assert seen == [(record.kind, record.scale_s, record.scale_n)]
        assert (model.budgets.epsilon, model.budgets.delta, model.sensitivity_used) \
            == (record.epsilon, record.delta, record.sensitivity)

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
