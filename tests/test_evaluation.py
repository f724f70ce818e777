import dataclasses
import functools
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from fairdp import cli, evaluation
from fairdp.dataset import EncodedDataset
from fairdp.evaluation import (
    DEFAULT_DELTA_GRID,
    DEFAULT_EPS_GRID,
    ExperimentConfig,
    ExperimentReport,
    GridPoint,
    PointAggregate,
    accuracy,
    derive_seed,
    method_budgets,
    predict_labels,
    render_table,
    report_csv_lines,
    risk_difference,
    run_experiment,
    score,
    score_all,
)
from fairdp.mechanisms import gaussian_sigma, split_total_delta
from fairdp.trainers import TrainedModel

from toys import toy_d3


def fixed_model(w, method="LR"):
    return TrainedModel(w=np.asarray(w, dtype=float), method=method, budgets=None,
                        sensitivity_used=None, alpha1=0.0, seed=None, diagnostics={})


class TestPredict:
    def test_zero_weights_boundary_convention(self):
        # A score of exactly 0 predicts 1.
        model = fixed_model([0.0, 0.0])
        np.testing.assert_array_equal(predict_labels(model, np.array([[0.3, 0.4]])), [1])

    def test_saturation_without_overflow(self):
        model = fixed_model([100.0])
        labels = predict_labels(model, np.array([[0.5], [-0.5]]))  # scores +-50
        np.testing.assert_array_equal(labels, [1, 0])

    def test_threshold_consistency(self, rng):
        model = fixed_model(rng.normal(size=3))
        X = rng.normal(size=(200, 3))
        labels = predict_labels(model, X)
        np.testing.assert_array_equal(labels, (expit(X @ model.w) >= 0.5).astype(int))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            predict_labels(fixed_model([1.0, 2.0]), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="expected"):
            predict_labels(fixed_model([1.0, 2.0]), np.zeros(2))


class TestAccuracy:
    def test_all_correct(self):
        ds = EncodedDataset(X=np.array([[0.9], [0.1]]), y=[1, 1], z=[0, 1],
                            feature_names=("a",))
        assert accuracy(fixed_model([1.0]), ds) == 1.0

    def test_zero_weights_predict_all_positive(self):
        X = np.full((10, 1), 0.5)
        y = [1] * 6 + [0] * 4
        ds = EncodedDataset(X=X, y=y, z=[0, 1] * 5, feature_names=("a",))
        assert accuracy(fixed_model([0.0]), ds) == pytest.approx(0.6)

    def test_hand_enumerated_fixture(self):
        # w = (1, -1): label = [x1 >= x2]
        X = np.array([
            [0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.3, 0.1], [0.1, 0.6],
            [0.7, 0.2], [0.4, 0.4], [0.2, 0.3], [0.6, 0.1], [0.1, 0.9],
        ])
        y = [1, 0, 1, 1, 0, 1, 0, 1, 1, 0]
        # predictions:  1  0  1  1  0  1  1  0  1  0  -> 8 of 10 match
        ds = EncodedDataset(X=X, y=y, z=[0, 1] * 5, feature_names=("a", "b"))
        assert accuracy(fixed_model([1.0, -1.0]), ds) == pytest.approx(0.8)


class TestRiskDifference:
    def test_equal_rates_zero(self):
        X = np.array([[0.9], [0.9], [0.1], [0.1]])
        ds = EncodedDataset(X=X, y=[1, 1, 0, 0], z=[0, 1, 0, 1], feature_names=("a",))
        assert risk_difference(fixed_model([1.0]), ds) == 0.0

    def test_extreme_difference_is_one(self):
        X = np.array([[0.9], [0.9], [-0.1], [-0.1]])
        ds = EncodedDataset(X=X, y=[1, 1, 0, 0], z=[1, 1, 0, 0], feature_names=("a",))
        assert risk_difference(fixed_model([1.0]), ds) == 1.0

    def test_single_group_undefined(self):
        X = np.array([[0.9], [0.1]])
        ds = EncodedDataset(X=X, y=[1, 0], z=[1, 1], feature_names=("a",))
        assert risk_difference(fixed_model([1.0]), ds) is None

    def test_symmetric_under_relabeling(self, rng):
        from conftest import random_dataset

        ds = random_dataset(rng, 40, 3)
        flipped = EncodedDataset(X=ds.X, y=ds.y, z=1 - ds.z,
                                 feature_names=ds.feature_names)
        model = fixed_model(rng.normal(size=3))
        assert risk_difference(model, ds) == pytest.approx(
            risk_difference(model, flipped), abs=1e-15
        )


class TestScore:
    @pytest.mark.parametrize("z", [[0, 1, 1, 0, 1], [1, 1, 1, 1, 1]])
    def test_matches_accuracy_and_risk_difference(self, z):
        X = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.3, 0.1], [0.1, 0.6]])
        ds = EncodedDataset(X=X, y=[1, 0, 0, 1, 1], z=z, feature_names=("a", "b"))
        model = fixed_model([1.0, -1.0])
        assert score(model, ds) == (accuracy(model, ds), risk_difference(model, ds))


def _bench_gen():
    path = Path(__file__).parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def adult_test_part(tmp_path_factory):
    """The held-out part of a 3,000-row file in the benchmark's Adult shape
    (d = 102), and its train part."""
    gen = _bench_gen()
    tmp = tmp_path_factory.mktemp("adult")
    gen.write_adult_like(tmp / "adult.csv", 3000, 5)
    (tmp / "adult.schema").write_text(gen.ADULT_SCHEMA)
    ds = cli.load_encoded_dataset(str(tmp / "adult.csv"), str(tmp / "adult.schema"))[0]
    assert ds.d == gen.ADULT_D
    train, test = evaluation.split(ds, evaluation.TEST_FRACTION, 11)
    return train, test


def counted_predictions(monkeypatch):
    """Replace ``evaluation.predict_labels`` by a spy; the list it returns
    gets (model, X shape) per call."""
    calls = []
    real_predict = evaluation.predict_labels

    def counted_predict(model, X):
        calls.append((model, X.shape))
        return real_predict(model, X)

    monkeypatch.setattr(evaluation, "predict_labels", counted_predict)
    return calls


class TestScoreAll:
    """score_all is score's bits from one blocked product per run; only a
    model with a score near 0 is predicted again, over all rows."""

    @pytest.mark.parametrize("block", [evaluation.SCORE_BLOCK, 64, 1])
    def test_equals_score_on_the_adult_shape(self, adult_test_part, monkeypatch, block):
        train, test = adult_test_part
        rng = np.random.default_rng(3)
        models = [fixed_model(rng.normal(scale=scale, size=test.d))
                  for scale in (1e-300, 1e-3, 1.0, 1e3, 1e150) for _ in range(6)]
        models += [fixed_model(np.zeros(test.d)),
                   fixed_model(np.where(rng.random(test.d) < 0.5, 1.0, -1.0))]
        models += [evaluation.train_method(train, method, seed, eps=eps, delta=1e-3)
                   for method in ("FM", "RelaxedFM", "PDFC", "ADFC")
                   for seed, eps in enumerate((0.01, 1.0, 10.0))]
        expected = [score(m, test) for m in models]
        monkeypatch.setattr(evaluation, "SCORE_BLOCK", block)
        assert score_all(models, test) == expected
        assert score_all(models[:1], test) == expected[:1]

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_score_on_random_and_toy_parts(self, seed):
        rng = np.random.default_rng(seed)
        from conftest import random_dataset

        for test in (toy_d3(), random_dataset(rng, 200, 5), random_dataset(rng, 40, 1)):
            models = [fixed_model(rng.normal(size=test.d)) for _ in range(9)]
            assert score_all(models, test) == [score(m, test) for m in models]

    def test_undefined_risk_difference(self):
        X = np.array([[0.5, 0.1], [0.1, 0.5]])
        ds = EncodedDataset(X=X, y=[1, 0], z=[1, 1], feature_names=("a", "b"))
        models = [fixed_model([1.0, -1.0]), fixed_model([-1.0, 2.0])]
        assert score_all(models, ds) == [score(m, ds) for m in models] == [(1.0, None), (0.0, None)]

    def test_near_zero_scores_are_predicted_again_over_all_rows(self, monkeypatch):
        # Row 0 is [a, a]: w = [1, -1] scores exactly 0 there (label 1).  The
        # +-1 ulp models score the smallest subnormal of either sign on row 1.
        a = 0.3
        X = np.array([[a, a], [1.0, 0.0], [0.4, 0.6], [0.2, 0.7]])
        ds = EncodedDataset(X=X, y=[1, 0, 1, 0], z=[0, 1, 1, 0], feature_names=("a", "b"))
        ulp = np.nextafter(0.0, 1.0)
        exact_zero = fixed_model([1.0, -1.0])
        plus, minus = fixed_model([ulp, 1.0]), fixed_model([-ulp, 1.0])
        clear = [fixed_model([1.0, 2.0]), fixed_model([-2.0, -1.0])]
        models = [clear[0], exact_zero, plus, clear[1], minus]
        assert predict_labels(exact_zero, X)[0] == 1
        assert predict_labels(plus, X)[1] == 1 and predict_labels(minus, X)[1] == 0
        expected = [score(m, ds) for m in models]
        calls = counted_predictions(monkeypatch)
        assert score_all(models, ds) == expected
        assert [(id(m), shape) for m, shape in calls] == [
            (id(m), X.shape) for m in (exact_zero, plus, minus)]

    def test_clear_scores_predict_nothing_again(self, adult_test_part, monkeypatch):
        train, test = adult_test_part
        models = [evaluation.train_method(train, method, seed, eps=eps, delta=1e-3)
                  for method in ("FM", "PDFC", "ADFC") for seed, eps in enumerate((0.1, 10.0))]
        expected = [score(m, test) for m in models]
        calls = counted_predictions(monkeypatch)
        assert score_all(models, test) == expected
        assert calls == []

    def test_non_finite_weights_are_predicted_again(self, monkeypatch):
        ds = toy_d3()
        models = [fixed_model([np.nan, 1.0, 1.0]), fixed_model([np.inf, 1.0, 1.0]),
                  fixed_model([1e308, 1e308, 1e308]), fixed_model([1e307, 1e307, 1e307])]
        expected = [score(m, ds) for m in models]
        calls = counted_predictions(monkeypatch)
        assert score_all(models, ds) == expected
        assert [m for m, _ in calls] == models[:3]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"expected \(n, 2\)"):
            score_all([fixed_model([1.0, 2.0, 3.0]), fixed_model([1.0, 2.0])], toy_d3())
        assert score_all([], toy_d3()) == []


class TestSplitBudgets:
    @pytest.mark.parametrize("method, pairs, name", [
        ("PDFC", {"eps_s": 0.1}, "eps"),
        ("ADFC", {"eps_n": 0.1}, "eps"),
        ("ADFC", {"delta_s": 1e-9}, "delta"),
    ])
    def test_half_pair_is_an_error(self, method, pairs, name):
        # It used to be replaced by the total without a word.
        with pytest.raises(ValueError, match=f"method {method} takes both {name}_s and {name}_n, or neither"):
            method_budgets(method, 5.0, 1e-3, **pairs)


BUDGET_NAMES = ("eps", "delta", "eps_s", "eps_n", "delta_s", "delta_n")


class TestMethodBudgets:
    @pytest.mark.parametrize("method, read", [
        ("LR", {}),
        ("FairLR", {}),
        ("FM", {"eps": 2.0}),
        ("RelaxedFM", {"eps": 2.0, "delta": 1e-3}),
        ("PDFC", {"eps": 2.0, "eps_s": 2.0, "eps_n": 2.0}),
        ("ADFC", {"eps": 2.0, "delta": 1e-3, "eps_s": 2.0, "eps_n": 2.0,
                  "delta_s": split_total_delta(1e-3), "delta_n": split_total_delta(1e-3)}),
    ])
    def test_totals_fill_what_the_method_reads(self, method, read):
        assert method_budgets(method, eps=2.0, delta=1e-3) == {
            **dict.fromkeys(BUDGET_NAMES), **read}

    @pytest.mark.parametrize("method, read", [
        ("FM", {"eps": 2.0}),
        ("PDFC", {"eps": 2.0, "eps_s": 0.5, "eps_n": 3.0}),
        ("ADFC", {"eps": 2.0, "delta": 1e-3, "eps_s": 0.5, "eps_n": 3.0,
                  "delta_s": 1e-4, "delta_n": 1e-5}),
    ])
    def test_pairs_are_read_only_by_their_methods(self, method, read):
        given = dict(zip(BUDGET_NAMES, (2.0, 1e-3, 0.5, 3.0, 1e-4, 1e-5)))
        assert method_budgets(method, **given) == {**dict.fromkeys(BUDGET_NAMES), **read}

    @pytest.mark.parametrize("method, given, text", [
        ("LR", {"delta": 5.0}, "delta must be in (0, 1), got 5.0"),
        ("FM", {"eps": 1.0, "eps_n": math.inf}, "eps_n must be finite and positive, got inf"),
        ("FM", {}, "method FM requires eps"),
        ("RelaxedFM", {"eps": 1.0}, "method RelaxedFM requires delta"),
        ("PDFC", {"eps_s": 1.0}, "method PDFC requires eps or both eps_s and eps_n"),
        ("ADFC", {"eps": 1.0, "delta_n": 1e-3},
         "method ADFC requires delta or both delta_s and delta_n"),
    ])
    def test_errors_name_config_keys(self, method, given, text):
        with pytest.raises(ValueError) as exc:
            method_budgets(method, **given)
        assert str(exc.value) == text

    @pytest.mark.parametrize("method, given, delta", [
        ("RelaxedFM", {"delta": 0.9}, 0.9),
        ("ADFC", {"delta": 0.97}, split_total_delta(0.97)),
        ("ADFC", {"delta": 1e-3, "delta_s": 1e-3, "delta_n": 0.8}, 0.8),
    ])
    def test_delta_past_the_gaussian_calibration(self, method, given, delta):
        # gaussian_sigma's rule and text, before any data is touched.
        with pytest.raises(ValueError) as expected:
            gaussian_sigma(1.0, delta, 1.0)
        with pytest.raises(ValueError) as exc:
            method_budgets(method, eps=1.0, **given)
        assert str(exc.value) == str(expected.value)

    def test_gaussian_calibration_limit_binds_only_deltas_that_reach_it(self):
        # ADFC's total 0.9 divides into 1 - sqrt(0.1) ~ 0.68 per group, below
        # sqrt(2/pi) ~ 0.80; FM reads no delta.
        assert method_budgets("ADFC", eps=1.0, delta=0.9)["delta_s"] == split_total_delta(0.9)
        assert method_budgets("FM", eps=1.0, delta=0.9)["delta"] is None

    def test_train_method_without_eps(self):
        # A library call used to fail inside the trainer with a TypeError.
        with pytest.raises(ValueError, match="^method FM requires eps$"):
            evaluation.train_method(toy_d3(), "FM", 0)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed("split", 0, 1) == derive_seed("split", 0, 1)
        assert derive_seed("split", 0, 1) != derive_seed("split", 0, 2)
        assert derive_seed("train", 0, 1) != derive_seed("split", 0, 1)

    def test_frozen_value(self):
        # Pins the derivation scheme itself: changing it silently would break
        # every recorded manifest.
        assert derive_seed("split", 0, 0) == 6060830381553429521


class TestExperiment:
    def config(self, **kw):
        base = dict(
            methods=("FairLR", "FM"),
            eps_grid=(0.5, 5.0),
            delta_grid=(1e-3,),
            runs=3,
            master_seed=7,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_default_grids_match_paper_shapes(self):
        assert len(DEFAULT_EPS_GRID) == 6
        assert len(DEFAULT_DELTA_GRID) == 5
        assert DEFAULT_EPS_GRID[0] == 1e-2 and DEFAULT_EPS_GRID[-1] == 10.0
        # The library's defaults are fairdp sweep's: one source for each grid.
        cfg = ExperimentConfig(methods=("RelaxedFM",))
        assert (cfg.eps_grid, cfg.delta_grid) == (DEFAULT_EPS_GRID, DEFAULT_DELTA_GRID)
        assert len(cfg.grid()) == 30

    def test_deterministic_reports(self):
        ds = toy_d3()
        a = run_experiment(ds, self.config())
        b = run_experiment(ds, self.config())
        assert a.to_dict() == b.to_dict()

    def test_r1_reports_zero_std(self):
        rep = run_experiment(toy_d3(), self.config(runs=1))
        for p in rep.points:
            assert p.acc_std == 0.0

    def test_aggregates_recompute_from_runs(self):
        rep = run_experiment(toy_d3(), self.config())
        for p in rep.points:
            accs = [r.accuracy for r in p.runs]
            assert p.acc_mean == pytest.approx(np.mean(accs))
            assert p.acc_std == pytest.approx(np.std(accs, ddof=1))
            assert min(accs) <= p.acc_mean <= max(accs)

    def test_non_private_rows_replicated_across_eps(self):
        rep = run_experiment(toy_d3(), self.config())
        rows = [p for p in rep.points if p.point.method == "FairLR"]
        assert len(rows) == 2
        assert rows[0].acc_mean == rows[1].acc_mean
        assert [r.accuracy for r in rows[0].runs] == [r.accuracy for r in rows[1].runs]

    def test_failed_point_marked_not_fatal(self):
        # A delta at or above the Gaussian calibration limit where it reaches
        # sigma (RelaxedFM's own, ADFC's per-group share) fails its points
        # with gaussian_sigma's text; everything else survives.
        cfg = self.config(methods=("FairLR", "RelaxedFM", "ADFC"), delta_grid=(0.9, 0.999))
        rep = run_experiment(toy_d3(), cfg)
        failed = []
        for p in rep.points:
            if p.failed:
                delta = p.point.delta if p.point.method == "RelaxedFM" else split_total_delta(
                    p.point.delta)
                with pytest.raises(ValueError) as expected:
                    gaussian_sigma(1.0, delta, 1.0)
                assert p.error == f"ValueError: {expected.value}"
                failed.append((p.point.method, p.point.delta))
        assert sorted(set(failed)) == [("ADFC", 0.999), ("RelaxedFM", 0.9), ("RelaxedFM", 0.999)]

    def test_undefined_rd_counted(self):
        # All-one protected attribute: every run's RD is undefined.
        X = np.random.default_rng(0).random((12, 2)) / 2.0
        ds = EncodedDataset(X=X, y=[0, 1] * 6, z=np.ones(12, dtype=int),
                            feature_names=("a", "b"))
        rep = run_experiment(ds, self.config(methods=("FairLR",), runs=2))
        for p in rep.points:
            assert p.rd_mean is None
            assert p.undefined_rd_count == 2

    def test_jobs_parallel_matches_serial(self):
        ds = toy_d3()
        serial = run_experiment(ds, self.config())
        parallel = run_experiment(ds, self.config(jobs=2))
        assert serial.to_dict() == parallel.to_dict()

    def test_one_split_and_one_gram_per_run(self, monkeypatch):
        splits = []
        grams = []
        real_split = evaluation.split

        def counted_split(ds, test_fraction, seed):
            assert test_fraction == evaluation.TEST_FRACTION == 0.2
            splits.append(seed)
            return real_split(ds, test_fraction, seed)

        monkeypatch.setattr(evaluation, "split", counted_split)
        real_gram = EncodedDataset.logistic_c2.func

        def counted_gram(ds):
            grams.append(ds.n)
            return real_gram(ds)

        prop = functools.cached_property(counted_gram)
        prop.__set_name__(EncodedDataset, "logistic_c2")
        monkeypatch.setattr(EncodedDataset, "logistic_c2", prop)
        cfg = self.config(methods=("FairLR", "FM", "RelaxedFM", "PDFC", "ADFC"),
                          delta_grid=(1e-3, 1e-5))
        rep = run_experiment(toy_d3(), cfg)
        assert not any(p.failed for p in rep.points)
        assert len(splits) == len(set(splits)) == cfg.runs
        assert grams == [7] * cfg.runs  # once per 7-row train part

    def test_one_unit_ball_check_per_run(self, monkeypatch):
        checks = []
        real_check = EncodedDataset._unit_ball_error.func

        def counted_check(ds):
            checks.append(ds.n)
            return real_check(ds)

        prop = functools.cached_property(counted_check)
        prop.__set_name__(EncodedDataset, "_unit_ball_error")
        monkeypatch.setattr(EncodedDataset, "_unit_ball_error", prop)
        cfg = self.config(methods=("FM", "RelaxedFM", "PDFC", "ADFC"), delta_grid=(1e-3, 1e-5))
        rep = run_experiment(toy_d3(), cfg)
        assert not any(p.failed for p in rep.points)
        assert checks == [7] * cfg.runs  # once per 7-row train part, not per fit

    def test_one_prediction_per_key_and_run(self, monkeypatch):
        # Each run trains every key, then scores all of its models in one
        # score_all call; the report is unchanged.
        batches = []
        real_score_all = evaluation.score_all

        def counted_score_all(models, test):
            batches.append((len(models), test.n))
            return real_score_all(models, test)

        cfg = self.config(methods=("FairLR", "FM", "PDFC", "ADFC"))
        expected = run_experiment(toy_d3(), cfg).to_dict()
        monkeypatch.setattr(evaluation, "score_all", counted_score_all)
        rep = run_experiment(toy_d3(), cfg)
        keys = {evaluation._effective_key(p, cfg.alpha1, cfg.s_attr) for p in cfg.grid()}
        assert len(keys) == 7  # FairLR 1, FM 2, PDFC 2, ADFC 2
        assert batches == [(len(keys), 1)] * cfg.runs  # one held-out toy row per run
        assert rep.to_dict() == expected

    def test_scoring_error_fails_the_run_keys_only(self, monkeypatch):
        # A key whose training failed keeps its own error; a failing batch
        # fails the keys it would have scored, not the sweep.
        def bad_score_all(models, test):
            raise RuntimeError("cannot score")

        monkeypatch.setattr(evaluation, "score_all", bad_score_all)
        rep = run_experiment(toy_d3(), self.config(methods=("FairLR", "RelaxedFM"),
                                                   delta_grid=(0.9,)))
        errors = {p.point.method: p.error for p in rep.points}
        assert errors["FairLR"] == "RuntimeError: cannot score"
        assert errors["RelaxedFM"].startswith("ValueError: ")

    def test_failure_at_later_run_isolated(self, monkeypatch):
        calls = []

        def flaky_fm(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:  # FM keys run in grid order: run 1, second eps
                raise RuntimeError("noise source failed")
            return train_fm(*args, **kwargs)

        from fairdp.trainers import train_fm

        monkeypatch.setattr(evaluation, "train_fm", flaky_fm)
        rep = run_experiment(toy_d3(), self.config())
        clean = run_experiment(toy_d3(), self.config(methods=("FairLR",)))
        fm = [p for p in rep.points if p.point.method == "FM"]
        assert not fm[0].failed and len(fm[0].runs) == 3
        assert fm[1].failed and fm[1].runs == ()
        assert fm[1].error == "RuntimeError: noise source failed"
        assert len(calls) == 5  # the failed key is not retried at run 2
        fair = [p.to_dict() for p in rep.points if p.point.method == "FairLR"]
        assert fair == [p.to_dict() for p in clean.points]

    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_split_error_fails_every_point(self, monkeypatch, fail_at):
        real_split = evaluation.split
        seen = []

        def bad_split(*args, **kwargs):
            seen.append(None)
            if len(seen) > fail_at:
                raise ValueError("cannot split")
            return real_split(*args, **kwargs)

        monkeypatch.setattr(evaluation, "split", bad_split)
        rep = run_experiment(toy_d3(), self.config())
        assert len(rep.points) == 4
        for p in rep.points:
            assert p.failed and p.runs == ()
            assert p.error == "ValueError: cannot split"

    def test_empty_method_list_rejected(self):
        with pytest.raises(ValueError):
            self.config(methods=())

    @pytest.mark.parametrize("bad, message", [
        (dict(eps_grid=(1.0, 0.0)), "epsilon grid value"),
        (dict(eps_grid=(-1.0,)), "epsilon grid value"),
        (dict(eps_grid=(math.nan,)), "epsilon grid value"),
        (dict(eps_grid=(math.inf,)), "epsilon grid value"),
        (dict(delta_grid=(0.0,)), "delta grid value"),
        (dict(delta_grid=(1e-3, 1.0)), "delta grid value"),
        (dict(delta_grid=(math.nan,)), "delta grid value"),
        (dict(eps_grid=()), "epsilon grid is empty"),
        (dict(delta_grid=()), "delta grid is empty"),
        (dict(methods=("FM", "SVM")), "unknown method 'SVM'"),
        (dict(alpha1=math.nan), "alpha1"),
        (dict(alpha1=-math.inf), "alpha1"),
        (dict(runs=2.5), "runs must be an integer"),
        (dict(runs=0), "runs must be >= 1"),
    ])
    def test_bad_grid_rejected_at_construction(self, bad, message):
        with pytest.raises(ValueError, match=message):
            self.config(**bad)

    @pytest.mark.parametrize("bad, message", [
        (dict(runs=True), "runs must be an integer, got True"),
        (dict(master_seed=True), "master_seed must be an integer, got True"),
        (dict(master_seed=1.5), "master_seed must be an integer, got 1.5"),
        (dict(alpha1=True), "alpha1 must be a number, got True"),
        (dict(eps_grid=(True,)), "epsilon grid value must be a number, got True"),
        (dict(methods=("FM", "LR", "FM")), "methods repeats 'FM'"),
        (dict(eps_grid=(1.0, 0.5, 1)), "eps_grid repeats 1"),
        (dict(delta_grid=(1e-3, 1e-3)), "delta_grid repeats 0.001"),
    ])
    def test_values_that_corrupt_reports_rejected(self, bad, message):
        # Each used to construct: a bool was written to the report as true
        # (and True seeds other splits than 1), a repeat wrote duplicate rows.
        with pytest.raises(ValueError) as exc:
            self.config(**bad)
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad, message", [
        (dict(eps_grid=("1",)), "epsilon grid value must be a number, got '1'"),
        (dict(delta_grid=(1e-3, None)), "delta grid value must be a number, got None"),
        (dict(alpha1="1"), "alpha1 must be a number, got '1'"),
        (dict(runs="2"), "runs must be an integer, got '2'"),
        (dict(master_seed=np.float64(3.0)), "master_seed must be an integer, got np.float64(3.0)"),
        (dict(eps_grid=(10 ** 400,)), f"epsilon grid value must be a number, got {10 ** 400!r}"),
        (dict(alpha1=-10 ** 400), f"alpha1 must be a number, got {-10 ** 400!r}"),
    ])
    def test_non_numbers_rejected_naming_the_field(self, bad, message):
        # "1" used to raise a TypeError from the range check, an int past the
        # float range an OverflowError (alpha1) or every point's error (eps).
        with pytest.raises(ValueError) as exc:
            self.config(**bad)
        assert str(exc.value) == message

    @pytest.mark.parametrize("given, plain", [
        (dict(eps_grid=(np.float32(0.5), np.float64(5.0))), dict(eps_grid=(0.5, 5.0))),
        (dict(delta_grid=(np.float32(0.25),)), dict(delta_grid=(0.25,))),
        (dict(alpha1=np.float32(0.5)), dict(alpha1=0.5)),
        (dict(master_seed=np.int64(3), runs=np.int32(2)), dict(master_seed=3, runs=2)),
    ])
    def test_numpy_scalars_kept_as_python_numbers(self, given, plain):
        # NumPy scalars used to reach the report, which json could not write,
        # and an int64 seed was rejected although the trainers take one.
        config, reference = self.config(**given), self.config(**plain)
        assert config == reference
        for name in plain:
            values = getattr(config, name)
            for v in values if isinstance(values, tuple) else (values,):
                assert type(v) in (int, float)
        report = run_experiment(toy_d3(), config).to_dict()
        assert json.dumps(report) == json.dumps(run_experiment(toy_d3(), reference).to_dict())

    def test_python_ints_stay_as_given(self):
        config = self.config(eps_grid=(1, 0.5), alpha1=2)
        assert [type(v) for v in config.eps_grid] == [int, float]
        assert type(config.alpha1) is int
        assert '"epsilon": 1,' in json.dumps(run_experiment(toy_d3(), config).to_dict())

    def test_report_round_trip(self):
        rep = run_experiment(toy_d3(), self.config())
        back = ExperimentReport.from_dict(rep.to_dict())
        assert back.to_dict() == rep.to_dict()

    def test_a_point_holds_only_its_runs_and_error(self):
        # Every statistic is computed from the runs; a point fails exactly
        # when it carries an error.
        assert [f.name for f in dataclasses.fields(PointAggregate)] == ["point", "runs", "error"]
        rep = run_experiment(toy_d3(), self.config(methods=("FairLR", "ADFC"),
                                                   delta_grid=(0.999,)))
        failed = rep.find("ADFC", 0.5)
        assert failed.failed and failed.runs == ()
        assert (failed.acc_mean, failed.acc_std, failed.rd_mean, failed.rd_std,
                failed.undefined_rd_count) == (None, None, None, None, 0)
        assert not PointAggregate(GridPoint("LR"), ()).failed


class TestRendering:
    def make_report(self):
        return run_experiment(toy_d3(), ExperimentConfig(
            methods=("FairLR", "FM"), eps_grid=(1.0,), delta_grid=(1e-3,),
            runs=2, master_seed=1,
        ))

    def test_csv_header_and_rows(self):
        rep = self.make_report()
        lines = report_csv_lines(rep)
        assert lines[0] == (
            "method,eps,delta,acc_mean,acc_std,rd_mean,rd_std,undefined_rd_count"
        )
        assert len(lines) == 1 + len(rep.points)

    def test_csv_and_table_numeric_agreement(self):
        rep = self.make_report()
        table = render_table(rep)
        for p in rep.points:
            cell = f"{p.acc_mean:.3f}"
            assert cell in table

    def test_undefined_rd_rendering(self):
        X = np.random.default_rng(0).random((8, 1)) / 2.0
        ds = EncodedDataset(X=X, y=[0, 1] * 4, z=np.ones(8, dtype=int),
                            feature_names=("a",))
        rep = run_experiment(ds, ExperimentConfig(
            methods=("FairLR",), eps_grid=(1.0,), delta_grid=(1e-3,),
            runs=3, master_seed=0,
        ))
        assert "n/a(3)" in render_table(rep)

    def test_grid_point_validation(self):
        with pytest.raises(ValueError):
            GridPoint("Nope", 1.0, None)
