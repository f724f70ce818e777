import functools
import math

import numpy as np
import pytest

from fairdp import evaluation
from fairdp.dataset import EncodedDataset
from fairdp.evaluation import (
    DEFAULT_DELTA_GRID,
    DEFAULT_EPS_GRID,
    ExperimentConfig,
    ExperimentReport,
    GridPoint,
    accuracy,
    derive_seed,
    predict,
    predict_labels,
    render_table,
    report_csv_lines,
    risk_difference,
    run_experiment,
)
from fairdp.trainers import TrainedModel

from toys import toy_d3


def fixed_model(w, method="LR"):
    return TrainedModel(w=np.asarray(w, dtype=float), method=method, budgets=None,
                        sensitivity_used=None, alpha1=0.0, seed=None, diagnostics={})


class TestPredict:
    def test_zero_weights_boundary_convention(self):
        model = fixed_model([0.0, 0.0])
        p, label = predict(model, np.array([0.3, 0.4]))
        assert p == 0.5
        assert label == 1

    def test_saturation_without_overflow(self):
        model = fixed_model([100.0])
        p, label = predict(model, np.array([0.5]))  # score 50
        assert label == 1
        assert p >= 1.0 - 1e-20
        p_neg, label_neg = predict(model, np.array([-0.5]))
        assert label_neg == 0
        assert p_neg <= 1e-20

    def test_closed_form_probability(self):
        model = fixed_model([math.log(3.0)])
        p, _ = predict(model, np.array([1.0]))
        assert p == pytest.approx(0.75, rel=1e-12)

    def test_threshold_consistency(self, rng):
        model = fixed_model(rng.normal(size=3))
        for _ in range(200):
            x = rng.normal(size=3)
            p, label = predict(model, x)
            assert label == (1 if p >= 0.5 else 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(fixed_model([1.0, 2.0]), np.zeros(3))


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
            test_fraction=0.25,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_default_grids_match_paper_shapes(self):
        assert len(DEFAULT_EPS_GRID) == 6
        assert len(DEFAULT_DELTA_GRID) == 5
        assert DEFAULT_EPS_GRID[0] == 1e-2 and DEFAULT_EPS_GRID[-1] == 10.0

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
        # delta so large the per-group share exceeds the Gaussian calibration
        # limit: the ADFC points fail, everything else survives.
        cfg = self.config(methods=("FairLR", "ADFC"), delta_grid=(0.999,))
        rep = run_experiment(toy_d3(), cfg)
        adfc = [p for p in rep.points if p.point.method == "ADFC"]
        fair = [p for p in rep.points if p.point.method == "FairLR"]
        assert all(p.failed and "delta" in p.error for p in adfc)
        assert all(not p.failed for p in fair)

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
        assert grams == [6] * cfg.runs  # once per 6-row train part
        splits.clear()
        grams.clear()
        run_experiment(toy_d3(), self.config(resplit_each_run=False))
        assert len(splits) == 1 and len(grams) == 1

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
        (dict(test_fraction=0.0), "test_fraction"),
        (dict(test_fraction=1.5), "test_fraction"),
        (dict(test_fraction=math.nan), "test_fraction"),
        (dict(alpha1=math.nan), "alpha1"),
        (dict(alpha1=-math.inf), "alpha1"),
    ])
    def test_bad_grid_rejected_at_construction(self, bad, message):
        with pytest.raises(ValueError, match=message):
            self.config(**bad)

    def test_report_round_trip(self):
        rep = run_experiment(toy_d3(), self.config())
        back = ExperimentReport.from_dict(rep.to_dict())
        assert back.to_dict() == rep.to_dict()


class TestRendering:
    def make_report(self):
        return run_experiment(toy_d3(), ExperimentConfig(
            methods=("FairLR", "FM"), eps_grid=(1.0,), delta_grid=(1e-3,),
            runs=2, master_seed=1, test_fraction=0.25,
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
            runs=3, master_seed=0, test_fraction=0.25,
        ))
        assert "n/a(3)" in render_table(rep)

    def test_grid_point_validation(self):
        with pytest.raises(ValueError):
            GridPoint("Nope", 1.0, None)
