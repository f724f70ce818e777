"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 needs the real UCI Adult data and is skipped, with instructions,
when the cache is empty; tests/test_trends_synthetic.py runs the identical
protocol on bundled synthetic data so the harness is exercised everywhere.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fairdp.cli import load_encoded_dataset, main as cli_main
from fairdp.dataset import EncodedDataset
from fairdp.evaluation import derive_seed
from fairdp.mechanisms import (
    compose_split_delta,
    compose_split_epsilon,
    gaussian_sample,
    gaussian_sigma,
    l1_sensitivity_fair,
    l2_sensitivity_fair,
    laplace_sample,
)
from fairdp.optimizer import minimize_quadratic
from fairdp.polynomial import PolyObjective, eval_poly, fair_poly, gradient_poly, lr_poly
from fairdp.trainers import (
    train_adfc,
    train_fair_lr,
    train_fm,
    train_pdfc,
    train_relaxed_fm,
)

from conftest import random_unit_rows
from toys import FIXTURE_DIR, GOLDEN_DIR, noise_free
from trends import run_trend_suite


def ok(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


# --- 1. sensitivity bounds ----------------------------------------------------

def abs_folded_c1(ds):
    """Linear coefficients with the per-tuple |z - z_bar| folding the fair
    sensitivity lemma actually bounds."""
    return ((0.5 - ds.y + np.abs(ds.z - ds.z_bar))[:, None] * ds.X).sum(axis=0)


def test_criterion_1_sensitivity_bounds():
    start = time.monotonic()
    rng = np.random.default_rng(20240)
    n = 6
    trials = 2000
    max_ratios = {}
    for d in range(2, 9):
        names = tuple(f"f{i}" for i in range(d))
        bounds = (
            l1_sensitivity_fair(d, 0.0), l2_sensitivity_fair(d, 0.0),
            l1_sensitivity_fair(d), l2_sensitivity_fair(d),
        )
        worst = [0.0, 0.0, 0.0, 0.0]
        for _ in range(trials):
            X = random_unit_rows(rng, n + 1, d)
            y = rng.integers(0, 2, size=n + 1)
            z = rng.integers(0, 2, size=n + 1)
            a = EncodedDataset(X=X[:n], y=y[:n], z=z[:n], feature_names=names)
            Xb, yb, zb = X[:n].copy(), y[:n].copy(), z[:n].copy()
            Xb[0], yb[0], zb[0] = X[n], y[n], z[n]
            b = EncodedDataset(X=Xb, y=yb, z=zb, feature_names=names)

            pa, pb = lr_poly(a), lr_poly(b)
            dc1, dc2 = pa.c1 - pb.c1, pa.c2 - pb.c2
            worst[0] = max(worst[0], np.abs(dc1).sum() + np.abs(dc2).sum())
            worst[1] = max(worst[1], math.sqrt((dc1 ** 2).sum() + (dc2 ** 2).sum()))

            fa, fb = fair_poly(a, 1.0), fair_poly(b, 1.0)
            dc1, dc2 = fa.c1 - fb.c1, fa.c2 - fb.c2
            l1_signed = np.abs(dc1).sum() + np.abs(dc2).sum()
            # also measure the |z - z_bar| folding the lemma bounds
            dc1_abs = abs_folded_c1(a) - abs_folded_c1(b)
            l1_fair = max(l1_signed, np.abs(dc1_abs).sum() + np.abs(dc2).sum())
            l2_fair = max(
                math.sqrt((dc1 ** 2).sum() + (dc2 ** 2).sum()),
                math.sqrt((dc1_abs ** 2).sum() + (dc2 ** 2).sum()),
            )
            worst[2] = max(worst[2], l1_fair)
            worst[3] = max(worst[3], l2_fair)

        for measured, bound in zip(worst, bounds):
            assert measured <= bound, (d, measured, bound)
        max_ratios[d] = max(m / b for m, b in zip(worst, bounds))

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"sensitivity sweep took {elapsed:.1f}s"
    ok(1, f"7 dims x {trials} neighbor pairs, zero violations, "
          f"max measured/bound ratio {max(max_ratios.values()):.3f}, "
          f"{elapsed:.1f}s")


# --- 2. calibration ------------------------------------------------------------

def test_criterion_2_sigma_calibration_grid():
    eps_grid = [10 ** k for k in (-2, -1.5, -1, 0, 0.5, 1)]
    delta_grid = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
    for d2 in (1.0, 4.25):
        for delta in delta_grid:
            sigmas = []
            for eps in eps_grid:
                sigma = gaussian_sigma(eps, delta, d2)
                big_l = math.log(math.sqrt(2.0 / math.pi) / delta)
                identity = sigma * 2.0 * eps / (math.sqrt(2.0) * d2) - (
                    math.sqrt(big_l) + math.sqrt(big_l + eps)
                )
                assert abs(identity) < 1e-12
                sigmas.append(sigma)
            assert all(a > b for a, b in zip(sigmas, sigmas[1:]))  # dec. in eps
        for eps in eps_grid:
            by_delta = [gaussian_sigma(eps, dlt, d2) for dlt in delta_grid]
            # delta_grid is decreasing, so sigma must increase along it
            assert all(a < b for a, b in zip(by_delta, by_delta[1:]))
    ok(2, "sigma identity holds to 1e-12 on the 6x5 grid; strictly monotone "
          "in eps and delta")


def test_criterion_2_sampler_moments():
    rng = np.random.default_rng(777)
    lap = laplace_sample(rng, np.full(1_000_000, 2.0))
    assert lap.std() == pytest.approx(2.0 * math.sqrt(2.0), rel=0.01)
    assert abs(lap.mean()) < 0.01
    gau = gaussian_sample(rng, np.full(1_000_000, 3.0))
    assert gau.std() == pytest.approx(3.0, rel=0.01)
    assert abs(gau.mean()) < 0.01
    ok(2, f"1e6-draw moments: laplace std {lap.std():.4f} (want {2*math.sqrt(2):.4f}), "
          f"gaussian std {gau.std():.4f} (want 3)")


# --- 3. composition arithmetic --------------------------------------------------

def test_criterion_3_composition():
    rng = np.random.default_rng(12)
    for _ in range(20):
        eps = float(rng.uniform(1e-3, 30.0))
        d = int(rng.integers(1, 500))
        assert compose_split_epsilon(eps, eps, d) == eps
    value = compose_split_delta(1e-3, 1e-3)
    assert abs(value - (1.0 - (1.0 - 1e-3) ** 2)) <= 1e-15
    ok(3, "epsilon identity exact on 20 random (eps, d); "
          f"delta composition = {value!r}")


# --- 4. oracle equivalence -------------------------------------------------------

def test_criterion_4_quadratic_solver_vs_gd_oracle():
    rng = np.random.default_rng(4242)
    n_instances = 100
    d_max = 20
    As = np.zeros((n_instances, d_max, d_max))
    bs = np.zeros((n_instances, d_max))
    dims = rng.integers(2, d_max + 1, size=n_instances)
    for i, d in enumerate(dims):
        M = rng.normal(size=(d, d))
        A = M @ M.T / d + 0.05 * np.eye(d)
        As[i, :d, :d] = (A + A.T) / 2.0
        bs[i, :d] = rng.normal(size=d) * 2.0
        As[i, d:, d:] = np.eye(d_max - d)  # pad: decoupled, solution 0

    # Batched GD oracle; step per instance from the Gershgorin row-sum bound,
    # no eigen machinery shared with the path under test.
    steps = 1.0 / (4.0 * np.abs(As).sum(axis=2).max(axis=1))
    w = np.zeros((n_instances, d_max))
    for _ in range(100_000):
        grad = 2.0 * np.einsum("pij,pj->pi", As, w) + bs
        w -= steps[:, None] * grad

    worst = 0.0
    for i, d in enumerate(dims):
        q = PolyObjective(c0=0.0, c1=bs[i, :d], c2=As[i, :d, :d])
        w_solver, diag = minimize_quadratic(q)
        assert diag.clamped_eigenvalues == 0
        worst = max(worst, np.abs(w_solver - w[i, :d]).max())
    assert worst <= 1e-5
    ok(4, f"closed-form vs 1e5-step GD oracle on {n_instances} instances: "
          f"max |dw| = {worst:.2e}")


def test_criterion_4_gradient_finite_differences():
    rng = np.random.default_rng(55)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 8))
        p = PolyObjective(c0=float(rng.normal()), c1=rng.normal(size=d),
                          c2=rng.normal(size=(d, d)))
        w = rng.normal(size=d)
        grad = gradient_poly(p, w)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (eval_poly(p, w + e) - eval_poly(p, w - e)) / (2.0 * h)
            rel = abs(grad[j] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-5
    ok(4, f"gradient vs central differences: max relative error {worst:.2e}")


# --- 5. zero-noise collapse -----------------------------------------------------

def test_criterion_5_zero_noise_collapse(conditioned_ds):
    ds = conditioned_ds
    fair = train_fair_lr(ds, alpha1=1.0)
    with noise_free():
        pdfc = train_pdfc(ds, 0.7, 1.1, s_index=1, alpha1=1.0, seed=5)
        adfc = train_adfc(ds, 0.7, 1.1, 1e-3, 1e-4, s_index=1, alpha1=1.0, seed=5)
        clean = train_fm(ds, 1e9, seed=9)
    assert np.abs(pdfc.w - fair.w).max() <= 1e-8
    assert np.abs(adfc.w - fair.w).max() <= 1e-8

    fm = train_fm(ds, 1e9, seed=9)
    rfm = train_relaxed_fm(ds, 1e9, 1e-3, seed=9)
    gap_fm = np.linalg.norm(fm.w - clean.w)
    gap_rfm = np.linalg.norm(rfm.w - clean.w)
    assert gap_fm <= 1e-3
    assert gap_rfm <= 1e-3
    ok(5, f"noise-disabled PDFC/ADFC == FairLR exactly; at eps=1e9 "
          f"|dw| = {gap_fm:.2e} (FM), {gap_rfm:.2e} (RelaxedFM)")


# --- 6. paper trends on Adult ----------------------------------------------------

ADULT_CACHE = Path(os.environ.get("FAIRDP_CACHE", Path.home() / ".cache" / "fairdp"))
ADULT_DATA = ADULT_CACHE / "adult.data"
ADULT_SCHEMA = Path(__file__).parent.parent / "schemas" / "adult.schema"

requires_adult = pytest.mark.skipif(
    not ADULT_DATA.exists(),
    reason=(
        "UCI Adult not cached; run `fairdp fetch adult` on a networked machine "
        f"(cache dir: {ADULT_CACHE}) and re-run. The same protocol runs on "
        "synthetic data in test_trends_synthetic.py."
    ),
)


@requires_adult
def test_criterion_6_adult_trends():
    ds, _, raw = load_encoded_dataset(ADULT_DATA, ADULT_SCHEMA)
    assert raw.n_rows == 30162  # published count after dropping '?' rows
    start = time.monotonic()
    res = run_trend_suite(ds, master_seed=2, runs=10)
    elapsed = time.monotonic() - start

    assert res["rd_lr"] >= 0.10
    assert res["rd_pdfc"] <= 0.10
    assert res["rd_adfc"] <= 0.12
    assert res["acc_relaxed_fm"] >= res["acc_fm"]
    # 1e-9 absorbs float rounding of exact rational rho values (an
    # adjacent-swap rho of 4 points is exactly 0.8 = 1 - 12/60)
    assert res["adfc_spearman"] >= 0.8 - 1e-9
    assert elapsed < 600.0
    ok(6, f"Adult: RD lr/pdfc/adfc = {res['rd_lr']:.3f}/{res['rd_pdfc']:.3f}/"
          f"{res['rd_adfc']:.3f}; FM {res['acc_fm']:.3f} vs RelaxedFM "
          f"{res['acc_relaxed_fm']:.3f}; spearman {res['adfc_spearman']:.2f}; "
          f"{elapsed:.0f}s")


# --- 7. golden-seed determinism ----------------------------------------------------

def test_criterion_7_frozen_seed_reproducibility(tmp_path):
    import json

    golden = json.loads((GOLDEN_DIR / "train_pdfc_d3.json").read_text())
    from toys import toy_d3

    model = train_pdfc(toy_d3(), eps_s=0.5, eps_n=1.0, s_index=1, alpha1=1.0, seed=11)
    np.testing.assert_array_equal(model.w, np.array(golden["w"]))

    args = [
        "train", "--dataset", str(FIXTURE_DIR / "toy.csv"),
        "--schema", str(FIXTURE_DIR / "toy.schema"),
        "--method", "pdfc", "--eps", "1.0", "--s-attr", "hours",
        "--seed", "3", "--out",
    ]
    assert cli_main(args + [str(tmp_path / "a")]) == 0
    assert cli_main(args + [str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "model.json").read_bytes()
    b = (tmp_path / "b" / "model.json").read_bytes()
    assert a == b
    assert a == (GOLDEN_DIR / "cli_train_model.json").read_bytes()
    assert derive_seed("split", 0, 0) == 6060830381553429521
    ok(7, "frozen-seed trainer and CLI outputs reproduce byte-identically")
