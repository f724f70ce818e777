"""The paper-trend measurement protocol shared by the acceptance suite (real
Adult data, when cached) and the synthetic companion suite.

Three measurements at delta = 1e-3, R runs each, read off one sweep:
  a) risk difference of LR / PDFC / ADFC at eps = 1
  b) accuracy of FM vs RelaxedFM at eps = 1e-2
  c) ADFC accuracy across eps in {1e-2, 1e-1, 1, 10} (rank correlation)

Per-run seeds depend only on (master seed, run, method, parameters), not on
the grid, so the grid points the three measurements do not read change none
of their numbers.
"""

from scipy.stats import spearmanr

from fairdp.evaluation import ExperimentConfig, run_experiment

TREND_DELTA = 1e-3
TREND_EPS_LADDER = (1e-2, 1e-1, 1.0, 10.0)


def run_trend_suite(ds, master_seed, runs=10):
    rep = run_experiment(ds, ExperimentConfig(
        methods=("LR", "PDFC", "ADFC", "FM", "RelaxedFM"), eps_grid=TREND_EPS_LADDER,
        delta_grid=(TREND_DELTA,), runs=runs, master_seed=master_seed, s_attr="random"))

    adfc_accs = [rep.find("ADFC", e).acc_mean for e in TREND_EPS_LADDER]
    rho = float(spearmanr(range(len(TREND_EPS_LADDER)), adfc_accs).statistic)
    return {
        "rd_lr": rep.find("LR", 1.0).rd_mean,
        "rd_pdfc": rep.find("PDFC", 1.0).rd_mean,
        "rd_adfc": rep.find("ADFC", 1.0).rd_mean,
        "acc_fm": rep.find("FM", 1e-2).acc_mean,
        "acc_relaxed_fm": rep.find("RelaxedFM", 1e-2).acc_mean,
        "adfc_accuracies": adfc_accs,
        "adfc_spearman": rho,
    }
