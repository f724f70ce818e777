"""The names the benchmark driver (bench/run.py) reaches through
``fairdp.cli`` and ``fairdp.evaluation``.  Several of them look unused in
cli.py, so a clean-up could drop them; every benchmark fit would then fail."""

import inspect

from fairdp import cli, evaluation

CLI_NAMES = (
    "split", "train_fm", "train_relaxed_fm", "train_pdfc", "train_adfc",
    "train_fair_lr", "accuracy", "risk_difference", "load_encoded_dataset",
)


def test_cli_exports_what_the_benchmark_calls():
    missing = [name for name in CLI_NAMES if not callable(getattr(cli, name, None))]
    assert missing == []


def test_experiment_config_accepts_jobs():
    assert "jobs" in inspect.signature(evaluation.ExperimentConfig).parameters
    cfg = evaluation.ExperimentConfig(methods=("FM",), runs=1, jobs=1)
    assert cfg.jobs == 1
    assert callable(evaluation.run_experiment)
