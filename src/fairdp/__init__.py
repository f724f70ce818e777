"""Differentially private and fair logistic regression via perturbation of the
objective's polynomial coefficients."""

__version__ = "0.1.0"

from .dataset import (
    EncodedDataset,
    ParseError,
    Schema,
    fetch_dataset,
    read_dataset,
    split,
)
from .evaluation import (
    ExperimentConfig,
    ExperimentReport,
    accuracy,
    risk_difference,
    run_experiment,
    score,
    train_method,
)
from .mechanisms import (
    compose_split_delta,
    compose_split_epsilon,
    gaussian_sample,
    gaussian_sigma,
    l1_sensitivity_fair,
    l2_sensitivity_fair,
    laplace_sample,
    perturb,
    sensitive_mask,
)
from .optimizer import (
    RegularizationPolicy,
    minimize_logistic_exact,
    minimize_quadratic,
)
from .polynomial import (
    PolyObjective,
    fair_poly,
    lr_poly,
)
from .trainers import (
    TrainedModel,
    train_adfc,
    train_fair_lr,
    train_fm,
    train_lr,
    train_pdfc,
    train_relaxed_fm,
)
