"""Prediction, accuracy, risk difference, and the repeated-split experiment
protocol with aggregation into plot-ready reports.

An experiment takes a grid of (method, epsilon, delta) points and, for each
run index r, splits the dataset 80-20 afresh, then
trains every point on that split and evaluates on the held-out part.  All
randomness is derived from one master seed, so a report is a pure function
of (dataset, config).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dataset import EncodedDataset, split
from .mechanisms import split_total_delta
from .optimizer import RegularizationPolicy
from .trainers import (
    DELTA_METHODS,
    FAIR_METHODS,
    METHODS,
    PRIVATE_METHODS,
    SPLIT_METHODS,
    TrainedModel,
    train_adfc,
    train_fair_lr,
    train_fm,
    train_lr,
    train_pdfc,
    train_relaxed_fm,
)

DEFAULT_EPS_GRID = (1e-2, 10 ** -1.5, 1e-1, 1.0, 10 ** 0.5, 1e1)
DEFAULT_DELTA_GRID = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


def predict_labels(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Hard labels for the rows of X: 1 exactly when the score x.w is >= 0,
    i.e. when the logistic probability is >= 1/2 (ties predict 1)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"X has shape {X.shape}, expected (n, {model.d})")
    return (X @ model.w >= 0.0).astype(np.int64)


def score(model: TrainedModel, test: EncodedDataset) -> tuple[float, float | None]:
    """Accuracy and risk difference |P(label=1 | z=1) - P(label=1 | z=0)| on
    the test rows, from one prediction.  The risk difference is None when
    either protected group is empty; callers must surface that explicitly
    instead of treating it as zero.
    """
    if test.n < 1:
        raise ValueError("empty test set")
    labels = predict_labels(model, test.X)
    acc = float((labels == test.y).mean())
    in_group = test.z == 1
    if not in_group.any() or in_group.all():
        return acc, None
    return acc, float(abs(labels[in_group].mean() - labels[~in_group].mean()))


def accuracy(model: TrainedModel, test: EncodedDataset) -> float:
    return score(model, test)[0]


def risk_difference(model: TrainedModel, test: EncodedDataset) -> float | None:
    """The risk difference of :func:`score`; None when a group is empty."""
    return score(model, test)[1]


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a tuple of printable parts (hash-based, so it
    does not depend on platform, process or library version)."""
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# --- experiment protocol -----------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    method: str
    epsilon: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def check_run_options(alpha1: float, test_fraction: float) -> None:
    """The checks on the options every run shares, for sweeps and single fits."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if not math.isfinite(alpha1):
        raise ValueError(f"alpha1 must be finite, got {alpha1}")


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...]
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    delta_grid: tuple[float, ...] = (1e-3,)
    runs: int = 10
    master_seed: int = 0
    alpha1: float = 1.0
    s_attr: str = "random"  # feature name, source-column name, or "random"
    test_fraction: float = 0.2
    policy: RegularizationPolicy = field(default_factory=RegularizationPolicy)
    jobs: int = 1  # accepted and ignored: a sweep runs serially, one split per run

    def __post_init__(self):
        if not self.methods:
            raise ValueError("method list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {METHODS})")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.eps_grid:
            raise ValueError("epsilon grid is empty")
        if not self.delta_grid:
            raise ValueError("delta grid is empty")
        for e in self.eps_grid:
            if not 0.0 < e < math.inf:
                raise ValueError(f"epsilon grid value must be finite and positive, got {e}")
        for dv in self.delta_grid:
            if not 0.0 < dv < 1.0:
                raise ValueError(f"delta grid value must be in (0, 1), got {dv}")
        check_run_options(self.alpha1, self.test_fraction)

    def grid(self) -> list[GridPoint]:
        points = []
        for method in self.methods:
            deltas = self.delta_grid if method in DELTA_METHODS else (None,)
            for eps in self.eps_grid:
                for dlt in deltas:
                    points.append(GridPoint(method, eps, dlt))
        return points


@dataclass(frozen=True)
class RunResult:
    accuracy: float
    risk_difference: float | None
    seed: int
    method: str
    params: dict


@dataclass(frozen=True)
class PointAggregate:
    point: GridPoint
    runs: tuple[RunResult, ...]
    acc_mean: float | None
    acc_std: float | None
    rd_mean: float | None
    rd_std: float | None
    undefined_rd_count: int
    failed: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "method": self.point.method,
            "epsilon": self.point.epsilon,
            "delta": self.point.delta,
            "accuracy": {"mean": self.acc_mean, "std": self.acc_std},
            "risk_difference": {
                "mean": self.rd_mean,
                "std": self.rd_std,
                "undefined_count": self.undefined_rd_count,
            },
            "failed": self.failed,
            "error": self.error,
            "runs": [asdict(r) for r in self.runs],
        }


@dataclass(frozen=True)
class ExperimentReport:
    points: tuple[PointAggregate, ...]
    runs: int
    master_seed: int
    dataset_n: int
    dataset_d: int
    dataset_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "master_seed": self.master_seed,
            "dataset": {
                "n": self.dataset_n,
                "d": self.dataset_d,
                "fingerprint": self.dataset_fingerprint,
            },
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        points = []
        for pd in data["points"]:
            runs = tuple(RunResult(**r) for r in pd.get("runs", []))
            points.append(
                PointAggregate(
                    point=GridPoint(pd["method"], pd["epsilon"], pd["delta"]),
                    runs=runs,
                    acc_mean=pd["accuracy"]["mean"],
                    acc_std=pd["accuracy"]["std"],
                    rd_mean=pd["risk_difference"]["mean"],
                    rd_std=pd["risk_difference"]["std"],
                    undefined_rd_count=pd["risk_difference"]["undefined_count"],
                    failed=pd.get("failed", False),
                    error=pd.get("error"),
                )
            )
        return cls(
            points=tuple(points),
            runs=data["runs"],
            master_seed=data["master_seed"],
            dataset_n=data["dataset"]["n"],
            dataset_d=data["dataset"]["d"],
            dataset_fingerprint=data["dataset"]["fingerprint"],
        )

    def find(self, method: str, epsilon: float | None = None,
             delta: float | None = None) -> PointAggregate:
        for p in self.points:
            if p.point.method != method:
                continue
            if epsilon is not None and not _close(p.point.epsilon, epsilon):
                continue
            if delta is not None and not _close(p.point.delta, delta):
                continue
            return p
        raise KeyError(f"no grid point for {method} eps={epsilon} delta={delta}")


def _close(a: float | None, b: float) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=1e-9)


def resolve_s_index(ds: EncodedDataset, s_attr: str, run_seed: int) -> int:
    """Map the configured attribute to an encoded column index.

    "random" picks uniformly among encoded columns under the run seed; a
    source-column name of a one-hot attribute designates its first indicator.
    """
    if s_attr == "random":
        return int(np.random.default_rng(run_seed).integers(ds.d))
    if s_attr in ds.feature_names:
        return ds.feature_names.index(s_attr)
    for i, name in enumerate(ds.feature_names):
        if name.startswith(s_attr + "="):
            return i
    raise ValueError(f"s attribute {s_attr!r} matches no encoded feature column")


def _effective_key(point: GridPoint, alpha1: float, s_attr: str) -> tuple:
    """Parameters a method actually consumes; grid points sharing a key have
    identical result distributions and are computed once."""
    m = point.method
    eps = point.epsilon if m in PRIVATE_METHODS else None
    dlt = point.delta if m in DELTA_METHODS else None
    a1 = alpha1 if m in FAIR_METHODS else None
    s = s_attr if m in SPLIT_METHODS else None
    return (m, eps, dlt, a1, s)


def split_budgets(method: str, eps, delta, eps_s=None, eps_n=None, delta_s=None,
                  delta_n=None) -> tuple:
    """(eps_s, eps_n, delta_s, delta_n) as ``method`` uses them: PDFC and ADFC
    give the ``s_attr`` column eps_s[/delta_s] and the rest eps_n[/delta_n]; a
    pair left out becomes eps for both epsilons and 1 - sqrt(1 - delta) for
    both deltas, which composes back to (eps, delta).  Other methods get the
    pairs back unchanged."""
    if method in SPLIT_METHODS and None in (eps_s, eps_n):
        eps_s = eps_n = eps
    if method in SPLIT_METHODS and method in DELTA_METHODS and None in (delta_s, delta_n):
        delta_s = delta_n = split_total_delta(delta)
    return eps_s, eps_n, delta_s, delta_n


def train_method(train_ds: EncodedDataset, method: str, seed: int, *,
                 eps=None, delta=None, eps_s=None, eps_n=None, delta_s=None, delta_n=None,
                 alpha1: float = 1.0, s_attr: str = "random",
                 policy: RegularizationPolicy | None = None) -> TrainedModel:
    """Train one model of any method; the sweep and ``train`` share this table.
    PDFC and ADFC divide their budget as ``split_budgets`` says."""
    if method == "LR":
        return train_lr(train_ds, policy=policy)
    if method == "FairLR":
        return train_fair_lr(train_ds, alpha1=alpha1)
    if method == "FM":
        return train_fm(train_ds, eps, seed=seed)
    if method == "RelaxedFM":
        return train_relaxed_fm(train_ds, eps, delta, seed=seed)
    if method not in SPLIT_METHODS:
        raise ValueError(f"unknown method {method!r} (choose from {METHODS})")
    s_index = resolve_s_index(train_ds, s_attr, derive_seed("s-attr", seed))
    eps_s, eps_n, delta_s, delta_n = split_budgets(
        method, eps, delta, eps_s, eps_n, delta_s, delta_n)
    if method == "PDFC":
        return train_pdfc(train_ds, eps_s=eps_s, eps_n=eps_n, s_index=s_index,
                          alpha1=alpha1, seed=seed)
    return train_adfc(train_ds, eps_s=eps_s, eps_n=eps_n, delta_s=delta_s,
                      delta_n=delta_n, s_index=s_index, alpha1=alpha1, seed=seed)


def _aggregate(point: GridPoint, results: list[RunResult]) -> PointAggregate:
    accs = [r.accuracy for r in results]
    rds = [r.risk_difference for r in results if r.risk_difference is not None]
    undefined = len(results) - len(rds)

    def stats(values):
        if not values:
            return None, None
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1)) if len(values) >= 2 else 0.0
        return mean, std

    acc_mean, acc_std = stats(accs)
    rd_mean, rd_std = stats(rds)
    return PointAggregate(
        point=point,
        runs=tuple(results),
        acc_mean=acc_mean,
        acc_std=acc_std,
        rd_mean=rd_mean,
        rd_std=rd_std,
        undefined_rd_count=undefined,
    )


def run_experiment(ds: EncodedDataset, config: ExperimentConfig) -> ExperimentReport:
    """Run the full sweep and aggregate mean +- sample std per grid point.

    Equivalent grid points (same effective parameters) are trained once and
    their rows replicated.  A failing point is marked failed with its error
    and does not abort the sweep.
    """
    points = config.grid()
    keys = {}
    for p in points:
        keys.setdefault(_effective_key(p, config.alpha1, config.s_attr), None)

    # Runs first: one split, and the sufficient statistics of its train part,
    # serve every key of a run.  A key's first error ends its runs.
    outcomes: dict[tuple, list[RunResult] | Exception] = {k: [] for k in keys}
    for r in range(config.runs):
        live = [k for k in keys if not isinstance(outcomes[k], Exception)]
        if not live:
            break
        try:
            train_ds, test_ds = split(ds, config.test_fraction,
                                      derive_seed("split", config.master_seed, r))
        except Exception as exc:  # noqa: BLE001 - fails every key, not the sweep
            outcomes.update(dict.fromkeys(live, exc))
            break
        for k in live:
            method, eps, dlt, alpha1, s_attr = k
            run_seed = derive_seed("train", config.master_seed, r, *k)
            try:
                model = train_method(
                    train_ds, method, run_seed, eps=eps, delta=dlt,
                    alpha1=alpha1, s_attr=s_attr, policy=config.policy,
                )
                acc, rd = score(model, test_ds)
                outcomes[k].append(RunResult(
                    accuracy=acc, risk_difference=rd,
                    seed=run_seed,
                    method=method,
                    params={"epsilon": eps, "delta": dlt, "alpha1": alpha1, "s_attr": s_attr},
                ))
            except Exception as exc:  # noqa: BLE001 - point-level isolation
                outcomes[k] = exc

    aggregates = []
    for p in points:
        outcome = outcomes[_effective_key(p, config.alpha1, config.s_attr)]
        if isinstance(outcome, Exception):
            aggregates.append(replace(_aggregate(p, []), failed=True,
                                      error=f"{type(outcome).__name__}: {outcome}"))
        else:
            aggregates.append(_aggregate(p, outcome))
    return ExperimentReport(
        points=tuple(aggregates),
        runs=config.runs,
        master_seed=config.master_seed,
        dataset_n=ds.n,
        dataset_d=ds.d,
        dataset_fingerprint=ds.fingerprint(),
    )


# --- rendering ---------------------------------------------------------------

CSV_HEADER = "method,eps,delta,acc_mean,acc_std,rd_mean,rd_std,undefined_rd_count"


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def report_csv_lines(report: ExperimentReport) -> list[str]:
    """One row per grid-point aggregate; blank stat cells for failed points."""
    lines = [CSV_HEADER]
    for p in report.points:
        lines.append(
            ",".join(
                [
                    p.point.method,
                    _fmt(p.point.epsilon),
                    _fmt(p.point.delta),
                    _fmt(p.acc_mean),
                    _fmt(p.acc_std),
                    _fmt(p.rd_mean),
                    _fmt(p.rd_std),
                    str(p.undefined_rd_count),
                ]
            )
        )
    return lines


def _cell(mean: float | None, std: float | None, undefined: int = 0) -> str:
    if mean is None:
        return f"n/a({undefined})" if undefined else "n/a"
    return f"{mean:.3f} ± {std:.3f}"


def render_table(report: ExperimentReport) -> str:
    """Human-readable table, one row per (method, eps[, delta]) point."""
    header = ("method", "eps", "delta", "accuracy", "risk_difference")
    rows = [header]
    for p in report.points:
        if p.failed:
            rows.append(
                (p.point.method, _num(p.point.epsilon), _num(p.point.delta),
                 f"FAILED: {p.error}", "")
            )
        else:
            rows.append(
                (
                    p.point.method,
                    _num(p.point.epsilon),
                    _num(p.point.delta),
                    _cell(p.acc_mean, p.acc_std),
                    _cell(p.rd_mean, p.rd_std, p.undefined_rd_count),
                )
            )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    out = []
    for i, row in enumerate(rows):
        out.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def _num(value: float | None) -> str:
    return "-" if value is None else f"{value:g}"
