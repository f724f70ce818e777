"""Prediction, accuracy, risk difference, and the repeated-split experiment
protocol with aggregation into plot-ready reports.

An experiment takes a grid of (method, epsilon, delta) points and, for each
run index r, splits the dataset 80-20 afresh (``TEST_FRACTION``), trains
every point on that split, then scores all of the run's models on the
held-out part in one blocked pass (:func:`score_all`).  All randomness is
derived from one master seed, so a report is a pure function of
(dataset, config).

:func:`predict_labels` is the one reference for a model's labels.
:func:`score` predicts once; :func:`score_all` forms ``X @ W`` for a block of
rows and every model at a time and re-predicts, over all rows, any model
whose scores come near enough to 0 that their sign could depend on the
summation order.  Both count hits and positives exactly and share
:func:`_rates`, so their (accuracy, risk difference) are equal bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .dataset import EncodedDataset, split
from .mechanisms import check_budget, check_gaussian_delta, split_total_delta
from .optimizer import RegularizationPolicy
from .polynomial import check_alpha1
from .trainers import (
    DELTA_METHODS,
    FAIR_METHODS,
    METHODS,
    PRIVATE_METHODS,
    SPLIT_METHODS,
    TrainedModel,
    _integer,
    _real,
    train_adfc,
    train_fair_lr,
    train_fm,
    train_lr,
    train_pdfc,
    train_relaxed_fm,
)

DEFAULT_EPS_GRID = (1e-2, 10 ** -1.5, 1e-1, 1.0, 10 ** 0.5, 1e1)
DEFAULT_DELTA_GRID = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
TEST_FRACTION = 0.2  # the held-out share of every split, sweeps and train alike
SCORE_BLOCK = 1 << 13  # entries of one block of score_all's scores (rows x models)


def predict_labels(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Hard labels for the rows of X: 1 exactly when the score x.w is >= 0,
    i.e. when the logistic probability is >= 1/2 (ties predict 1)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"X has shape {X.shape}, expected (n, {model.d})")
    return (X @ model.w >= 0.0).astype(np.int64)


def _indicators(test: EncodedDataset) -> np.ndarray:
    """The (3, n) 0/1 rows y = 1, every row and z = 1 of the test rows.  Their
    product with 0/1 labels counts the true positives, the positives and the
    positives with z = 1, exactly: each sum is an integer below 2**53."""
    return np.stack([test.y == 1, np.ones(test.n, dtype=bool), test.z == 1]).astype(float)


def _rates(totals, counts) -> tuple[float, float | None]:
    """Accuracy and risk difference from the row sums of the indicators
    (``totals``) and their product with the labels (``counts``).  Each rate
    is one float64 division of two integers: the bits of the ``.mean()`` of
    the 0/1 array its count was taken over."""
    n_y1, n, n1 = map(int, totals)
    tp, pos, pos1 = map(int, counts)
    acc = (tp + (n - n_y1) - (pos - tp)) / n  # true positives plus true negatives
    if n1 in (0, n):
        return acc, None
    return acc, abs(pos1 / n1 - (pos - pos1) / (n - n1))


def score(model: TrainedModel, test: EncodedDataset) -> tuple[float, float | None]:
    """Accuracy and risk difference |P(label=1 | z=1) - P(label=1 | z=0)| on
    the test rows, from one prediction.  The risk difference is None when
    either protected group is empty; callers must surface that explicitly
    instead of treating it as zero.
    """
    if test.n < 1:
        raise ValueError("empty test set")
    labels = predict_labels(model, test.X)
    indicators = _indicators(test)
    return _rates(indicators.sum(axis=1).tolist(), (indicators @ labels).tolist())


def score_all(models: list[TrainedModel],
              test: EncodedDataset) -> list[tuple[float, float | None]]:
    """:func:`score` of each model, bit for bit, from one blocked pass over
    the test rows.

    Each block of rows is multiplied by the d x K stack of weights at once;
    a block holds about ``SCORE_BLOCK`` scores, so no n x K array is formed.
    That product sums in another order than ``predict_labels``' ``X @ w``,
    and both are within gamma_d * sum_j |x_j w_j| <= gamma_d ||x|| ||w|| of the
    exact score (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1), gamma_d ~ d * eps / 2.  A score farther from 0 than the slack
    4 (d + 2) eps max_r ||x_r|| ||w|| + d tiny, over twice that, therefore has
    the sign of the reference score.  Both norms are rounded up: the row
    norms past underflow (d tiny under the root), and w is scaled by its
    largest entry, so its norm neither underflows nor overflows.  Where
    ||x|| ||w|| is not below half the largest float, a sum could overflow in
    one order and not in the other, so the slack is infinite.  A model with
    any score within its slack, or not a number, is predicted again with
    :func:`predict_labels` over all rows: a product over fewer rows need not
    reproduce that call's bits.
    """
    if not models:
        return []
    X = test.X
    n, d = X.shape
    for model in models:
        if model.d != d:
            raise ValueError(f"X has shape {X.shape}, expected (n, {model.d})")
    W = np.stack([model.w for model in models], axis=1)
    fmax, eps, tiny = np.finfo(float).max, np.finfo(float).eps, np.finfo(float).tiny
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound flags its model
        big = np.abs(W).max(axis=0)
        w_norm = big * np.sqrt(np.square(W / np.where(big > 0, big, 1.0)).sum(axis=0))
        x_norm = math.sqrt(np.einsum("ij,ij->i", X, X).max() + d * tiny)
        bound = x_norm * w_norm  # >= sum_j |x_j w_j| >= |every partial sum|
        slack = np.where(bound < fmax / 2, 4 * (d + 2) * eps * bound + d * tiny, np.inf)
    indicators = _indicators(test)
    counts = np.zeros((3, len(models)))
    closest = np.full(len(models), np.inf)  # the smallest |score| of each model
    rows = max(1, SCORE_BLOCK // len(models))
    for start in range(0, n, rows):
        scores = X[start:start + rows] @ W
        closest = np.minimum(closest, np.abs(scores).min(axis=0))
        counts += indicators[:, start:start + rows] @ (scores >= 0.0)
    for k in np.flatnonzero(~(closest > slack)):
        counts[:, k] = indicators @ predict_labels(models[k], X)
    totals = indicators.sum(axis=1).tolist()
    return [_rates(totals, column) for column in counts.T.tolist()]


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


def _real_as_given(name: str, value):
    """``value`` checked by the trainers' rule (an int past the float range
    fails it too); a Python int stays as given, so ``eps_grid=(1,)`` is
    still written as ``1``."""
    real = _real(name, value)
    return value if type(value) is int else real


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...]
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    delta_grid: tuple[float, ...] = DEFAULT_DELTA_GRID
    runs: int = 10
    master_seed: int = 0
    alpha1: float = 1.0
    s_attr: str = "random"  # feature name, source-column name, or "random"
    policy: RegularizationPolicy = field(default_factory=RegularizationPolicy)
    jobs: int = 1  # accepted and ignored: a sweep runs serially, one split per run

    def __post_init__(self):
        if not self.methods:
            raise ValueError("method list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r} (choose from {METHODS})")
        # Numbers as the trainers take them: a bool or a non-number is an
        # error naming the field, and a NumPy scalar, which json cannot
        # write, is kept as the Python number of the same value.
        for name in ("runs", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "alpha1", _real_as_given("alpha1", self.alpha1))
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.eps_grid:
            raise ValueError("epsilon grid is empty")
        if not self.delta_grid:
            raise ValueError("delta grid is empty")
        for name, label in (("eps_grid", "epsilon grid value"), ("delta_grid", "delta grid value")):
            object.__setattr__(self, name, tuple(_real_as_given(label, v)
                                                 for v in getattr(self, name)))
            for v in getattr(self, name):
                check_budget(label, v)
        for name, values in (("methods", self.methods), ("eps_grid", self.eps_grid),
                             ("delta_grid", self.delta_grid)):
            for i, v in enumerate(values):  # a repeat would write its report rows twice
                if v in values[:i]:
                    raise ValueError(f"{name} repeats {v!r}")
        check_alpha1(self.alpha1)

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


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    """Mean and sample std (ddof=1; 0.0 for one value); None, None when empty."""
    if not values:
        return None, None
    std = float(np.std(values, ddof=1)) if len(values) >= 2 else 0.0
    return float(np.mean(values)), std


@dataclass(frozen=True)
class PointAggregate:
    """A grid point's runs, or the error that ended them.  The statistics are
    computed from the runs on first use and kept."""

    point: GridPoint
    runs: tuple[RunResult, ...] = ()
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @cached_property
    def _acc(self) -> tuple[float | None, float | None]:
        return _mean_std([r.accuracy for r in self.runs])

    @cached_property
    def _rd(self) -> tuple[float | None, float | None]:
        return _mean_std([r.risk_difference for r in self.runs
                          if r.risk_difference is not None])

    acc_mean = property(lambda self: self._acc[0])
    acc_std = property(lambda self: self._acc[1])
    rd_mean = property(lambda self: self._rd[0])
    rd_std = property(lambda self: self._rd[1])

    @property
    def undefined_rd_count(self) -> int:
        return sum(r.risk_difference is None for r in self.runs)

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
        """Read back what ``to_dict`` wrote: each point's method, epsilon,
        delta, runs and error; the statistics are computed from the runs."""
        points = tuple(
            PointAggregate(_grid_point(pd), tuple(RunResult(**r) for r in pd["runs"]),
                           pd["error"])
            for pd in data["points"]
        )
        dataset = data["dataset"]
        return cls(points, data["runs"], data["master_seed"],
                   dataset["n"], dataset["d"], dataset["fingerprint"])

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


def _grid_point(pd: dict) -> GridPoint:
    """A report point's grid point.  A method that is not a string, or an
    epsilon or delta that is neither a number nor null, is a TypeError."""
    if not isinstance(pd["method"], str):
        raise TypeError(f"method {pd['method']!r} is not a string")
    for key in ("epsilon", "delta"):
        value = pd[key]
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))):
            raise TypeError(f"{key} {value!r} is neither a number nor null")
    return GridPoint(pd["method"], pd["epsilon"], pd["delta"])


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


def method_budgets(method: str, eps=None, delta=None, eps_s=None, eps_n=None,
                   delta_s=None, delta_n=None) -> dict:
    """The six budgets by name as ``method`` reads them, None for the rest.
    Each value given must be in range, read or not.  A private method needs
    eps, RelaxedFM and ADFC delta.  PDFC (eps) and ADFC (eps and delta) take
    whole (_s, _n) pairs or fill them from the totals: eps for both epsilons
    and 1 - sqrt(1 - delta) for both deltas, which composes back to (eps, delta).
    A delta that calibrates Gaussian noise must also be below sqrt(2/pi)."""
    given = dict(eps=eps, delta=delta, eps_s=eps_s, eps_n=eps_n, delta_s=delta_s, delta_n=delta_n)
    for name, value in given.items():
        if value is not None:
            check_budget(name, value)
    split_budget = method in SPLIT_METHODS
    read = [total for total, methods in (("eps", PRIVATE_METHODS), ("delta", DELTA_METHODS))
            if method in methods]
    for total in read:
        pair = (given[f"{total}_s"], given[f"{total}_n"])
        if given[total] is None and (not split_budget or None in pair):
            either = f" or both {total}_s and {total}_n" if split_budget else ""
            raise ValueError(f"method {method} requires {total}{either}")
    budgets = dict.fromkeys(given)
    for total in read:
        budgets[total] = given[total]
        if split_budget:
            pair = (given[f"{total}_s"], given[f"{total}_n"])
            if pair.count(None) == 1:
                raise ValueError(f"method {method} takes both {total}_s and {total}_n, or neither")
            if pair[0] is None:
                pair = (eps, eps) if total == "eps" else (split_total_delta(delta),) * 2
            budgets[f"{total}_s"], budgets[f"{total}_n"] = pair
    if method in DELTA_METHODS:
        for name in ("delta_s", "delta_n") if split_budget else ("delta",):
            check_gaussian_delta(budgets[name])
    return budgets


def train_method(train_ds: EncodedDataset, method: str, seed: int, *,
                 eps=None, delta=None, eps_s=None, eps_n=None, delta_s=None, delta_n=None,
                 alpha1: float = 1.0, s_attr: str = "random",
                 policy: RegularizationPolicy | None = None) -> TrainedModel:
    """Train one model of any method; the sweep and ``train`` share this table.
    The budgets are checked, and PDFC and ADFC's divided, by ``method_budgets``."""
    b = method_budgets(method, eps, delta, eps_s, eps_n, delta_s, delta_n)
    if method == "LR":
        return train_lr(train_ds, policy=policy)
    if method == "FairLR":
        return train_fair_lr(train_ds, alpha1=alpha1)
    if method == "FM":
        return train_fm(train_ds, b["eps"], seed=seed)
    if method == "RelaxedFM":
        return train_relaxed_fm(train_ds, b["eps"], b["delta"], seed=seed)
    if method not in SPLIT_METHODS:
        raise ValueError(f"unknown method {method!r} (choose from {METHODS})")
    s_index = resolve_s_index(train_ds, s_attr, derive_seed("s-attr", seed))
    if method == "PDFC":
        return train_pdfc(train_ds, eps_s=b["eps_s"], eps_n=b["eps_n"], s_index=s_index,
                          alpha1=alpha1, seed=seed)
    return train_adfc(train_ds, eps_s=b["eps_s"], eps_n=b["eps_n"], delta_s=b["delta_s"],
                      delta_n=b["delta_n"], s_index=s_index, alpha1=alpha1, seed=seed)


def run_experiment(ds: EncodedDataset, config: ExperimentConfig) -> ExperimentReport:
    """Run the full sweep and aggregate mean +- sample std per grid point.

    Equivalent grid points (same effective parameters) are trained once and
    their rows replicated.  Each run splits once, trains every live key on
    the train part, then scores all of the run's models in one
    :func:`score_all` pass.  A failing point is marked failed with its error
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
            train_ds, test_ds = split(ds, TEST_FRACTION,
                                      derive_seed("split", config.master_seed, r))
        except Exception as exc:  # noqa: BLE001 - fails every key, not the sweep
            outcomes.update(dict.fromkeys(live, exc))
            break
        # Each model's weights move into one array made before the fits: the
        # run's small weight buffers, kept between the fits' temporaries,
        # fragmented the heap and raised a default sweep's peak RSS by ~1 MB.
        weights = np.empty((len(live), ds.d))
        trained = {}  # key -> (run seed, model)
        for k, w in zip(live, weights):
            method, eps, dlt, alpha1, s_attr = k
            run_seed = derive_seed("train", config.master_seed, r, *k)
            try:
                model = train_method(
                    train_ds, method, run_seed, eps=eps, delta=dlt,
                    alpha1=alpha1, s_attr=s_attr, policy=config.policy,
                )
                w[:] = model.w
                trained[k] = run_seed, replace(model, w=w)
            except Exception as exc:  # noqa: BLE001 - point-level isolation
                outcomes[k] = exc
        try:
            scores = score_all([model for _, model in trained.values()], test_ds)
        except Exception as exc:  # noqa: BLE001 - fails the run's keys, not the sweep
            outcomes.update(dict.fromkeys(trained, exc))
            continue
        for (k, (run_seed, _)), (acc, rd) in zip(trained.items(), scores):
            method, eps, dlt, alpha1, s_attr = k
            outcomes[k].append(RunResult(
                accuracy=acc, risk_difference=rd,
                seed=run_seed,
                method=method,
                params={"epsilon": eps, "delta": dlt, "alpha1": alpha1, "s_attr": s_attr},
            ))

    aggregates = []
    for p in points:
        outcome = outcomes[_effective_key(p, config.alpha1, config.s_attr)]
        if isinstance(outcome, Exception):
            aggregates.append(PointAggregate(p, error=f"{type(outcome).__name__}: {outcome}"))
        else:
            aggregates.append(PointAggregate(p, tuple(outcome)))
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
