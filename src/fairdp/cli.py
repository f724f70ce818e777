"""Command-line interface: fetch data, train single models, run sweeps, and
render report tables.

Subcommands
-----------
fetch   download a known dataset into the cache (FAIRDP_CACHE or ~/.cache/fairdp)
train   train one model on an 80-20 split, write model.json + manifest.json
sweep   run a (method x epsilon x delta) grid, write report.json/report.csv
report  render a saved report as a text table or CSV

Flags follow a ``--config FILE`` of ``key = value`` lines (same keys as the
long flag names); explicit flags win over file values.  All randomness flows
from one ``--seed`` recorded in the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .dataset import (
    ColumnSpec,
    FetchError,
    ParseError,
    Schema,
    build_dataset,
    fetch_dataset,
    load_csv,
    split,
)
from .evaluation import (
    DEFAULT_DELTA_GRID,
    DEFAULT_EPS_GRID,
    ExperimentConfig,
    ExperimentReport,
    accuracy,
    derive_seed,
    render_table,
    report_csv_lines,
    risk_difference,
    run_experiment,
    train_method,
)
from .mechanisms import split_total_delta
# Re-exported: scripts that drive single fits (bench/run.py) import the
# trainers from here; tests/test_bench_contract.py pins the names.
from .trainers import (  # noqa: F401
    train_adfc,
    train_fair_lr,
    train_fm,
    train_lr,
    train_pdfc,
    train_relaxed_fm,
)

DEFAULT_CACHE = Path.home() / ".cache" / "fairdp"
CACHE_ENV = "FAIRDP_CACHE"

METHOD_ALIASES = {
    "lr": "LR",
    "fairlr": "FairLR",
    "fair-lr": "FairLR",
    "fm": "FM",
    "relaxedfm": "RelaxedFM",
    "relaxed-fm": "RelaxedFM",
    "pdfc": "PDFC",
    "adfc": "ADFC",
}


class CLIError(Exception):
    """Configuration problem reported to the user without a traceback."""


def _canonical_method(name: str) -> str:
    key = name.strip().lower()
    if key not in METHOD_ALIASES:
        raise CLIError(f"unknown method {name!r}; choose from {sorted(set(METHOD_ALIASES.values()))}")
    return METHOD_ALIASES[key]


def parse_keyvalue_file(path: str | Path) -> dict[str, str]:
    """Plain-text config: one ``key = value`` per line, ``#`` comments."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CLIError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _split_names(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def parse_schema_file(path: str | Path) -> Schema:
    """Schema config keys: label, label_positive, protected, protected_positive,
    numeric (comma list), categorical (comma list), optional columns (names
    for header-less files) and the optional booleans
    include_protected_in_features / add_constant_feature."""
    return _schema_from_kv(parse_keyvalue_file(path), str(path))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in _split_names(text))
    except ValueError as exc:
        raise CLIError(f"bad numeric list {text!r}: {exc}") from None
    if not values:
        raise CLIError(f"empty numeric list {text!r}")
    return values


def _eff(args, cfg: dict[str, str], key: str, default=None):
    """Effective option value: explicit flag, else config file, else default.
    Config files may spell keys with either dashes or underscores."""
    flag_val = getattr(args, key.replace("-", "_"), None)
    if flag_val is not None:
        return flag_val
    for k in (key, key.replace("-", "_"), key.replace("_", "-")):
        if k in cfg:
            return cfg[k]
    return default


def _validate_budgets(method, eps, delta, eps_s, eps_n, delta_s, delta_n):
    def positive(name, v):
        if v is not None and v <= 0:
            raise CLIError(f"{name} must be positive, got {v}")

    def unit(name, v):
        if v is not None and not 0.0 < v < 1.0:
            raise CLIError(f"{name} must be in (0, 1), got {v}")

    for name, v in (("--eps", eps), ("--eps-s", eps_s), ("--eps-n", eps_n)):
        positive(name, v)
    for name, v in (("--delta", delta), ("--delta-s", delta_s), ("--delta-n", delta_n)):
        unit(name, v)
    if method in ("FM", "RelaxedFM") and eps is None:
        raise CLIError(f"method {method} requires --eps")
    if method in ("PDFC", "ADFC") and eps is None and (eps_s is None or eps_n is None):
        raise CLIError(f"method {method} requires --eps or both --eps-s/--eps-n")
    if method == "RelaxedFM" and delta is None:
        raise CLIError("method RelaxedFM requires --delta")
    if method == "ADFC" and delta is None and (delta_s is None or delta_n is None):
        raise CLIError("method ADFC requires --delta or both --delta-s/--delta-n")


_SCHEMA_KEYS = ("label", "label_positive", "protected", "protected_positive",
                "numeric", "categorical", "columns")


def _schema_from_kv(kv: dict[str, str], origin: str) -> Schema:
    required = ("label", "label_positive", "protected", "protected_positive")
    missing = [k for k in required if k not in kv]
    if missing:
        raise CLIError(f"{origin}: missing schema keys: {', '.join(missing)}")
    features = [ColumnSpec(n, "numeric") for n in _split_names(kv.get("numeric", ""))]
    features += [ColumnSpec(n, "categorical") for n in _split_names(kv.get("categorical", ""))]
    if not features:
        raise CLIError(f"{origin}: schema lists no feature columns")

    def flag(key):
        return kv.get(key, "false").strip().lower() in ("1", "true", "yes")

    return Schema(
        label_column=kv["label"],
        label_positive=kv["label_positive"],
        protected_column=kv["protected"],
        protected_positive=kv["protected_positive"],
        feature_columns=tuple(features),
        include_protected_in_features=flag("include_protected_in_features"),
        add_constant_feature=flag("add_constant_feature"),
    )


def _load_with_schema_kv(dataset_path, kv: dict[str, str], origin: str):
    if not Path(dataset_path).exists():
        raise CLIError(f"dataset file not found: {dataset_path}")
    schema = _schema_from_kv(kv, origin)
    columns = _split_names(kv.get("columns", ""))
    if columns:
        raw = load_csv(dataset_path, has_header=False)
        if len(columns) != raw.n_cols:
            raise CLIError(
                f"schema lists {len(columns)} columns but {dataset_path} has "
                f"{raw.n_cols}"
            )
        raw = dataclasses.replace(raw, column_names=tuple(columns))
    else:
        raw = load_csv(dataset_path, has_header=True)
    return build_dataset(raw, schema), schema, raw


def load_encoded_dataset(dataset_path: str | Path, schema_path: str | Path):
    """CSV + schema file -> normalized EncodedDataset.

    A ``columns`` key in the schema file names the columns of a header-less
    file (e.g. the UCI Adult data files); without it the CSV's first row is
    the header.
    """
    if not Path(schema_path).exists():
        raise CLIError(f"schema file not found: {schema_path}")
    return _load_with_schema_kv(
        dataset_path, parse_keyvalue_file(schema_path), str(schema_path)
    )


def _resolve_dataset(args, cfg):
    """Schema from --schema FILE or from the schema flags (--label, ...)."""
    dataset_path = _eff(args, cfg, "dataset")
    if dataset_path is None:
        raise CLIError("--dataset is required")
    schema_path = _eff(args, cfg, "schema")
    if schema_path is not None:
        if not Path(schema_path).exists():
            raise CLIError(f"schema file not found: {schema_path}")
        kv = parse_keyvalue_file(schema_path)
        origin = str(schema_path)
    else:
        kv = {k: v for k in _SCHEMA_KEYS if (v := _eff(args, cfg, k)) is not None}
        origin = "schema flags"
        if not kv:
            raise CLIError("--schema file or schema flags (--label, ...) required")
    return _load_with_schema_kv(dataset_path, kv, origin)


def cmd_fetch(args) -> int:
    cache = args.cache_dir or os.environ.get(CACHE_ENV) or str(DEFAULT_CACHE)
    paths = fetch_dataset(args.name, cache)
    for filename, path in sorted(paths.items()):
        print(f"{filename}\t{path}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_keyvalue_file(args.config) if args.config else {}
    method = _canonical_method(_eff(args, cfg, "method") or "")
    eps = _opt_float(_eff(args, cfg, "eps"))
    delta = _opt_float(_eff(args, cfg, "delta"))
    eps_s = _opt_float(_eff(args, cfg, "eps-s"))
    eps_n = _opt_float(_eff(args, cfg, "eps-n"))
    delta_s = _opt_float(_eff(args, cfg, "delta-s"))
    delta_n = _opt_float(_eff(args, cfg, "delta-n"))
    _validate_budgets(method, eps, delta, eps_s, eps_n, delta_s, delta_n)
    seed = int(_eff(args, cfg, "seed", 0))
    alpha1 = float(_eff(args, cfg, "alpha1", 1.0))
    s_attr = _eff(args, cfg, "s-attr", "random")
    test_fraction = float(_eff(args, cfg, "test-fraction", 0.2))
    dataset_path = _eff(args, cfg, "dataset")
    out_dir = Path(_eff(args, cfg, "out", "."))

    # The manifest records the split budgets a split-budget method uses.
    if method in ("PDFC", "ADFC") and (eps_s is None or eps_n is None):
        eps_s = eps_n = eps
    if method == "ADFC" and (delta_s is None or delta_n is None):
        delta_s = delta_n = split_total_delta(delta)

    ds, schema, _raw = _resolve_dataset(args, cfg)
    train_ds, test_ds = split(ds, test_fraction, derive_seed("split", seed, 0))
    model = train_method(
        train_ds, method, derive_seed("train", seed, 0, method),
        eps=eps, delta=delta, eps_s=eps_s, eps_n=eps_n,
        delta_s=delta_s, delta_n=delta_n, alpha1=alpha1, s_attr=s_attr,
    )

    acc = accuracy(model, test_ds)
    rd = risk_difference(model, test_ds)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "model.json", model.to_dict())
    manifest = {
        "command": "train",
        "version": __version__,
        "seed": seed,
        "config": {
            "dataset": str(dataset_path),
            "schema": _schema_dict(schema),
            "method": method,
            "eps": eps, "delta": delta,
            "eps_s": eps_s, "eps_n": eps_n,
            "delta_s": delta_s, "delta_n": delta_n,
            "s_attr": s_attr,
            "alpha1": alpha1,
            "test_fraction": test_fraction,
        },
        "dataset_fingerprint": ds.fingerprint(),
        "outputs": ["model.json"],
    }
    _write_json(out_dir / "manifest.json", manifest)

    budget = model.budgets
    eps_text = f"{budget.epsilon:g}" if budget else "-"
    delta_text = f"{budget.delta:g}" if budget and budget.delta is not None else "-"
    rd_text = "n/a" if rd is None else f"{rd:.3f}"
    print(f"{method} eps={eps_text} delta={delta_text} acc={acc:.3f} rd={rd_text}")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_keyvalue_file(args.config) if args.config else {}
    methods_text = _eff(args, cfg, "methods")
    if not methods_text:
        raise CLIError("--methods is required (comma-separated list)")
    methods = tuple(_canonical_method(m) for m in _split_names(methods_text))
    eps_text = _eff(args, cfg, "eps")
    delta_text = _eff(args, cfg, "delta")
    eps_grid = _parse_float_list(eps_text) if eps_text else DEFAULT_EPS_GRID
    delta_grid = _parse_float_list(delta_text) if delta_text else DEFAULT_DELTA_GRID
    runs = int(_eff(args, cfg, "runs", 10))
    seed = int(_eff(args, cfg, "seed", 0))
    alpha1 = float(_eff(args, cfg, "alpha1", 1.0))
    s_attr = _eff(args, cfg, "s-attr", "random")
    test_fraction = float(_eff(args, cfg, "test-fraction", 0.2))
    dataset_path = _eff(args, cfg, "dataset")
    out_dir = Path(_eff(args, cfg, "out", "."))

    # Built before the data is loaded: a bad grid fails before any compute.
    config = ExperimentConfig(
        methods=methods,
        eps_grid=eps_grid,
        delta_grid=delta_grid,
        runs=runs,
        master_seed=seed,
        alpha1=alpha1,
        s_attr=s_attr,
        test_fraction=test_fraction,
    )
    ds, schema, _raw = _resolve_dataset(args, cfg)
    report = run_experiment(ds, config)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report.to_dict())
    (out_dir / "report.csv").write_text("\n".join(report_csv_lines(report)) + "\n")
    manifest = {
        "command": "sweep",
        "version": __version__,
        "seed": seed,
        "config": {
            "dataset": str(dataset_path),
            "schema": _schema_dict(schema),
            "methods": list(methods),
            "eps_grid": list(eps_grid),
            "delta_grid": list(delta_grid),
            "runs": runs,
            "alpha1": alpha1,
            "s_attr": s_attr,
            "test_fraction": test_fraction,
        },
        "dataset_fingerprint": ds.fingerprint(),
        "outputs": ["report.json", "report.csv"],
    }
    _write_json(out_dir / "manifest.json", manifest)

    failed = [p for p in report.points if p.failed]
    for p in failed:
        print(
            f"point {p.point.method} eps={p.point.epsilon} delta={p.point.delta} "
            f"failed: {p.error}",
            file=sys.stderr,
        )
    print(f"wrote {out_dir / 'report.json'} ({len(report.points)} grid points, "
          f"{len(failed)} failed)")
    return 1 if len(failed) == len(report.points) else 0


def cmd_report(args) -> int:
    path = Path(args.report)
    if not path.exists():
        raise CLIError(f"report file not found: {path}")
    try:
        report = ExperimentReport.from_dict(json.loads(path.read_text()))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CLIError(f"malformed report file {path}: {exc}") from None
    if args.format == "csv":
        print("\n".join(report_csv_lines(report)))
    else:
        print(render_table(report), end="")
    return 0


def _schema_dict(schema: Schema) -> dict:
    return {
        "label": schema.label_column,
        "label_positive": schema.label_positive,
        "protected": schema.protected_column,
        "protected_positive": schema.protected_positive,
        "numeric": [c.name for c in schema.feature_columns if c.kind == "numeric"],
        "categorical": [c.name for c in schema.feature_columns if c.kind == "categorical"],
        "include_protected_in_features": schema.include_protected_in_features,
        "add_constant_feature": schema.add_constant_feature,
    }


def _opt_float(value) -> float | None:
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CLIError(f"expected a number, got {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdp",
        description="Differentially private and fair logistic regression.",
    )
    parser.add_argument("--version", action="version", version=f"fairdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fetch = sub.add_parser("fetch", help="download a dataset into the local cache")
    p_fetch.add_argument("name", help="dataset name (e.g. adult)")
    p_fetch.add_argument("--cache-dir", help=f"cache directory (default ${CACHE_ENV} "
                                             f"or {DEFAULT_CACHE})")
    p_fetch.set_defaults(func=cmd_fetch)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--dataset", help="CSV data file")
        p.add_argument("--schema", help="schema config file")
        p.add_argument("--label", help="label column (alternative to --schema)")
        p.add_argument("--label-positive", help="label value mapped to y=1")
        p.add_argument("--protected", help="protected attribute column")
        p.add_argument("--protected-positive", help="protected value mapped to z=1")
        p.add_argument("--numeric", help="comma list of numeric feature columns")
        p.add_argument("--categorical", help="comma list of categorical columns")
        p.add_argument("--columns", help="column names for a header-less file")
        p.add_argument("--eps", help="privacy budget (train) or comma list (sweep)")
        p.add_argument("--delta", help="failure probability or comma list (sweep)")
        p.add_argument("--s-attr", help="attribute getting its own budget, or 'random'")
        p.add_argument("--alpha1", type=float, help="fairness penalty weight (default 1)")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--test-fraction", type=float, help="held-out fraction (default 0.2)")
        p.add_argument("--out", help="output directory (default .)")

    p_train = sub.add_parser("train", help="train one model and write model.json")
    common(p_train)
    p_train.add_argument("--method", help="LR|FairLR|FM|RelaxedFM|PDFC|ADFC")
    p_train.add_argument("--eps-s", help="budget for the designated attribute")
    p_train.add_argument("--eps-n", help="budget for the remaining attributes")
    p_train.add_argument("--delta-s", help="delta for the designated attribute")
    p_train.add_argument("--delta-n", help="delta for the remaining attributes")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and write reports")
    common(p_sweep)
    p_sweep.add_argument("--methods", help="comma-separated method list")
    p_sweep.add_argument("--runs", type=int, help="independent runs per point (default 10)")
    p_sweep.add_argument("--jobs", type=int,
                         help="accepted and ignored: sweeps run serially")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="render a saved report")
    p_report.add_argument("report", help="path to report.json")
    p_report.add_argument("--format", choices=("table", "csv"), default="table")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, FetchError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
