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

``train`` and ``sweep`` read their shared options (seed, alpha1, s-attr,
test-fraction) through one reader, check every value before loading data,
and write their files and ``manifest.json`` through one writer.  How a
split-budget method divides (eps, delta) is decided in ``evaluation``.
"""

from __future__ import annotations

import argparse
import json
import math
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
    accuracy,  # noqa: F401 - re-exported, like the trainers below
    check_run_options,
    derive_seed,
    render_table,
    report_csv_lines,
    resolve_s_index,
    risk_difference,  # noqa: F401 - re-exported
    run_experiment,
    score,
    split_budgets,
    train_method,
)
from .trainers import DELTA_METHODS, METHODS, PRIVATE_METHODS, SPLIT_METHODS
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

METHOD_ALIASES = {m.lower(): m for m in METHODS} | {
    "fair-lr": "FairLR", "relaxed-fm": "RelaxedFM"}


class CLIError(Exception):
    """Configuration problem reported to the user without a traceback."""


def _canonical_method(name: str) -> str:
    key = name.strip().lower()
    if key not in METHOD_ALIASES:
        raise CLIError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    return METHOD_ALIASES[key]


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:  # a directory, no permission, ...
        raise CLIError(f"cannot read {path}: {exc.strerror or exc}") from None


def parse_keyvalue_file(path: str | Path) -> dict[str, str]:
    """Plain-text config: one ``key = value`` per line, ``#`` comments."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _number(kind, key: str, value):
    """``value`` of option ``key`` (a flag or a config-file string) as
    ``kind`` (int or float); None stays None.  A value that does not convert
    is an error naming the option."""
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise CLIError(f"--{key.replace('_', '-')} expects {what}, got {value!r}") from None


def _parse_float_list(key: str, text: str) -> tuple[float, ...]:
    values = tuple(_number(float, key, v) for v in _split_names(text))
    if not values:
        raise CLIError(f"--{key} expects a comma list of numbers, got {text!r}")
    return values


def _eff(args, cfg: dict[str, str], key: str, default=None, kind=None):
    """Effective option value: explicit flag, else config file, else default,
    converted by ``kind`` (int or float) when given.  Config files may spell
    keys with either dashes or underscores."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        spellings = (key, key.replace("-", "_"), key.replace("_", "-"))
        value = next((cfg[k] for k in spellings if k in cfg), default)
    return _number(kind, key, value) if kind else value


def _validate_budgets(method, eps, delta, eps_s, eps_n, delta_s, delta_n):
    for name, v in (("--eps", eps), ("--eps-s", eps_s), ("--eps-n", eps_n)):
        if v is not None and not 0.0 < v < math.inf:
            raise CLIError(f"{name} must be finite and positive, got {v}")
    for name, v in (("--delta", delta), ("--delta-s", delta_s), ("--delta-n", delta_n)):
        if v is not None and not 0.0 < v < 1.0:
            raise CLIError(f"{name} must be in (0, 1), got {v}")
    for flag, total, parts, needed in (("eps", eps, (eps_s, eps_n), PRIVATE_METHODS),
                                       ("delta", delta, (delta_s, delta_n), DELTA_METHODS)):
        if method in needed and total is None:
            pair = f" or both --{flag}-s/--{flag}-n" if method in SPLIT_METHODS else ""
            if not pair or None in parts:
                raise CLIError(f"method {method} requires --{flag}{pair}")


_FEATURES = "feature_columns"

# Schema-file key -> (Schema field, value kind).  Text keys are required;
# the two column lists fill the one feature field, numeric columns first.
_SCHEMA_TABLE = {
    "label": ("label_column", str),
    "label_positive": ("label_positive", str),
    "protected": ("protected_column", str),
    "protected_positive": ("protected_positive", str),
    "numeric": (_FEATURES, list),
    "categorical": (_FEATURES, list),
    "include_protected_in_features": ("include_protected_in_features", bool),
    "add_constant_feature": ("add_constant_feature", bool),
}

# Keys the schema flags (--label, ...) can set.
_SCHEMA_KEYS = (*(k for k, (_, kind) in _SCHEMA_TABLE.items() if kind is not bool), "columns")


def _schema_from_kv(kv: dict[str, str], origin: str) -> Schema:
    missing = [k for k, (_, kind) in _SCHEMA_TABLE.items() if kind is str and k not in kv]
    if missing:
        raise CLIError(f"{origin}: missing schema keys: {', '.join(missing)}")
    fields = {_FEATURES: ()}
    for key, (field, kind) in _SCHEMA_TABLE.items():
        if kind is str:
            fields[field] = kv[key]
        elif kind is list:
            fields[field] += tuple(ColumnSpec(n, key) for n in _split_names(kv.get(key, "")))
        else:
            fields[field] = kv.get(key, "false").strip().lower() in ("1", "true", "yes")
    if not fields[_FEATURES]:
        raise CLIError(f"{origin}: schema lists no feature columns")
    return Schema(**fields)


def _schema_dict(schema: Schema) -> dict:
    out = {}
    for key, (field, kind) in _SCHEMA_TABLE.items():
        value = getattr(schema, field)
        out[key] = [c.name for c in value if c.kind == key] if kind is list else value
    return out


def _load_with_schema_kv(dataset_path, kv: dict[str, str], origin: str):
    if not Path(dataset_path).exists():
        raise CLIError(f"dataset file not found: {dataset_path}")
    schema = _schema_from_kv(kv, origin)
    try:
        raw = load_csv(dataset_path, _split_names(kv.get("columns", "")) or None)
    except OSError as exc:  # a directory, no permission, ...
        raise CLIError(f"cannot read {dataset_path}: {exc.strerror or exc}") from None
    return build_dataset(raw, schema), schema, raw


def load_encoded_dataset(dataset_path: str | Path, schema_path: str | Path):
    """CSV + schema file -> normalized EncodedDataset.

    A ``columns`` key in the schema file names the columns of a header-less
    file (e.g. the UCI Adult data files), and every row must have that many
    cells; without it the CSV's first row is the header.
    """
    if not Path(schema_path).exists():
        raise CLIError(f"schema file not found: {schema_path}")
    return _load_with_schema_kv(
        dataset_path, parse_keyvalue_file(schema_path), str(schema_path)
    )


def _resolve_dataset(args, cfg):
    """(dataset, schema); the schema from --schema FILE or the flags (--label, ...)."""
    dataset_path = _eff(args, cfg, "dataset")
    if dataset_path is None:
        raise CLIError("--dataset is required")
    given = {k: v for k in (*_SCHEMA_TABLE, "columns") if (v := _eff(args, cfg, k)) is not None}
    schema_path = _eff(args, cfg, "schema")
    if schema_path is not None:
        # The schema file is the whole schema; a flag or config value is dropped.
        for key in given:
            where = (f"--{key.replace('_', '-')}" if getattr(args, key, None) is not None
                     else f"config key {key!r}")
            print(f"warning: {where} has no effect with --schema; "
                  "set it in the schema file", file=sys.stderr)
        return load_encoded_dataset(dataset_path, schema_path)[:2]
    kv = {k: v for k, v in given.items() if k in _SCHEMA_KEYS}
    if not kv:
        raise CLIError("--schema file or schema flags (--label, ...) required")
    # No flag sets the schema booleans; a config file value would be dropped.
    dropped = [k for k in given if k not in kv]
    if dropped:
        raise CLIError(f"config key {dropped[0]!r} has no effect with schema flags; "
                       "set it in a --schema file")
    return _load_with_schema_kv(dataset_path, kv, "schema flags")[:2]


def _run_options(args, cfg) -> tuple[int, Path, dict]:
    """The seed, the output directory and the options both commands share,
    checked before any data is loaded; the option names are
    ``ExperimentConfig`` field names.  The directory is made only on write."""
    seed = _eff(args, cfg, "seed", 0, int)
    out_dir = Path(_eff(args, cfg, "out", "."))
    if out_dir.exists() and not out_dir.is_dir():
        raise CLIError(f"--out {out_dir} exists and is not a directory")
    options = {
        "alpha1": _eff(args, cfg, "alpha1", 1.0, float),
        "s_attr": _eff(args, cfg, "s-attr", "random"),
        "test_fraction": _eff(args, cfg, "test-fraction", 0.2, float),
    }
    check_run_options(options["alpha1"], options["test_fraction"])
    return seed, out_dir, options


def _write_outputs(args, cfg, out_dir: Path, command: str, seed: int, ds,
                   schema: Schema, config: dict, files: dict[str, str]) -> None:
    """Create ``out_dir`` and write ``files`` (name -> text) in order, then
    manifest.json: the seed, the config (dataset, schema and ``config``), the
    dataset fingerprint and the names of the files."""
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": {"dataset": str(_eff(args, cfg, "dataset")),
                   "schema": _schema_dict(schema), **config},
        "dataset_fingerprint": ds.fingerprint(),
        "outputs": list(files),
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in {**files, "manifest.json": _json_text(manifest)}.items():
            (out_dir / name).write_text(text)
    except OSError as exc:
        raise CLIError(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from None


def cmd_fetch(args) -> int:
    cache = args.cache_dir or os.environ.get(CACHE_ENV) or str(DEFAULT_CACHE)
    paths = fetch_dataset(args.name, cache)
    for filename, path in sorted(paths.items()):
        print(f"{filename}\t{path}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_keyvalue_file(args.config) if args.config else {}
    method = _canonical_method(_eff(args, cfg, "method") or "")
    names = ("eps", "delta", "eps_s", "eps_n", "delta_s", "delta_n")
    eps, delta, *pairs = (_eff(args, cfg, k, kind=float) for k in names)
    _validate_budgets(method, eps, delta, *pairs)
    seed, out_dir, options = _run_options(args, cfg)
    # The manifest records the split budgets a split-budget method uses.
    budgets = dict(zip(names, (eps, delta, *split_budgets(method, eps, delta, *pairs))))

    ds, schema = _resolve_dataset(args, cfg)
    train_ds, test_ds = split(ds, options["test_fraction"], derive_seed("split", seed, 0))
    model = train_method(
        train_ds, method, derive_seed("train", seed, 0, method),
        alpha1=options["alpha1"], s_attr=options["s_attr"], **budgets,
    )

    acc, rd = score(model, test_ds)
    _write_outputs(args, cfg, out_dir, "train", seed, ds, schema,
                   {"method": method, **budgets, **options},
                   {"model.json": _json_text(model.to_dict())})

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
    eps_grid = _parse_float_list("eps", eps_text) if eps_text else DEFAULT_EPS_GRID
    delta_grid = _parse_float_list("delta", delta_text) if delta_text else DEFAULT_DELTA_GRID
    runs = _eff(args, cfg, "runs", 10, int)
    seed, out_dir, options = _run_options(args, cfg)

    # Built before the data is loaded: a bad grid fails before any compute.
    config = ExperimentConfig(methods=methods, eps_grid=eps_grid, delta_grid=delta_grid,
                              runs=runs, master_seed=seed, **options)
    ds, schema = _resolve_dataset(args, cfg)
    if set(methods) & set(SPLIT_METHODS):  # an unknown --s-attr fails before any fit
        resolve_s_index(ds, options["s_attr"], 0)
    report = run_experiment(ds, config)

    _write_outputs(
        args, cfg, out_dir, "sweep", seed, ds, schema,
        {"methods": list(methods), "eps_grid": list(eps_grid),
         "delta_grid": list(delta_grid), "runs": runs, **options},
        {"report.json": _json_text(report.to_dict()),
         "report.csv": "\n".join(report_csv_lines(report)) + "\n"},
    )

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
        report = ExperimentReport.from_dict(json.loads(_read_text(path)))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CLIError(f"malformed report file {path}: {exc}") from None
    if args.format == "csv":
        print("\n".join(report_csv_lines(report)))
    else:
        print(render_table(report), end="")
    return 0


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
    p_train.add_argument("--method", help="|".join(METHODS))
    p_train.add_argument("--eps-s", help="budget for the designated attribute")
    p_train.add_argument("--eps-n", help="budget for the remaining attributes")
    p_train.add_argument("--delta-s", help="delta for the designated attribute")
    p_train.add_argument("--delta-n", help="delta for the remaining attributes")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and write reports")
    common(p_sweep)
    p_sweep.add_argument("--methods", help="comma-separated method list")
    p_sweep.add_argument("--runs", type=int, help="independent runs per point (default 10)")
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
