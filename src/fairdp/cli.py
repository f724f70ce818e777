"""Command-line interface: fetch data, train single models, run sweeps, and
render report tables.

Subcommands
-----------
fetch   download a known dataset into the cache (FAIRDP_CACHE or ~/.cache/fairdp)
train   train one model on an 80-20 split, write model.json + manifest.json
sweep   run a (method x epsilon x delta) grid, write report.json/report.csv
report  render a saved report as a text table or CSV

The schema comes only from ``--schema FILE``.  A ``--config FILE`` holds
``key = value`` lines for the command's own long options; its values become
the parser's defaults, so explicit flags win, and any other key is an error.
All randomness flows from one ``--seed`` recorded in the manifest.

``train`` and ``sweep`` read their shared options (seed, alpha1, s-attr;
their defaults are ``ExperimentConfig``'s) through one reader, check every
value before loading data, and write their files and ``manifest.json``
through one writer.  Both hold out ``evaluation.TEST_FRACTION`` of the rows.
``evaluation.method_budgets`` checks a method's budgets and divides a
split-budget method's (eps, delta).
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
    FetchError,
    ParseError,
    Schema,
    fetch_dataset,
    read_dataset,
    split,
)
from .evaluation import (
    TEST_FRACTION,
    ExperimentConfig,
    ExperimentReport,
    accuracy,  # noqa: F401 - re-exported, like the trainers below
    derive_seed,
    method_budgets,
    render_table,
    report_csv_lines,
    resolve_s_index,
    risk_difference,  # noqa: F401 - re-exported
    run_experiment,
    score,
    train_method,
)
from .polynomial import check_alpha1
from .trainers import METHODS, SPLIT_METHODS
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
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:  # a directory, no permission, ...
        raise CLIError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CLIError(f"cannot read {path}: not UTF-8 text ({exc.reason} "
                       f"at byte {exc.start})") from None


def parse_keyvalue_file(path: str | Path, normalize=str) -> dict[str, str]:
    """Plain-text config: one ``key = value`` per line, ``#`` comments.  Each
    key is stored as ``normalize(key)``; a key given twice is an error."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CLIError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = normalize(key.strip())
        if key in out:
            raise CLIError(f"{path}: lines {lines[key]} and {lineno}: repeated key {key!r}")
        out[key], lines[key] = value.strip(), lineno
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


def _read_config(args) -> dict[str, str]:
    """The ``--config`` file's values by option name, a dash in a key read as
    an underscore.  A key that is not an option of this command is an error."""
    cfg = parse_keyvalue_file(args.config, lambda key: key.replace("-", "_"))
    options = vars(args).keys() - {"command", "func", "parser", "config"}
    for key in cfg:
        if key not in options:
            raise CLIError(f"{args.config}: {key!r} is not an option of fairdp {args.command}")
    return cfg


# The words a schema file's boolean value may be, in any case.
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _schema_from_kv(kv: dict[str, str], origin: str) -> Schema:
    """The :class:`Schema` whose fields are the file's keys.  A field without
    a default is a required key; a column list is a comma list and a flag is
    one of the ``_BOOLEANS`` words.  Besides these keys a schema file may
    hold only ``columns``."""
    fields = {f.name: f for f in dataclasses.fields(Schema)}
    for key in kv:
        if key not in fields and key != "columns":
            raise CLIError(f"{origin}: unknown schema key {key!r}")
    missing = [k for k, f in fields.items() if f.default is dataclasses.MISSING and k not in kv]
    if missing:
        raise CLIError(f"{origin}: missing schema keys: {', '.join(missing)}")
    values = {}
    for key, field in fields.items():
        if key not in kv:
            continue
        text = kv[key]
        if isinstance(field.default, bool):
            if text.lower() not in _BOOLEANS:
                raise CLIError(f"{origin}: {key} must be true or false, got {text!r}")
            values[key] = _BOOLEANS[text.lower()]
        elif isinstance(field.default, tuple):
            values[key] = tuple(_split_names(text))
        else:
            values[key] = text
    try:
        return Schema(**values)
    except ValueError as exc:  # no feature column, one listed twice, or the label/protected one
        raise CLIError(f"{origin}: {exc}") from None


def load_encoded_dataset(dataset_path: str | Path, schema_path: str | Path):
    """CSV + schema file -> (normalized EncodedDataset, Schema), the CSV
    encoded as it is parsed (``dataset.read_dataset``).

    A ``columns`` key in the schema file names the columns of a header-less
    file (e.g. the UCI Adult data files), and every row must have that many
    cells; without it the CSV's first row is the header.
    """
    if not Path(schema_path).exists():
        raise CLIError(f"schema file not found: {schema_path}")
    kv = parse_keyvalue_file(schema_path)
    if not Path(dataset_path).exists():
        raise CLIError(f"dataset file not found: {dataset_path}")
    schema = _schema_from_kv(kv, str(schema_path))
    try:
        ds = read_dataset(dataset_path, schema, _split_names(kv.get("columns", "")) or None)
    except OSError as exc:  # a directory, no permission, ...
        raise CLIError(f"cannot read {dataset_path}: {exc.strerror or exc}") from None
    return ds, schema


def _resolve_dataset(args):
    """(dataset, schema) from --dataset and --schema."""
    if args.dataset is None:
        raise CLIError("--dataset is required")
    if args.schema is None:
        raise CLIError("--schema is required")
    return load_encoded_dataset(args.dataset, args.schema)


def _run_options(args) -> tuple[int, Path, dict]:
    """The seed, the output directory and the options both commands share,
    checked before any data is loaded; the option names are
    ``ExperimentConfig`` field names.  The directory is made only on write."""
    seed = _number(int, "seed", args.seed)
    out_dir = Path(args.out)
    if out_dir.exists() and not out_dir.is_dir():
        raise CLIError(f"--out {out_dir} exists and is not a directory")
    options = {"alpha1": _number(float, "alpha1", args.alpha1), "s_attr": args.s_attr}
    check_alpha1(options["alpha1"])
    return seed, out_dir, options


def _write_outputs(args, out_dir: Path, command: str, seed: int, fingerprint: str,
                   schema: Schema, config: dict, files: dict[str, str]) -> None:
    """Create ``out_dir`` and write ``files`` (name -> text) in order, then
    manifest.json: the seed, the config (dataset, schema and ``config``), the
    dataset ``fingerprint`` and the names of the files."""
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": {"dataset": str(args.dataset),
                   "schema": dataclasses.asdict(schema), **config},
        "dataset_fingerprint": fingerprint,
        "outputs": list(files),
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in {**files, "manifest.json": _json_text(manifest)}.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CLIError(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from None


def cmd_fetch(args) -> int:
    cache = args.cache_dir or os.environ.get(CACHE_ENV) or str(DEFAULT_CACHE)
    paths = fetch_dataset(args.name, cache)
    for filename, path in sorted(paths.items()):
        print(f"{filename}\t{path}")
    return 0


def cmd_train(args) -> int:
    method = _canonical_method(args.method or "")
    names = ("eps", "delta", "eps_s", "eps_n", "delta_s", "delta_n")
    budgets = method_budgets(method, **{k: _number(float, k, getattr(args, k)) for k in names})
    seed, out_dir, options = _run_options(args)

    ds, schema = _resolve_dataset(args)
    train_ds, test_ds = split(ds, TEST_FRACTION, derive_seed("split", seed, 0))
    model = train_method(
        train_ds, method, derive_seed("train", seed, 0, method),
        alpha1=options["alpha1"], s_attr=options["s_attr"], **budgets,
    )

    acc, rd = score(model, test_ds)
    _write_outputs(args, out_dir, "train", seed, ds.fingerprint(), schema,
                   {"method": method, **budgets, **options},
                   {"model.json": _json_text(model.to_dict())})

    budget = model.budgets
    eps_text = f"{budget.epsilon:g}" if budget else "-"
    delta_text = f"{budget.delta:g}" if budget and budget.delta is not None else "-"
    rd_text = "n/a" if rd is None else f"{rd:.3f}"
    print(f"{method} eps={eps_text} delta={delta_text} acc={acc:.3f} rd={rd_text}")
    return 0


def cmd_sweep(args) -> int:
    if not args.methods:
        raise CLIError("--methods is required (comma-separated list)")
    methods = tuple(_canonical_method(m) for m in _split_names(args.methods))
    eps_grid = (ExperimentConfig.eps_grid if args.eps is None
                else _parse_float_list("eps", args.eps))
    delta_grid = (ExperimentConfig.delta_grid if args.delta is None
                  else _parse_float_list("delta", args.delta))
    runs = _number(int, "runs", args.runs)
    seed, out_dir, options = _run_options(args)

    # Built before the data is loaded: a bad grid fails before any compute.
    config = ExperimentConfig(methods=methods, eps_grid=eps_grid, delta_grid=delta_grid,
                              runs=runs, master_seed=seed, **options)
    ds, schema = _resolve_dataset(args)
    if set(methods) & set(SPLIT_METHODS):  # an unknown --s-attr fails before any fit
        resolve_s_index(ds, options["s_attr"], 0)
    report = run_experiment(ds, config)

    _write_outputs(
        args, out_dir, "sweep", seed, report.dataset_fingerprint, schema,
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
    # Rendering computes the statistics, so a run value that is not a
    # number surfaces there.
    try:
        report = ExperimentReport.from_dict(json.loads(_read_text(path)))
        text = ("\n".join(report_csv_lines(report)) + "\n" if args.format == "csv"
                else render_table(report))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CLIError(f"malformed report file {path}: {exc}") from None
    print(text, end="")
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

    def common(p, func):
        p.set_defaults(func=func, parser=p)  # main() sets --config values here
        p.add_argument("--config", help="key = value file of this command's options; flags win")
        p.add_argument("--dataset", help="CSV data file")
        p.add_argument("--schema", help="schema file (required)")
        p.add_argument("--eps", help="privacy budget (train) or comma list (sweep)")
        p.add_argument("--delta", help="failure probability or comma list (sweep)")
        p.add_argument("--s-attr", default=ExperimentConfig.s_attr,
                       help="attribute getting its own budget, or 'random' (default %(default)s)")
        p.add_argument("--alpha1", default=ExperimentConfig.alpha1,
                       help="fairness penalty weight (default %(default)s)")
        p.add_argument("--seed", default=ExperimentConfig.master_seed,
                       help="master seed (default %(default)s)")
        p.add_argument("--out", default=".", help="output directory (default %(default)s)")

    p_train = sub.add_parser("train", help="train one model and write model.json")
    common(p_train, cmd_train)
    p_train.add_argument("--method", help="|".join(METHODS))
    p_train.add_argument("--eps-s", help="budget for the designated attribute")
    p_train.add_argument("--eps-n", help="budget for the remaining attributes")
    p_train.add_argument("--delta-s", help="delta for the designated attribute")
    p_train.add_argument("--delta-n", help="delta for the remaining attributes")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and write reports")
    common(p_sweep, cmd_sweep)
    p_sweep.add_argument("--methods", help="comma-separated method list")
    p_sweep.add_argument("--runs", default=ExperimentConfig.runs,
                         help="independent runs per point (default %(default)s)")

    p_report = sub.add_parser("report", help="render a saved report")
    p_report.add_argument("report", help="path to report.json")
    p_report.add_argument("--format", choices=("table", "csv"), default="table")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The config values become the command's defaults (every argument
            # exists by now), so in the second pass an explicit flag wins.
            args.parser.set_defaults(**_read_config(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except (CLIError, FetchError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
