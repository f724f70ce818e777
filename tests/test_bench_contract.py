"""The names the benchmark script (bench/run.py) and its tracer
(bench/tracing.py) reach in ``fairdp``.  Several of them look unused in
cli.py, so a clean-up could drop them; every benchmark fit would then fail,
or a traced layer would silently read 0.  The schema texts that bench/gen.py
writes must load too."""

import ast
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path


from fairdp import cli, dataset, evaluation, mechanisms, optimizer, polynomial, trainers
from fairdp.optimizer import RegularizationPolicy

from toys import TOY_CSV, TOY_SCHEMA, toy_d3

CLI_NAMES = (
    "split", "train_fm", "train_relaxed_fm", "train_pdfc", "train_adfc",
    "train_fair_lr", "accuracy", "risk_difference", "load_encoded_dataset",
)


def test_cli_exports_what_the_benchmark_calls():
    missing = [name for name in CLI_NAMES if not callable(getattr(cli, name, None))]
    assert missing == []


# Module attributes bench/tracing.py wraps to time a layer; it skips a name
# that is missing, so the layer would silently read 0.
TRACED_NAMES = (
    (evaluation, "accuracy"), (evaluation, "risk_difference"),
)


def test_traced_names_are_module_attributes():
    missing = [f"{m.__name__}.{name}" for m, name in TRACED_NAMES
               if not callable(getattr(m, name, None))]
    assert missing == []


TRAINERS = ("train_lr", "train_fair_lr", "train_fm", "train_relaxed_fm",
            "train_pdfc", "train_adfc")

# Every other module attribute bench/run.py or bench/tracing.py looks up.
BENCH_NAMES = (
    (evaluation, ("derive_seed", "DEFAULT_EPS_GRID", "DEFAULT_DELTA_GRID",
                  "ExperimentConfig", "run_experiment", "report_csv_lines", "split",
                  *TRAINERS)),
    (evaluation.ExperimentReport, ("find", "to_dict")),
    (dataset, ("split",)),
    (mechanisms, ("split_total_delta",)),
    (optimizer, ("RegularizationPolicy", "logistic_objective")),
    (polynomial, ("lr_poly",)),
    (trainers, ("lr_poly", "fair_poly", "perturb", "minimize_quadratic",
                "minimize_logistic_exact")),
)


def test_bench_names_exist():
    missing = [f"{owner.__name__}.{name}" for owner, names in BENCH_NAMES
               for name in names if not hasattr(owner, name)]
    assert missing == []


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_dataset_loading_goes_through_read_dataset(monkeypatch):
    # CLI set-up is one call of the module attribute cli.read_dataset, looked
    # up when set-up runs (a wrapper put there sees it).
    calls = []
    monkeypatch.setattr(cli, "read_dataset", _counted(calls, "read_dataset", cli.read_dataset))
    cli.load_encoded_dataset(TOY_CSV, TOY_SCHEMA)
    assert calls == ["read_dataset"]


def test_sweep_goes_through_the_traced_names(monkeypatch):
    # A function bound anywhere else (a dispatch dict, a function-local
    # import) would bypass the tracer's wrapper and its layer would read 0.
    traced = [(evaluation, "split"), *((evaluation, t) for t in TRAINERS),
              *((trainers, name) for name in ("lr_poly", "fair_poly", "perturb",
                                              "minimize_quadratic", "minimize_logistic_exact")),
              (polynomial, "lr_poly")]
    calls = []
    for module, name in traced:
        key = f"{module.__name__.rpartition('.')[2]}.{name}"
        monkeypatch.setattr(module, name, _counted(calls, key, getattr(module, name)))
    config = evaluation.ExperimentConfig(methods=trainers.METHODS, eps_grid=(1.0,),
                                         delta_grid=(1e-3,), runs=2)
    report = evaluation.run_experiment(toy_d3(), config)
    assert not any(p.failed for p in report.points)
    # Per run: one split and one fit of each of the six methods.  FM and
    # RelaxedFM build lr_poly in trainers; FairLR, PDFC and ADFC build
    # fair_poly, which calls polynomial.lr_poly.
    assert Counter(calls) == {
        "evaluation.split": 2, **{f"evaluation.{t}": 2 for t in TRAINERS},
        "trainers.lr_poly": 4, "trainers.fair_poly": 6, "polynomial.lr_poly": 6,
        "trainers.perturb": 8, "trainers.minimize_quadratic": 10,
        "trainers.minimize_logistic_exact": 2,
    }


def test_report_exposes_what_the_benchmark_reads():
    # Checked on an instance: a dataclass field without a default is not a
    # class attribute, so a check on the class would miss it.
    config = evaluation.ExperimentConfig(methods=("LR", "FM"), eps_grid=(1.0,), runs=2)
    report = evaluation.run_experiment(cli.load_encoded_dataset(TOY_CSV, TOY_SCHEMA)[0], config)
    assert len(report.points) == 2
    assert report.find("FM", 1.0) is report.points[1]
    assert report.to_dict()["points"][1]["method"] == "FM"
    for p in report.points:
        assert isinstance(p.point.method, str) and p.failed is False
        assert isinstance(p.acc_mean, float) and isinstance(p.rd_mean, float)


def test_experiment_config_accepts_jobs():
    assert "jobs" in inspect.signature(evaluation.ExperimentConfig).parameters
    cfg = evaluation.ExperimentConfig(methods=("FM",), runs=1, jobs=1)
    assert cfg.jobs == 1
    assert callable(evaluation.run_experiment)


def test_policy_accepts_the_trend_settings():
    # bench/run.py builds the trend protocol's policy with these keywords;
    # LR no longer reads gd_step, but the field must stay.
    policy = RegularizationPolicy(max_gd_iters=4000, gd_step=1.0)
    assert (policy.max_gd_iters, policy.gd_step) == (4000, 1.0)


BENCH_RUN = Path(__file__).parent.parent / "bench" / "run.py"
# The fairdp callables whose arguments bench/run.py spells out.
CHECKED_CALLS = ("ExperimentConfig", "RegularizationPolicy", "split", *TRAINERS)


def _bench_calls():
    """(name, callee, positional count, keywords) for every call in
    bench/run.py to a ``CHECKED_CALLS`` name, resolved through the script's
    own ``from fairdp... import`` lines.  A ``**name`` argument is expanded
    from the script's ``name = dict(...)`` assignment."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    names, dicts = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("fairdp"):
            module = importlib.import_module(node.module)
            names.update((a.asname or a.name, getattr(module, a.name)) for a in node.names)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name) and node.value.func.id == "dict"):
            for target in node.targets:
                dicts[target.id] = [k.arg for k in node.value.keywords]
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            name, callee = func.id, names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in names):
            name, callee = func.attr, getattr(names[func.value.id], func.attr, None)
        else:
            continue
        if name not in CHECKED_CALLS:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        keywords = []
        for k in node.keywords:
            keywords += [k.arg] if k.arg else dicts[k.value.id]  # KeyError: unresolved **
        calls.append((name, callee, len(node.args), keywords))
    return calls


def test_bench_call_arguments_bind_to_the_callees():
    # Deleting or renaming a parameter the benchmark passes (for example
    # ExperimentConfig.jobs or RegularizationPolicy.gd_step) fails here
    # rather than in every benchmark run.
    calls = _bench_calls()
    assert {name for name, *_ in calls} == set(CHECKED_CALLS) - {"train_lr"}
    for name, callee, n_args, keywords in calls:
        assert callable(callee), name
        try:
            inspect.signature(callee).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"bench/run.py's call to {name}: {exc}") from None


def _bench_gen():
    path = Path(__file__).parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _bench_gen()


def _load_bench_input(tmp_path, write, schema_text):
    csv, schema = tmp_path / "data.csv", tmp_path / "data.schema"
    write(csv, 200, 0)
    schema.write_text(schema_text)
    return cli.load_encoded_dataset(csv, schema)[0]


# bench/gen.py writes its own schema texts; a schema-format change that broke
# them would otherwise show only as every benchmark run failing.
def test_bench_adult_schema_loads(tmp_path):
    ds = _load_bench_input(tmp_path, GEN.write_adult_like, GEN.ADULT_SCHEMA)
    assert ds.d == GEN.ADULT_D == 102
    assert ds.feature_names[:6] == ("age", "fnlwgt", "education-num", "capital-gain",
                                    "capital-loss", "hours-per-week")
    one_hot = ds.feature_names[6:]
    assert [name.partition("=")[0] for name in one_hot] == \
        [column for column, k in GEN.CARDINALITY.items() for _ in range(k)]
    assert set(one_hot) == {f"{column}={column[:4]}-{i}"
                            for column, k in GEN.CARDINALITY.items() for i in range(k)}
    # The encoded bits of the seed-0 file: a parse change that moved them would
    # otherwise show only as the benchmark's output check failing.
    assert ds.fingerprint() == \
        "88856717835b6dc2b1b87b11f570a9a86cb9d8aeb56f30c62fd6ce2328987729"


def test_bench_census_schema_loads(tmp_path):
    ds = _load_bench_input(tmp_path, GEN.write_census, GEN.CENSUS_SCHEMA)
    assert ds.d == GEN.CENSUS_D == 7
    assert ds.feature_names == GEN.CENSUS_FEATURES
    assert ds.fingerprint() == \
        "a19b9206a6cb8f8005de188e75898407c2197d0c25fb716d3a3eb81df56cd77b"
