#!/usr/bin/env python3
"""fairdp benchmark: one command for every workload, untraced or traced.

    python3 bench/run.py --workload sweep-private-adult --seed 0 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports ``fairdp`` from the
checkout's ``src/`` and nothing else.  Inputs (CSV + schema files) are made
from ``--seed`` under ``.bench_work/`` before anything is timed and removed
at exit.

Workloads (each unit of work includes its own set-up, as a CLI call would):

- ``sweep-private-adult``: one unit is ``load_encoded_dataset`` + a default
  grid ``run_experiment`` of FM/RelaxedFM/PDFC/ADFC (6 eps x 5 delta, 72
  effective keys, 1 run) + report serialization, on an Adult-shaped CSV
  (n = 32,561, d = 102).
- ``trend-lr-synth``: one unit is ``load_encoded_dataset`` + one pass of the
  trend protocol (LR, PDFC, ADFC at eps = 1; FM, RelaxedFM at eps = 1e-2; the
  ADFC eps ladder; delta = 1e-3, 1 run, gd_step 1, 4000-iteration cap) +
  serialization, on the d = 7 census CSV (n = 100,000).
- ``train-cold-adult``: one unit is a ``fairdp train``-style cycle on the
  Adult-shaped CSV: load + encode, one split, one fit and its evaluation,
  model/manifest serialization.  The method rotates FM, RelaxedFM, PDFC,
  ADFC, FairLR; the loop runs whole rotations.

Every run executes one untimed warm-up round first, then ``SETUP_REPS``
extra set-ups, then units until ``--seconds`` have passed.  Every unit at
the same rotation position repeats identical work, so its output digest
must repeat; on the default seed the private/FairLR digest is pinned.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate (see tracing.py) and the
last line reports per-layer metrics per unit of work.
"""

import os
import sys

# One BLAS thread: the cold start of OpenBLAS's thread pool (about 0.5 s on
# the first two d = 102 products with two threads) disappears, a d = 102 sweep
# is no slower, and figures do not depend on what else shares the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import fairdp
except ImportError as exc:
    sys.exit(f"bench: cannot import fairdp from {ROOT / 'src'}: {exc}")
if not Path(fairdp.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: fairdp imported from {fairdp.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import expit  # noqa: E402
from scipy.stats import spearmanr  # noqa: E402

from fairdp import cli, dataset, evaluation  # noqa: E402
from fairdp.mechanisms import split_total_delta  # noqa: E402
from fairdp.optimizer import RegularizationPolicy  # noqa: E402

import gen  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 3
TEST_FRACTION = 0.2

PRIVATE_METHODS = ("FM", "RelaxedFM", "PDFC", "ADFC")
# The trend protocol of tests/trends.py, kept here so that the workload does
# not move when the tests change.
TREND_POLICY = RegularizationPolicy(max_gd_iters=4000, gd_step=1.0)
TREND_DELTA = 1e-3
TREND_EPS_LADDER = (1e-2, 1e-1, 1.0, 10.0)

TRAIN_ROTATION = ("FM", "RelaxedFM", "PDFC", "ADFC", "FairLR")
TRAIN_EPS = 1.0
TRAIN_DELTA = 1e-5
TRAIN_S_ATTR = "marital-status"
ALPHA1 = 1.0

# sha256 of the private and FairLR output of one round on DEFAULT_SEED at the
# commit that defined this benchmark; any change to them must be intended.
PINNED_DIGEST = {
    "sweep-private-adult": "8e8c37cae7cb066213d4dafafded71a9377fbb72fa6b6dfa7c3c6298abb55fef",
    "trend-lr-synth": "b32b9fa45da74991233c91c3062cc4b08bd057ecd3329abf7735b5f46e6b1c13",
    "train-cold-adult": "6dba5324c5831ebd2b2aabdcee143e77e8c7c17f88d7e279b2a9a4c4cf08820a",
}
# LR may legitimately change its weights (another descent method), so its
# accuracy is held to a tolerance: of the pinned value on DEFAULT_SEED, and
# of an independent Newton solve of the same loss on every seed.
PINNED_LR_ACCURACY = 0.78495
LR_ACCURACY_TOL = 0.001


def _dumps(obj) -> str:
    """The CLI's JSON layout for report.json / model.json / manifest.json."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sha(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Unit:
    """One unit of work: its timings, fit counts and output digests."""

    fits: int
    failed: int = 0
    latency: float = 0.0
    setup: float = 0.0
    digest: str = ""  # everything the unit produced
    pinned: str = ""  # its private and FairLR part
    bytes_written: int = 0
    lr_points: list = field(default_factory=list)  # (accuracy, rd) per LR point


class Workload:
    """Inputs for one workload plus ``run(k)``, the unit at rotation
    position k, which attempts ``fits(k)`` fits."""

    round_size = 1
    csv_name = schema_name = ""

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.csv = work / self.csv_name
        self.schema = work / self.schema_name
        self.write_inputs()
        ds = self.setup()
        if ds.d != self.expected_d:
            raise RuntimeError(f"{self.csv.name} encodes to d = {ds.d}, expected {self.expected_d}")
        self.n, self.d = ds.n, ds.d

    def setup(self):
        return cli.load_encoded_dataset(self.csv, self.schema)[0]

    def check(self, units: list[Unit]) -> None:
        """Workload-specific output checks; mark failing fits in place."""

    def _write(self, name: str, text: str) -> int:
        (self.out / name).write_text(text)
        return len(text.encode())


class SweepWorkload(Workload):
    """Units of load + one or more ``run_experiment`` grids + serialization."""

    def configs(self) -> list:
        raise NotImplementedError

    def summary(self, reports) -> dict:
        return {}

    def fits(self, k: int) -> int:
        return sum(len(c.grid()) * c.runs for c in self.configs())

    def run(self, k: int) -> Unit:
        configs = self.configs()
        start = perf_counter()
        ds = self.setup()
        setup = perf_counter() - start
        reports = [evaluation.run_experiment(ds, cfg) for cfg in configs]
        texts, pinned, lr, written, failed = [], [], [], 0, 0
        for i, (cfg, rep) in enumerate(zip(configs, reports)):
            data = rep.to_dict()
            body = _dumps(data)
            table = "\n".join(evaluation.report_csv_lines(rep)) + "\n"
            written += self._write(f"report{i}.json", body) + self._write(f"report{i}.csv", table)
            texts += [body, table]
            pinned.append(_dumps({**data, "points": [
                p for p in data["points"] if p["method"] != "LR"]}))
            failed += cfg.runs * sum(p.failed for p in rep.points)
            lr += [(p.acc_mean, p.rd_mean) for p in rep.points if p.point.method == "LR"]
        manifest = _dumps({"version": fairdp.__version__, "seed": self.seed,
                           "dataset_fingerprint": ds.fingerprint(),
                           "summary": self.summary(reports)})
        written += self._write("manifest.json", manifest)
        return Unit(fits=self.fits(k), failed=failed, setup=setup,
                    digest=_sha(texts + [manifest]), pinned=_sha(pinned),
                    bytes_written=written, lr_points=lr)


class AdultInputs:
    csv_name, schema_name, expected_d = "adult.csv", "adult.schema", gen.ADULT_D

    def write_inputs(self):
        gen.write_adult_like(self.csv, gen.ADULT_N, self.seed)
        self.schema.write_text(gen.ADULT_SCHEMA)


class SweepPrivateAdult(AdultInputs, SweepWorkload):
    def configs(self):
        return [evaluation.ExperimentConfig(
            methods=PRIVATE_METHODS, eps_grid=evaluation.DEFAULT_EPS_GRID,
            delta_grid=evaluation.DEFAULT_DELTA_GRID, runs=1,
            master_seed=self.seed, jobs=1)]


class TrendLrSynth(SweepWorkload):
    csv_name, schema_name, expected_d = "census.csv", "census.schema", gen.CENSUS_D

    def write_inputs(self):
        gen.write_census(self.csv, gen.CENSUS_N, self.seed)
        self.schema.write_text(gen.CENSUS_SCHEMA)

    def configs(self):
        common = dict(delta_grid=(TREND_DELTA,), runs=1, master_seed=self.seed,
                      s_attr="random", policy=TREND_POLICY, jobs=1)
        return [
            evaluation.ExperimentConfig(methods=("LR", "PDFC", "ADFC"), eps_grid=(1.0,), **common),
            evaluation.ExperimentConfig(methods=("FM", "RelaxedFM"), eps_grid=(1e-2,), **common),
            evaluation.ExperimentConfig(methods=("ADFC",), eps_grid=TREND_EPS_LADDER, **common),
        ]

    def summary(self, reports):
        accs = [reports[2].find("ADFC", e).acc_mean for e in TREND_EPS_LADDER]
        rho = spearmanr(range(len(accs)), accs).statistic
        return {"adfc_accuracies": accs, "adfc_spearman": float(rho)}

    def check(self, units):
        """LR points must be finite and match the accuracy of a Newton solve
        of the same (unpenalized) logistic loss on the same split."""
        ds = self.setup()
        train, test = dataset.split(ds, TEST_FRACTION,
                                    evaluation.derive_seed("split", self.seed, 0))
        w = np.zeros(train.d)
        for _ in range(100):
            p = expit(train.X @ w)
            grad = train.X.T @ (p - train.y)
            if np.abs(grad).max() < 1e-9:
                break
            w -= np.linalg.solve((train.X * (p * (1 - p))[:, None]).T @ train.X, grad)
        reference = float(((test.X @ w >= 0.0) == test.y).mean())
        expected = [reference]
        if self.seed == DEFAULT_SEED:
            expected.append(PINNED_LR_ACCURACY)
        for u in units:
            for acc, rd in u.lr_points:
                ok = (acc is not None and rd is not None and math.isfinite(acc)
                      and math.isfinite(rd)
                      and all(abs(acc - e) <= LR_ACCURACY_TOL for e in expected))
                if not ok:
                    print(f"bench: LR accuracy {acc} (rd {rd}) outside "
                          f"{LR_ACCURACY_TOL} of {expected}", file=sys.stderr)
                    u.failed = min(u.fits, u.failed + 1)


class TrainColdAdult(AdultInputs, Workload):
    round_size = len(TRAIN_ROTATION)

    def fits(self, k):
        return 1

    def run(self, k: int) -> Unit:
        method = TRAIN_ROTATION[k]
        seed = evaluation.derive_seed("train-cold", self.seed, k)
        start = perf_counter()
        ds = self.setup()
        setup = perf_counter() - start
        train, test = cli.split(ds, TEST_FRACTION, evaluation.derive_seed("split", seed, 0))
        run_seed = evaluation.derive_seed("train", seed, 0, method)
        s_index = next(i for i, name in enumerate(train.feature_names)
                       if name.startswith(TRAIN_S_ATTR + "="))
        delta_part = split_total_delta(TRAIN_DELTA)
        if method == "FM":
            model = cli.train_fm(train, TRAIN_EPS, seed=run_seed)
        elif method == "RelaxedFM":
            model = cli.train_relaxed_fm(train, TRAIN_EPS, TRAIN_DELTA, seed=run_seed)
        elif method == "PDFC":
            model = cli.train_pdfc(train, TRAIN_EPS, TRAIN_EPS, s_index,
                                   alpha1=ALPHA1, seed=run_seed)
        elif method == "ADFC":
            model = cli.train_adfc(train, TRAIN_EPS, TRAIN_EPS, delta_part, delta_part,
                                   s_index, alpha1=ALPHA1, seed=run_seed)
        else:
            model = cli.train_fair_lr(train, alpha1=ALPHA1)
        acc = cli.accuracy(model, test)
        rd = cli.risk_difference(model, test)
        body = _dumps(model.to_dict())
        manifest = _dumps({"version": fairdp.__version__, "seed": seed, "method": method,
                           "dataset_fingerprint": ds.fingerprint(),
                           "accuracy": acc, "risk_difference": rd})
        written = self._write("model.json", body) + self._write("manifest.json", manifest)
        digest = _sha([body, manifest])
        return Unit(fits=1, setup=setup, digest=digest, pinned=digest, bytes_written=written)


WORKLOADS = {
    "sweep-private-adult": SweepPrivateAdult,
    "trend-lr-synth": TrendLrSynth,
    "train-cold-adult": TrainColdAdult,
}


def run_round(wl: Workload, tracer: Tracer | None, first_unit: int) -> list[Unit]:
    units = []
    for k in range(wl.round_size):
        if tracer is not None:
            tracer.unit = first_unit + k
        start = perf_counter()
        try:
            unit = wl.run(k)
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            traceback.print_exc()
            unit = Unit(fits=wl.fits(k), failed=wl.fits(k))
        unit.latency = perf_counter() - start
        if tracer is not None:
            tracer.counts["cli.report_bytes"] += unit.bytes_written
        units.append(unit)
    return units


def measure(wl: Workload, seconds: float) -> list[Unit]:
    """Whole rounds until ``seconds`` have passed (at least one round)."""
    deadline = perf_counter() + seconds
    units: list[Unit] = []
    while not units or perf_counter() < deadline:
        units += run_round(wl, None, len(units))
    return units


def measure_traced(wl: Workload, seconds: float, tracer: Tracer) -> tuple[list[Unit], list[Unit]]:
    """Pairs of one untraced and one traced round, in alternating order,
    until ``seconds`` have passed; drift in machine speed and any cost of
    going first fall on both sides of the tracing overhead."""
    deadline = perf_counter() + seconds
    plain: list[Unit] = []
    traced: list[Unit] = []
    pairs = 0
    while not traced or perf_counter() < deadline:
        order = (False, True) if pairs % 2 == 0 else (True, False)
        pairs += 1
        for with_trace in order:
            if not with_trace:
                plain += run_round(wl, None, len(plain))
                continue
            tracer.install()
            try:
                traced += run_round(wl, tracer, len(traced))
            finally:
                tracer.uninstall()
    return plain, traced


def check_outputs(wl: Workload, name: str, warmup: list[Unit], units: list[Unit]) -> list[str]:
    """Mark fits that fail an output check; return the problems found."""
    problems = []
    for i, u in enumerate(units):
        if u.digest != warmup[i % wl.round_size].digest:
            u.failed = u.fits
            problems.append(f"unit {i}: output differs from the warm-up round's")
    if wl.seed == DEFAULT_SEED:
        pinned = _sha([u.pinned for u in warmup])
        if pinned != PINNED_DIGEST[name]:
            for u in units:
                u.failed = u.fits
            problems.append(f"private/FairLR digest {pinned} != pinned {PINNED_DIGEST[name]}")
    wl.check(units)
    return problems


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its
    rank.  Below 20 samples that percentile would not reach the median, so
    the maximum stands in."""
    s = sorted(values)
    if len(s) >= 20:
        return s[-11], 100.0 * (len(s) - 10) / len(s)
    return s[-1], 100.0


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment(wl: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fairdp": fairdp.__version__,
        "commit": git_commit(),
        "n": wl.n,
        "d": wl.d,
        "csv_bytes": wl.csv.stat().st_size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        start = perf_counter()
        wl = WORKLOADS[args.workload](work, args.seed)
        inputs_s = perf_counter() - start
        warmup = run_round(wl, None, 0)
        setups = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            wl.setup()
            setups.append(perf_counter() - start)
        if args.trace:
            tracer = Tracer()
            plain, traced = measure_traced(wl, args.seconds, tracer)
            units = plain + traced
        else:
            units = measure(wl, args.seconds)
        problems = check_outputs(wl, args.workload, warmup, units)
        env = environment(wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(u.fits for u in units)
    failed = sum(u.failed for u in units)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: inputs {inputs_s:.2f} s, warm-up round "
          f"{sum(u.latency for u in warmup):.2f} s, {len(units)} units in "
          f"{sum(u.latency for u in units):.2f} s, {attempted} fits, {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        plain_p50 = statistics.median(u.latency for u in plain)
        traced_p50 = statistics.median(u.latency for u in traced)
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.latency_s.p50"] = (traced_p50, "s")
        metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
        print(f"per unit of work over {len(traced)} traced units "
              f"({len(plain)} untraced units for the overhead)")
    else:
        latencies = [u.latency for u in units]
        tail_s, tail_rank = tail(latencies)
        fit_time = sum(u.latency - u.setup for u in units)
        metrics = {
            "setup_s": (statistics.median(setups + [u.setup for u in units]), "s"),
            "fits_per_s": (attempted / fit_time, "1/s"),
            "latency_s.p50": (statistics.median(latencies), "s"),
            "latency_s.tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
        }
        print(f"latency_s.tail is p{tail_rank:.1f} of {len(latencies)} units; "
              f"setup_s is the median of {SETUP_REPS + len(units)} set-ups")
    for k, (v, unit) in metrics.items():
        print(f"  {k:48s} {v:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
