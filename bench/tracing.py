"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced public function at the module
attribute its caller looks up (``fairdp.trainers.perturb``,
``fairdp.polynomial.lr_poly``, ...) with a wrapper that records a span
``[name, start, end, parent]`` in memory, plus optional counts taken from the
call's arguments or result.  ``Tracer.uninstall`` puts the originals back.
Nothing is written while tracing; ``layer_metrics`` reduces the spans at the
end.

``.s`` is self time (span time minus the time its child spans cover), except
for ``INCLUSIVE`` layers, whose ``.s`` is the whole span: a trainer call and
the set-up stage as a whole.  ``optimizer.logistic_objective`` is counted
but gets no span, so the descent's ``.s`` includes its objective
evaluations.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from fairdp import cli, evaluation, optimizer, polynomial, trainers

TRAINERS = ("train_lr", "train_fair_lr", "train_fm", "train_relaxed_fm",
            "train_pdfc", "train_adfc")
INCLUSIVE = frozenset({"cli.load_encoded_dataset"} | {f"trainers.{t}" for t in TRAINERS})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._best_loss: dict[int, float] = {}
        self._split_keys: set = set()
        self.unit = 0  # index of the unit of work in progress

    # --- installing -------------------------------------------------------

    def _patch(self, module, attr, wrapper_factory):
        if not hasattr(module, attr):  # a later version may drop a layer
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    def _span(self, name, on_result=None):
        spans, stack = self.spans, self._stack

        def factory(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = perf_counter()
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            return wrapper
        return factory

    def _count_only(self, on_result):
        def factory(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(args, kwargs, result)
                return result
            return wrapper
        return factory

    def install(self) -> None:
        span = self._span
        self._patch(cli, "load_encoded_dataset", span("cli.load_encoded_dataset"))
        self._patch(cli, "load_csv", span("dataset.load_csv"))
        self._patch(cli, "build_dataset", span("dataset.build_dataset"))
        for module in (cli, evaluation):
            self._patch(module, "split", span("dataset.split", self._on_split))
            self._patch(module, "accuracy", span("evaluation.accuracy"))
            self._patch(module, "risk_difference", span("evaluation.risk_difference"))
            for t in TRAINERS:
                self._patch(module, t, span(f"trainers.{t}"))
        self._patch(evaluation, "run_experiment", span("evaluation.run_experiment"))
        for module in (trainers, polynomial):
            self._patch(module, "lr_poly", span("polynomial.lr_poly"))
        self._patch(trainers, "fair_poly", span("polynomial.fair_poly"))
        self._patch(trainers, "perturb", span("mechanisms.perturb", self._on_perturb))
        self._patch(trainers, "partition_monomials", span("mechanisms.partition_monomials"))
        self._patch(trainers, "minimize_quadratic",
                    span("optimizer.minimize_quadratic", self._on_quadratic))
        self._patch(trainers, "minimize_logistic_exact",
                    span("optimizer.minimize_logistic_exact", self._on_descent))
        self._patch(optimizer, "logistic_objective", self._count_only(self._on_objective))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # --- counts taken from arguments and results --------------------------

    def _on_split(self, args, kwargs, result):
        """A train split is distinct per (unit, dataset object, fraction, seed)."""
        def ident(v):
            return id(v) if hasattr(v, "X") else v
        key = [ident(v) for v in args] + [(k, ident(v)) for k, v in sorted(kwargs.items())]
        self._split_keys.add((self.unit, *key))

    def _on_perturb(self, args, kwargs, result):
        d = result.d
        self.counts["mechanisms.perturb.draws"] += d + d * d

    def _on_quadratic(self, args, kwargs, result):
        w, diag = result
        self.counts["optimizer.minimize_quadratic.clamped"] += diag.clamped_eigenvalues
        self.counts["optimizer.minimize_quadratic.eigenvalues"] += w.size

    def _on_descent(self, args, kwargs, result):
        _w, diag = result
        self.counts["optimizer.minimize_logistic_exact.iterations"] += diag.iterations
        self.counts["optimizer.minimize_logistic_exact.converged"] += bool(diag.converged)

    def _on_objective(self, args, kwargs, result):
        """An evaluation is accepted when it lowers the best objective seen so
        far in the same descent (the first evaluation of a descent only sets
        the baseline); this holds for any descent method."""
        self.counts["optimizer.logistic_objective.calls"] += 1
        parent = self._stack[-1] if self._stack else -1
        loss = result[0]
        best = self._best_loss.get(parent)
        if best is None:
            self._best_loss[parent] = loss
        elif loss < best:
            self._best_loss[parent] = loss
            self.counts["optimizer.logistic_objective.accepted"] += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, units: int) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) per unit of work, from the recorded spans.

    Layers a workload never reaches read 0, and ratios with a zero base
    read 0."""
    child = [0.0] * len(tracer.spans)
    for _name, start, end, parent in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, _parent) in enumerate(tracer.spans):
        seconds[name] += (end - start) if name in INCLUSIVE else (end - start - child[i])
        calls[name] += 1
    c = tracer.counts

    def per_unit(x):
        return x / units

    out = {
        "dataset.load_csv.s": (per_unit(seconds["dataset.load_csv"]), "s"),
        "dataset.build_dataset.s": (per_unit(seconds["dataset.build_dataset"]), "s"),
        "dataset.split.calls": (per_unit(calls["dataset.split"]), "count"),
        "dataset.split.s": (per_unit(seconds["dataset.split"]), "s"),
        "polynomial.lr_poly.calls": (per_unit(calls["polynomial.lr_poly"]), "count"),
        "polynomial.lr_poly.s": (per_unit(seconds["polynomial.lr_poly"]), "s"),
        "polynomial.fair_poly.s": (per_unit(seconds["polynomial.fair_poly"]), "s"),
        "polynomial.stats_per_split": (
            _ratio(calls["polynomial.lr_poly"], len(tracer._split_keys)), "ratio"),
        "mechanisms.perturb.calls": (per_unit(calls["mechanisms.perturb"]), "count"),
        "mechanisms.perturb.s": (per_unit(seconds["mechanisms.perturb"]), "s"),
        "mechanisms.perturb.draws": (per_unit(c["mechanisms.perturb.draws"]), "count"),
        "mechanisms.perturb.ns_per_draw": (
            1e9 * _ratio(seconds["mechanisms.perturb"], c["mechanisms.perturb.draws"]), "ns"),
        "mechanisms.partition_monomials.s": (
            per_unit(seconds["mechanisms.partition_monomials"]), "s"),
        "optimizer.minimize_quadratic.calls": (
            per_unit(calls["optimizer.minimize_quadratic"]), "count"),
        "optimizer.minimize_quadratic.s": (per_unit(seconds["optimizer.minimize_quadratic"]), "s"),
        "optimizer.minimize_quadratic.clamped_frac": (_ratio(
            c["optimizer.minimize_quadratic.clamped"],
            c["optimizer.minimize_quadratic.eigenvalues"]), "fraction"),
        "optimizer.minimize_logistic_exact.calls": (
            per_unit(calls["optimizer.minimize_logistic_exact"]), "count"),
        "optimizer.minimize_logistic_exact.s": (
            per_unit(seconds["optimizer.minimize_logistic_exact"]), "s"),
        "optimizer.minimize_logistic_exact.iterations": (
            per_unit(c["optimizer.minimize_logistic_exact.iterations"]), "count"),
        "optimizer.minimize_logistic_exact.converged_frac": (_ratio(
            c["optimizer.minimize_logistic_exact.converged"],
            calls["optimizer.minimize_logistic_exact"]), "fraction"),
        "optimizer.logistic_objective.calls": (
            per_unit(c["optimizer.logistic_objective.calls"]), "count"),
        "optimizer.logistic_objective.accepted_frac": (_ratio(
            c["optimizer.logistic_objective.accepted"],
            c["optimizer.logistic_objective.calls"]), "fraction"),
        "evaluation.run_experiment.s": (per_unit(seconds["evaluation.run_experiment"]), "s"),
        "evaluation.accuracy.s": (per_unit(seconds["evaluation.accuracy"]), "s"),
        "evaluation.risk_difference.s": (per_unit(seconds["evaluation.risk_difference"]), "s"),
        "cli.load_encoded_dataset.s": (per_unit(seconds["cli.load_encoded_dataset"]), "s"),
        "cli.report_bytes": (per_unit(c["cli.report_bytes"]), "bytes"),
    }
    for t in TRAINERS:
        out[f"trainers.{t}.s"] = (per_unit(seconds[f"trainers.{t}"]), "s")
    return out
