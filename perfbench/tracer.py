"""Spans around the calls into each layer of dirnormal.

The program is not edited: :func:`traced` swaps the module attributes and
methods through which the layers call each other for wrappers that record
a span (name, start, end, parent) per call, and puts the originals back on
exit.  ``DirectionalEvaluator.log_gbar`` gets a counter instead of a span,
so its time stays inside the caller that spent it (the quadrature is the
self time of ``directional_pvalue``).  Spans are kept in memory and
reduced to per-layer metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

PVALUE = "directional.pvalue"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": None if parent is None else parent["id"],
               "kind": attrs.pop("kind", None) or (parent["kind"] if parent else None), **attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, kind_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, kind=kind_of(args) if kind_of else None):
                return fn(*args, **kwargs)
        return wrapper

    def count_log_gbar(self, fn):
        @functools.wraps(fn)
        def wrapper(ev, t):
            for rec in reversed(self._stack):
                if rec["name"] == PVALUE:
                    rec["log_gbar_calls"] = rec.get("log_gbar_calls", 0) + 1
                    rec["log_gbar_points"] = rec.get("log_gbar_points", 0) + int(np.size(t))
                    break
            return fn(ev, t)
        return wrapper


def _path_kind(args) -> str:
    """``linear`` for the cases whose tilted covariance is linear in ``t``
    (c1, c2, c4, c6, pattern), ``quadratic`` for c3 and c5."""
    return "linear" if args[0].pencil_eigs is not None else "quadratic"


def _targets():
    from dirnormal import classical, cli, directional, hypotheses, report, simulation

    ev = directional.DirectionalEvaluator
    return [
        (simulation, "directional_pvalue", PVALUE),
        (cli, "directional_pvalue", PVALUE),
        (ev, "__init__", "directional.evaluator"),
        (ev, "integration_cap", "directional.cap"),
        (ev, "maximize", "directional.maximize"),
        (ev, "curvature", "directional.curvature"),
        (directional, "integration_interval", "directional.interval"),
        (simulation, "generate_scenario", "simulation.generate"),
        (simulation, "fit_hypothesis", "hypotheses.fit"),
        (cli, "fit_hypothesis", "hypotheses.fit"),
        (hypotheses, "summarize", "core.summarize"),
        (hypotheses, "fit_zero_pattern", "hypotheses.fit_pattern"),
        (hypotheses, "eig_pencil", "linalg.eig_pencil"),
        (simulation, "calibrate_bartlett_expectation", "simulation.bc_calibration"),
        (simulation, "classical_report", "classical.report"),
        (cli, "classical_report", "classical.report"),
        (classical, "skovgaard_log_gamma", "classical.skovgaard"),
        (report, "read_data_csv", "report.read"),
        (report, "read_vector_csv", "report.read"),
        (report, "read_matrix_csv", "report.read"),
        (report, "read_pattern_csv", "report.read"),
        (report, "build_report", "report.write"),
        (report, "report_to_json", "report.write"),
        (ev, "log_gbar", None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the layer calls of dirnormal through ``tracer`` for the
    duration of the block."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if name is None:
                wrapped = tracer.count_log_gbar(original)
            else:
                wrapped = tracer.wrap(name, original, _path_kind if name == PVALUE else None)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


# Parts of directional_pvalue; the rest of its time is the quadrature.
_SPLIT = {
    "dt_evaluator": ("directional.evaluator",),
    "dt_peak": ("directional.cap", "directional.maximize"),
    "dt_interval": ("directional.curvature", "directional.interval"),
}


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer means from the spans of a traced run.

    Times are means per call of the layer, except where the name says per
    p-value or per test; counts are per p-value or per fit.
    """
    children = defaultdict(list)
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec["name"]].append(rec)
        if rec["parent"] is not None:
            children[rec["parent"]].append(rec)
    by_id = {rec["id"]: rec for rec in spans}

    def mean_ms(name: str) -> float:
        recs = by_name[name]
        return 1e3 * sum(map(_dur, recs)) / len(recs)

    out: dict[str, tuple[float, str]] = {}
    for kind in ("linear", "quadratic"):
        recs = [r for r in by_name[PVALUE] if r["kind"] == kind]
        n = len(recs)
        for part, names in _SPLIT.items():
            total = sum(_dur(c) for r in recs for c in children[r["id"]] if c["name"] in names)
            out[f"directional.{part[3:]}_ms.{kind}"] = (1e3 * total / n, "ms")
        self_time = sum(_dur(r) - sum(_dur(c) for c in children[r["id"]]) for r in recs)
        out[f"directional.quadrature_ms.{kind}"] = (1e3 * self_time / n, "ms")
        out[f"directional.pvalue_ms.{kind}"] = (1e3 * sum(map(_dur, recs)) / n, "ms")
        out[f"directional.log_gbar_calls.{kind}"] = (
            sum(r.get("log_gbar_calls", 0) for r in recs) / n, "count")
        out[f"directional.log_gbar_points.{kind}"] = (
            sum(r.get("log_gbar_points", 0) for r in recs) / n, "count")

    fits = len(by_name["hypotheses.fit"])
    out["simulation.generate_ms"] = (mean_ms("simulation.generate"), "ms")
    out["hypotheses.fit_ms"] = (mean_ms("hypotheses.fit"), "ms")
    out["core.summarize_ms"] = (mean_ms("core.summarize"), "ms")
    out["linalg.eig_pencil_ms"] = (mean_ms("linalg.eig_pencil"), "ms")
    out["linalg.eig_pencil_calls"] = (len(by_name["linalg.eig_pencil"]) / fits, "count")
    out["simulation.bc_calibration_s"] = (mean_ms("simulation.bc_calibration") / 1e3, "s")
    out["classical.report_ms"] = (mean_ms("classical.report"), "ms")
    out["classical.skovgaard_ms"] = (mean_ms("classical.skovgaard"), "ms")
    out["hypotheses.fit_pattern_ms"] = (mean_ms("hypotheses.fit_pattern"), "ms")

    tests = len(by_name["cli.test"])
    outer_reads = [r for r in by_name["report.read"]
                   if r["parent"] is None or by_id[r["parent"]]["name"] != "report.read"]
    out["report.read_ms"] = (1e3 * sum(map(_dur, outer_reads)) / tests, "ms")
    out["report.write_ms"] = (1e3 * sum(map(_dur, by_name["report.write"])) / tests, "ms")
    return out


def breakdown(spans: list[dict], unit: str) -> list[dict]:
    """Per-operation stage times below every span named ``unit``
    (``simulation.study`` per study cell, ``cli.test`` per analysis).

    Stage times are in ms per replication, except the Bartlett calibration,
    which is per cell; a stage counts its outermost spans only, so the fits
    inside the calibration are not counted as fits of replications.  The
    ``dt_*`` columns split the directional time as the per-layer metrics do.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec["parent"] is not None:
            children[rec["parent"]].append(rec)
    stages = {
        "simulation.generate": "generate", "hypotheses.fit": "fit", PVALUE: "directional",
        "classical.report": "classical", "simulation.bc_calibration": "bc_calibration",
        "report.read": "read", "report.write": "write",
    }
    rows = []
    for rec in spans:
        if rec["name"] != unit:
            continue
        totals = defaultdict(float)
        todo = list(children[rec["id"]])
        while todo:
            c = todo.pop()
            if c["name"] not in stages:
                todo.extend(children[c["id"]])
                continue
            totals[stages[c["name"]]] += _dur(c)
            if c["name"] == PVALUE:
                kids = children[c["id"]]
                for part, names in _SPLIT.items():
                    totals[part] += sum(_dur(k) for k in kids if k["name"] in names)
                totals["dt_quadrature"] += _dur(c) - sum(map(_dur, kids))
        reps = rec.get("reps", 1)
        row = {"label": rec.get("label"), "reps": reps, "wall_ms": 1e3 * _dur(rec)}
        for stage, total in sorted(totals.items()):
            row[f"{stage}_ms"] = 1e3 * total / (1 if stage == "bc_calibration" else reps)
        rows.append(row)
    return rows
