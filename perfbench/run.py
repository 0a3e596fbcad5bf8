#!/usr/bin/env python3
"""Benchmark of dirnormal: study throughput, single-test latency, and a
traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload study-dt --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
record of the run (machine, versions, rounds, check results and, when
traced, per-cell stage times and the spans) goes to ``perfbench/results/``.
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS stays single-threaded in this process and in every worker it starts,
# so that at most two threads are busy at two workers.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("study-dt", "study-classical", "single-test")
SETUP_REPEATS = 3
# A run repeats whole rounds until --seconds have passed and at least this
# many rounds ran.  Every workload then has at least 100 latency samples,
# which puts ten beyond the 90th percentile.
MIN_ROUNDS = {"study-dt": 2, "study-classical": 2, "single-test": 2}
WORKERS = 2
BENCH_DIR = Path(__file__).resolve().parent


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus ``WORKERS`` times that of its largest
    finished child: an upper bound on the combined peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + WORKERS * child) / 1024.0


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- checks ------------------------------------------------------------------------

def _case_kwargs(case: str, p: int) -> dict:
    """Null parameters of a simulation cell beyond its case tag."""
    import numpy as np
    from dirnormal.simulation import default_blocks

    if case == "c2":
        return {"blocks": default_blocks(p)}
    if case == "c5":
        return {"mu0": np.zeros(p), "lambda0": np.eye(p)}
    return {}


def _study_checks(cells, rounds) -> list[str]:
    """Checks of study outputs; ``rounds`` holds ``(w1_results, w2_results)``."""
    import numpy as np
    from dataclasses import replace

    import checks
    from dirnormal.simulation import Null, generate_scenario
    from workloads import STREAM_MAIN, STREAM_NULLCAL, cell_label

    msgs: list[str] = []
    first = rounds[0][0]
    for r, (w1, w2) in enumerate(rounds):
        for spec, ref, a, b in zip(cells, first, w1, w2):
            label = cell_label(spec)
            for m in spec.methods:
                msgs += checks.check_identical(f"{label} {m}: round {r + 1} at 1 worker vs round 1",
                                               a.pvalues[m], ref.pvalues[m])
                msgs += checks.check_identical(f"{label} {m}: round {r + 1}, 2 workers vs 1 worker",
                                               b.pvalues[m], a.pvalues[m])
                if a.null_pvalues is not None:
                    msgs += checks.check_identical(f"{label} {m} null pass: 2 workers vs 1 worker",
                                                   b.null_pvalues[m], a.null_pvalues[m])
            for res in (a, b):
                for m, v in res.pvalues.items():
                    msgs += checks.check_unit_interval(f"{label} {m}", v)
                for m, v in (res.null_pvalues or {}).items():
                    msgs += checks.check_unit_interval(f"{label} {m} null pass", v)

    pooled_null_dt = []
    for spec, res in zip(cells, first):
        kw = _case_kwargs(spec.case, spec.p)
        samples = [(spec, STREAM_MAIN, i, res.pvalues) for i in (0, spec.reps - 1)]
        if not isinstance(spec.alternative, Null):
            samples.append((replace(spec, alternative=Null()), STREAM_NULLCAL, 0, res.null_pvalues))
        for sspec, stream, rep, pvals in samples:
            label = f"{cell_label(spec)} stream {stream} rep {rep}"
            data = generate_scenario(sspec, rep, stream)
            if "dt" in pvals:
                path = checks.null_path(spec.case, data, **kw)
                msgs += checks.check_directional(label, float(pvals["dt"][rep]), path)
            if "lrt" in pvals:
                w = checks.lrt_statistic(spec.case, data, **kw)
                d = checks.degrees_of_freedom(spec.case, spec.p, len(spec.group_sizes), kw.get("blocks"))
                msgs += checks.check_lrt(label, w, d, float(pvals["lrt"][rep]))
                msgs += checks.check_bartlett(label, w, d, res.e_w_hat, float(pvals["bc"][rep]))
        if "dt" in spec.methods:
            pooled_null_dt.append(res.pvalues["dt"] if isinstance(spec.alternative, Null)
                                  else res.null_pvalues["dt"])
    if pooled_null_dt:
        msgs += checks.check_uniform("pooled null directional p-values", np.concatenate(pooled_null_dt))
    return msgs


def _test_checks(inputs, report_dir: Path, w2_dir: Path | None, codes) -> list[str]:
    import checks
    from dirnormal.hypotheses import ZeroPattern, fit_hypothesis

    schema = json.loads((Path.cwd() / "src/dirnormal/schemas/report-v1.json").read_text())
    msgs: list[str] = []
    for inp, code in zip(inputs, codes):
        if code != 0:
            msgs.append(f"{inp.name}: exit code {code}")
            continue
        text = (report_dir / f"{inp.name}.json").read_text()
        if w2_dir is not None and (w2_dir / f"{inp.name}.json").read_text() != text:
            msgs.append(f"{inp.name}: report from the second client differs from the in-process one")
        report = json.loads(text)
        msgs += checks.check_report(inp.name, report, schema)
        kw = {k: v for k, v in inp.extra.items() if k != "zero_pairs"}
        if inp.tag == "pattern":
            pairs = inp.extra["zero_pairs"]
            kw["sigma0"] = fit_hypothesis(ZeroPattern(pairs), inp.data).lambda0_inv
            msgs += checks.check_pattern_fit(inp.name, inp.data, kw["sigma0"], pairs)
        path = checks.null_path(inp.tag, inp.data, zero_pairs=inp.extra.get("zero_pairs"), **kw)
        methods = report["methods"]
        msgs += checks.check_unit_interval(inp.name, [e["p_value"] for e in methods.values()])
        msgs += checks.check_directional(inp.name, methods["dt"]["p_value"], path)
        w = checks.lrt_statistic(inp.tag, inp.data, **kw)
        msgs += checks.check_lrt(inp.name, w, path.d, methods["lrt"]["p_value"], report["w"])
        if report["d"] != path.d:
            msgs.append(f"{inp.name}: report d={report['d']} but the null has {path.d}")
    return msgs


# -- runs --------------------------------------------------------------------------

def _import_seconds() -> float:
    """Time to import dirnormal, numpy and scipy in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import dirnormal; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def _median_round(per_round: list[list[float]]) -> float:
    """Sum over operations of each operation's median time across rounds.

    A burst of load from outside slows whichever operation it hits; the
    per-operation median drops it unless it hits that operation in half the
    rounds.
    """
    return sum(_median(times) for times in zip(*per_round))


def _study_run(args) -> dict:
    import workloads as wl

    setup = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        start = time.perf_counter()
        cells = wl.study_cells(args.workload, args.seed)
        wl.warm_studies(cells)
        setup.append(imported + time.perf_counter() - start)

    reps = sum(wl.cell_reps(spec) for spec in cells)
    rounds, walls1, walls2, stamps = [], [], [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS[args.workload] or time.perf_counter() - start < args.seconds:
        with wl.rep_stamps(stamps):
            w1_walls, w1 = wl.run_cells(cells, 1)
        w2_walls, w2 = wl.run_cells(cells, WORKERS)
        rounds.append((w1, w2))
        walls1.append(w1_walls)
        walls2.append(w2_walls)
    peak = _peak_rss_mb()

    latencies = wl.stamp_latencies_ms(stamps)
    metrics = {
        "setup_s": (_median(setup), "s"),
        "reps_per_s_w1": (reps / _median_round(walls1), "reps/s"),
        "reps_per_s_w2": (reps / _median_round(walls2), "reps/s"),
        "test_latency_ms_p50": (_percentile(latencies, 50), "ms"),
        "test_latency_ms_p90": (_percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": 2 * reps * len(rounds),
        "failed": sum(res.failures for w1, w2 in rounds for res in w1 + w2),
        "checks": _study_checks(cells, rounds),
        "detail": {"setup_s": setup, "reps_per_round_at_each_worker_count": reps,
                   "cell_walls_s_w1": walls1, "cell_walls_s_w2": walls2,
                   "latency_samples": len(latencies)},
    }


def _single_run(args, work: Path) -> dict:
    import workloads as wl

    setup = []
    clients = None
    try:
        for _ in range(SETUP_REPEATS):
            if clients is not None:
                clients.close()
            imported = _import_seconds()
            start = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            inputs = wl.make_inputs(args.seed, work / "inputs")
            (work / "w1").mkdir()
            (work / "w2").mkdir()
            clients = wl.Clients(WORKERS)
            warm = [(inp.argv, str(work / f"warm-{inp.name}.json")) for inp in inputs if inp.p == 5]
            wl.run_tests(warm[::2])
            clients.run([[(warm[0][0], str(work / f"warm-client{i}.json"))] for i in range(WORKERS)])
            setup.append(imported + time.perf_counter() - start)

        jobs_w1 = [(inp.argv, str(work / "w1" / f"{inp.name}.json")) for inp in inputs]
        jobs_w2 = wl.split_jobs([(inp.argv, str(work / "w2" / f"{inp.name}.json")) for inp in inputs],
                                WORKERS)
        rounds = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS[args.workload] or time.perf_counter() - start < args.seconds:
            rounds.append((wl.run_tests(jobs_w1), clients.run(jobs_w2)))
    finally:
        if clients is not None:
            clients.close()
    peak = _peak_rss_mb()

    def seconds(results):
        return [ms / 1e3 for _, ms in results]

    count = len(inputs)
    w1 = [seconds(res1) for res1, _ in rounds]
    # The clients run side by side, so a two-worker round lasts as long as
    # its slower client.
    w2 = max(_median_round([seconds(res2[c]) for _, res2 in rounds]) for c in range(WORKERS))
    codes = [c for res1, res2 in rounds for c, _ in res1 + [r for part in res2 for r in part]]
    pooled_ms = [1e3 * s for per_round in w1 for s in per_round]
    metrics = {
        "setup_s": (_median(setup), "s"),
        "reps_per_s_w1": (count / _median_round(w1), "reps/s"),
        "reps_per_s_w2": (count / w2, "reps/s"),
        "test_latency_ms_p50": (_percentile(pooled_ms, 50), "ms"),
        "test_latency_ms_p90": (_percentile(pooled_ms, 90), "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": len(codes),
        "failed": sum(c != 0 for c in codes),
        "checks": _test_checks(inputs, work / "w1", work / "w2", [c for c, _ in rounds[-1][0]]),
        "detail": {"setup_s": setup, "rounds": len(rounds), "latency_samples": len(pooled_ms),
                   "latency_ms_by_input": {inp.name: 1e3 * _median(r[i] for r in w1)
                                           for i, inp in enumerate(inputs)}},
    }


def _trace_run(args, work: Path) -> dict:
    """One untraced round of each study at one and at two workers, then one
    traced round of every workload at one worker."""
    import tracer as tr
    import workloads as wl

    studies = {name: wl.study_cells(name, args.seed) for name in ("study-dt", "study-classical")}
    inputs = wl.make_inputs(args.seed, work / "inputs")
    (work / "w1").mkdir()
    for cells in studies.values():
        wl.warm_studies(cells)
    jobs = [(inp.argv, str(work / "w1" / f"{inp.name}.json")) for inp in inputs]
    wl.run_tests(jobs[::2])

    metrics: dict[str, tuple[float, str]] = {}
    untraced = {}
    for name, cells in studies.items():
        w1_walls, w1 = wl.run_cells(cells, 1)
        w2_walls, w2 = wl.run_cells(cells, WORKERS)
        untraced[name] = (w1, w2)
        metrics[f"simulation.w1_wall_s.{name}"] = (sum(w1_walls), "s")
        metrics[f"simulation.w2_wall_s.{name}"] = (sum(w2_walls), "s")
        metrics[f"simulation.w2_speedup.{name}"] = (sum(w1_walls) / sum(w2_walls), "ratio")

    tracer = tr.Tracer()
    traced_results = {}
    with tr.traced(tracer):
        for name, cells in studies.items():
            traced_results[name] = wl.run_cells(cells, 1, tracer)
        codes = [c for c, _ in wl.run_tests(jobs, tracer)]
    metrics.update(tr.layer_metrics(tracer.spans))
    metrics["trace.wall_ratio"] = (
        sum(traced_results["study-dt"][0]) / metrics["simulation.w1_wall_s.study-dt"][0], "ratio")

    msgs: list[str] = []
    attempted = failed = 0
    for name, cells in studies.items():
        w1, w2 = untraced[name]
        traced_w1 = traced_results[name][1]
        msgs += _study_checks(cells, [(w1, w2), (traced_w1, w2)])
        attempted += 3 * sum(wl.cell_reps(spec) for spec in cells)
        failed += sum(res.failures for res in w1 + w2 + traced_w1)
    msgs += _test_checks(inputs, work / "w1", None, codes)
    attempted += len(codes)
    failed += sum(c != 0 for c in codes)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": msgs,
        "detail": {"cells": tr.breakdown(tracer.spans, "simulation.study"),
                   "tests": tr.breakdown(tracer.spans, "cli.test")},
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "dirnormal" / "__init__.py").is_file():
        print(f"error: {src / 'dirnormal'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dirnormal

    if Path(dirnormal.__file__).resolve().parent != (src / "dirnormal").resolve():
        print(f"error: dirnormal imported from {dirnormal.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    work = BENCH_DIR / "work" / str(os.getpid())
    try:
        if args.trace:
            out = _trace_run(args, work)
        elif args.workload == "single-test":
            out = _single_run(args, work)
        else:
            out = _study_run(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    line = {
        "correct": not out["checks"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    record = {
        "command": [sys.executable, *sys.argv],
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "result": line,
        "check_failures": out["checks"],
        "detail": out["detail"],
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in out:
        with (results / f"{stem}.spans.jsonl").open("w") as fh:
            for rec in out["spans"]:
                fh.write(json.dumps(rec) + "\n")
    for msg in out["checks"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
