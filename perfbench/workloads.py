"""The benchmark's workloads: study cells, single-test inputs, and one
closed-loop round of each.

Every input is a pure function of the benchmark seed.  A round runs the
same operations every time, so a run's share of failed operations does not
depend on how many rounds fit in it.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dirnormal import cli, simulation
from dirnormal.simulation import Extreme, Null, ScenarioSpec, default_blocks, run_study

# Study cells as (case, p, replications).  The replication counts put the
# median and the 90th-percentile replication latency inside one cell's
# cluster of latencies, away from the edge between two cells, where a
# percentile would jump between them from run to run.
DT_CELLS = (("c1", 30, 16), ("c2", 30, 16), ("c3", 30, 16), ("c4", 30, 16), ("c5", 30, 16),
            ("c6", 30, 16), ("c3", 90, 8), ("c5", 90, 16))
DT_POWER_CELL = ("c1", 30, 16)  # under Extreme(1.0), with its null-calibration pass
CLASSICAL_CELLS = (("c1", 30, 64), ("c3", 30, 32), ("c4", 30, 32), ("c5", 30, 64))
BC_REPS = 100  # Bartlett calibration draws per cell
# Single-test inputs: every tag at a small and a moderate p, n = 100 per group,
# drawn from the null and from an alternative, in TEST_COPIES independent
# data sets each.  Two copies put four c3 p=30 data sets around the 90th
# latency percentile, so that it does not hang on the cost of one of them.
TAGS = ("c1", "c2", "c3", "c4", "c5", "c6", "pattern")
TEST_PS = (5, 30)
TEST_COPIES = 2
TEST_N = 100
GROUPS = 3
PATTERN_BAND = 2  # concentration zero wherever |i - j| > PATTERN_BAND
# Stream ids of simulation.generate_scenario: main pass, null-calibration pass.
STREAM_MAIN, STREAM_NULLCAL = 0, 1


# -- studies -------------------------------------------------------------------

def make_cell(case: str, p: int, seed: int, methods, reps: int, alternative=Null()) -> ScenarioSpec:
    n = (TEST_N,) * GROUPS if case in ("c3", "c4") else TEST_N
    return ScenarioSpec(case=case, n=n, p=p, alternative=alternative, reps=reps, seed=seed,
                        methods=tuple(methods), bootstrap_reps=BC_REPS)


def study_cells(workload: str, seed: int) -> list[ScenarioSpec]:
    if workload == "study-dt":
        cells = [make_cell(case, p, seed, ("dt",), reps) for case, p, reps in DT_CELLS]
        case, p, reps = DT_POWER_CELL
        return cells + [make_cell(case, p, seed, ("dt",), reps, Extreme(1.0))]
    methods = ("lrt", "bc", "sko1", "sko2")
    return [make_cell(case, p, seed, methods, reps) for case, p, reps in CLASSICAL_CELLS]


def cell_label(spec: ScenarioSpec) -> str:
    alt = "" if isinstance(spec.alternative, Null) else f" {type(spec.alternative).__name__.lower()}"
    return f"{spec.case} p={spec.p}{alt}"


def cell_reps(spec: ScenarioSpec) -> int:
    """Replications a study runs: a power cell adds a null-calibration pass."""
    return spec.reps * (1 if isinstance(spec.alternative, Null) else 2)


@contextlib.contextmanager
def rep_stamps(stamps: list):
    """Record the start time of every replication of a one-worker study.

    Consecutive starts within one pass give the latency of each
    replication but the last; Bartlett calibration draws (stream 2) are
    not replications and are skipped.
    """
    original = simulation.generate_scenario

    def stamped(spec, rep_index, stream=STREAM_MAIN):
        if stream in (STREAM_MAIN, STREAM_NULLCAL):
            stamps.append((id(spec), stream, rep_index, time.perf_counter()))
        return original(spec, rep_index, stream)

    simulation.generate_scenario = stamped
    try:
        yield stamps
    finally:
        simulation.generate_scenario = original


def stamp_latencies_ms(stamps: list) -> list[float]:
    out = []
    for (key_a, stream_a, rep_a, t_a), (key_b, stream_b, rep_b, t_b) in zip(stamps, stamps[1:]):
        if (key_a, stream_a) == (key_b, stream_b) and rep_b == rep_a + 1:
            out.append(1e3 * (t_b - t_a))
    return out


def run_cells(cells: list[ScenarioSpec], workers: int, tracer=None):
    """Run every cell once with ``workers`` worker processes.

    Returns ``(wall_seconds_per_cell, results)``.
    """
    os.environ["DIRNORMAL_THREADS"] = str(workers)
    walls, results = [], []
    for spec in cells:
        start = time.perf_counter()
        if tracer is None:
            results.append(run_study(spec))
        else:
            with tracer.span("simulation.study", label=cell_label(spec), reps=cell_reps(spec)):
                results.append(run_study(spec))
        walls.append(time.perf_counter() - start)
    return walls, results


def warm_studies(cells: list[ScenarioSpec]) -> None:
    os.environ["DIRNORMAL_THREADS"] = "1"
    for spec in cells:
        run_study(replace(spec, reps=2))


# -- single tests --------------------------------------------------------------

@dataclass
class AnalysisInput:
    """One analysis: the data it reads and what the CLI is told."""

    name: str
    tag: str
    p: int
    kind: str  # "null" or "alt"
    data: object  # matrix, or list of matrices for c3 and c4
    argv: list[str]
    extra: dict = field(default_factory=dict)  # blocks, mu0, lambda0, zero_pairs


def _ar1(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _equi(p: int, rho: float) -> np.ndarray:
    return (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))


def _banded_concentration(p: int) -> np.ndarray:
    k = np.eye(p)
    for off, value in ((1, 0.3), (2, 0.1)):
        idx = np.arange(p - off)
        k[idx, idx + off] = k[idx + off, idx] = value
    return k


def _draw(rng, n: int, mu, cov) -> np.ndarray:
    return np.asarray(mu) + rng.standard_normal((n, len(mu))) @ np.linalg.cholesky(cov).T


def _sample(tag: str, p: int, kind: str, rng):
    """Data of one input and the null's parameters (see README.md)."""
    alt = kind == "alt"
    zero = np.zeros(p)
    half = np.arange(p) < (p + 1) // 2
    extra: dict = {}
    if tag == "c1":
        cov = np.diag(np.where(half, 1.25, 1.0)) if alt else 1.7 * np.eye(p)
        return _draw(rng, TEST_N, np.full(p, 0.5), cov), extra
    if tag == "c2":
        blocks = default_blocks(p)
        cov = 0.6 * np.eye(p)
        edges = np.cumsum([0, *blocks])
        for a, b in zip(edges[:-1], edges[1:]):
            cov[a:b, a:b] += 0.4
        if alt:
            cov += 0.08
        extra["blocks"] = blocks
        return _draw(rng, TEST_N, zero, cov), extra
    if tag == "c3":
        base = _equi(p, 0.3)
        mus = [np.full(p, 0.2)] * GROUPS
        covs = [base] * GROUPS
        if alt:
            mus = [mus[0], mus[1] + 0.15 * (np.arange(p) == 0), mus[2]]
            covs = [base, base, 1.15 * base]
        return [_draw(rng, TEST_N, m, c) for m, c in zip(mus, covs)], extra
    if tag == "c4":
        base = _ar1(p, 0.5)
        covs = [base] * GROUPS
        if alt:
            scale = np.where(half, 1.1, 1.0)
            covs = [base, base, base * np.outer(scale, scale)]
        mus = [zero, np.full(p, 0.5), np.full(p, -0.5)]
        return [_draw(rng, TEST_N, m, c) for m, c in zip(mus, covs)], extra
    if tag == "c5":
        cov0 = _ar1(p, 0.4)
        mu0 = np.full(p, 0.3)
        lambda0 = np.linalg.inv(cov0)
        extra.update(mu0=mu0, lambda0=0.5 * (lambda0 + lambda0.T))
        if alt:
            return _draw(rng, TEST_N, mu0 + 0.05, _ar1(p, 0.45)), extra
        return _draw(rng, TEST_N, mu0, cov0), extra
    if tag == "c6":
        scale = np.sqrt(np.linspace(0.5, 2.0, p))
        corr = _ar1(p, 0.12) if alt else np.eye(p)
        return _draw(rng, TEST_N, zero, corr * np.outer(scale, scale)), extra
    # pattern
    cov = np.linalg.inv(_banded_concentration(p))
    if alt:
        cov = cov + 0.05
    extra["zero_pairs"] = tuple((i, j) for i in range(p) for j in range(i + PATTERN_BAND + 1, p))
    return _draw(rng, TEST_N, zero, cov), extra


def _write_csv(path: Path, values: np.ndarray, header: bool = True) -> None:
    values = np.atleast_2d(values)
    lines = [",".join(f"x{j + 1}" for j in range(values.shape[1]))] if header else []
    lines += [",".join(repr(float(v)) for v in row) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(seed: int, directory: Path) -> list[AnalysisInput]:
    """Write the CSV files of every single-test input under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = []
    for copy in range(TEST_COPIES):
        for p, t_index, kind in itertools.product(TEST_PS, range(len(TAGS)), ("null", "alt")):
            tag = TAGS[t_index]
            name = f"{tag}-p{p}-{kind}-{copy + 1}"
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence((seed, 3, p, t_index, kind == "alt", copy))))
            data, extra = _sample(tag, p, kind, rng)
            argv = ["test", "--case", tag]
            mats = data if isinstance(data, list) else [data]
            for g, y in enumerate(mats):
                path = directory / f"{name}-g{g + 1}.csv"
                _write_csv(path, y)
                argv += ["--data", str(path)]
            if tag == "c2":
                argv += ["--blocks", ",".join(str(b) for b in extra["blocks"])]
            if tag == "c5":
                _write_csv(directory / f"{name}-mu0.csv", extra["mu0"][:, None], header=False)
                _write_csv(directory / f"{name}-lambda0.csv", extra["lambda0"], header=False)
                argv += ["--mu0", str(directory / f"{name}-mu0.csv"),
                         "--lambda0", str(directory / f"{name}-lambda0.csv")]
            if tag == "pattern":
                pairs = directory / f"{name}-zeros.csv"
                pairs.write_text("".join(f"{i + 1},{j + 1}\n" for i, j in extra["zero_pairs"]),
                                 encoding="utf-8")
                argv += ["--pattern", str(pairs)]
            inputs.append(AnalysisInput(name, tag, p, kind, data, argv, extra))
    return inputs


def run_tests(jobs: list[tuple[list[str], str]], tracer=None) -> list[tuple[int, float]]:
    """Run ``dirnormal test`` in process, one analysis at a time.

    ``jobs`` holds ``(argv, report_path)`` pairs; returns ``(exit code,
    latency ms)`` per job.
    """
    out = []
    for argv, report in jobs:
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv + ["--out", report])
        else:
            with tracer.span("cli.test", label=Path(report).stem):
                code = cli.main(argv + ["--out", report])
        out.append((code, 1e3 * (time.perf_counter() - start)))
    return out


def _client_loop(conn) -> None:
    while True:
        jobs = conn.recv()
        if jobs is None:
            break
        conn.send(run_tests(jobs))
    conn.close()


class Clients:
    """Closed-loop analysis clients in their own processes, each running
    one analysis at a time.

    The clients are forked, like the program's own pool workers.  A
    spawned client would also start multiprocessing's resource-tracker
    process, which outlives the benchmark by a moment and is never waited
    for.
    """

    def __init__(self, count: int):
        ctx = multiprocessing.get_context("fork")
        # A forked child flushes the parent's buffered output again on exit.
        sys.stdout.flush()
        sys.stderr.flush()
        self._procs = []
        self._conns = []
        for _ in range(count):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_client_loop, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)

    def run(self, job_lists: list[list]) -> list[list[tuple[int, float]]]:
        for conn, jobs in zip(self._conns, job_lists):
            conn.send(jobs)
        return [conn.recv() for conn in self._conns]

    def close(self) -> None:
        for conn in self._conns:
            with contextlib.suppress(OSError):
                conn.send(None)
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        for conn in self._conns:
            conn.close()


def split_jobs(jobs: list, count: int) -> list[list]:
    """Deal jobs round-robin so every client gets the same mix of tags."""
    return [jobs[i::count] for i in range(count)]
