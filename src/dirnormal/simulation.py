"""Monte Carlo harness: scenario generators, parallel replication runner,
size/power summaries and uniformity diagnostics.

Replications are independent work items.  Every random stream is keyed by
``(master seed, case id, stream id, replication index)`` through a
counter-based generator, so results are bit-identical under any execution
order or degree of parallelism.  The worker count is capped by the
``DIRNORMAL_THREADS`` environment variable (default: ``os.cpu_count()``).

At a cap of one, every replication and Bartlett calibration draw runs in
the calling process.  Above one, they run on one process pool shared by
the whole process: it is forked the first time a study needs it, reused
by every later pass and study, replaced when the cap changes or a worker
has died, and shut down at interpreter exit.  Workers are forked once, so
they do not see functions patched in the parent after that.  Each worker
runs one OpenBLAS thread; the calling process keeps its own setting.
"""

from __future__ import annotations

import atexit
import functools
import math
import operator
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np
import scipy
from scipy.special import kolmogorov

from .classical import CLASSICAL_METHODS, classical_report
from .core import sample_groups, summarize
from .directional import directional_pvalue
from .exceptions import DimensionError, InvalidScenarioError, NotPositiveDefiniteError
from .hypotheses import (HYPOTHESES, BlockIndependence, ConstrainedFit, Hypothesis, SpecifiedMeanCov,
                         constrained_mle, fit_hypothesis)
from .linalg import SpdFactor

__all__ = [
    "Null",
    "Setting1",
    "Local",
    "Extreme",
    "ScenarioSpec",
    "StudyResult",
    "default_blocks",
    "hypothesis_for",
    "scenario_params",
    "generate_scenario",
    "bartlett_bootstrap",
    "run_study",
    "corrected_cutoff",
    "ks_uniformity",
]

METHODS = ("dt", *CLASSICAL_METHODS)
_CASE_IDS = {"c1": 1, "c2": 2, "c3": 3, "c4": 4, "c5": 5, "c6": 6}
# Stream ids: 0 main run, 1 cutoff-calibration null run, 2 Bartlett calibration.
_STREAM_MAIN, _STREAM_NULLCAL, _STREAM_BC = 0, 1, 2


@dataclass(frozen=True)
class Null:
    pass


@dataclass(frozen=True)
class Setting1:
    pass


@dataclass(frozen=True)
class Local:
    delta: float


@dataclass(frozen=True)
class Extreme:
    eta: float


Alternative = Union[Null, Setting1, Local, Extreme]


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell.

    ``n`` is a single size for the one-sample cases and a tuple of group
    sizes for the group cases.  ``methods`` selects which tests run per
    replication; ``bootstrap_reps`` sizes the Bartlett calibration.  A cell
    with no null or no sampling distribution raises ``InvalidScenarioError``,
    and so does one on which every replication would fail: ``n``, ``p``,
    ``reps``, ``seed`` or ``bootstrap_reps`` not an integer (a tuple of
    integers for the group cases), ``p < 1`` or ``seed < 0``.
    """

    case: str
    n: int | tuple[int, ...]
    p: int
    alternative: Alternative = Null()
    reps: int = 1000
    seed: int = 0
    methods: tuple[str, ...] = ("dt",)
    bootstrap_reps: int = 500
    alpha: float = 0.05

    def __post_init__(self):
        if self.case not in _CASE_IDS:
            raise InvalidScenarioError(f"unknown case {self.case!r}")
        for name in ("p", "reps", "seed", "bootstrap_reps"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise InvalidScenarioError(f"{name} must be an integer, got {value!r}") from None
        if self.p < 1:
            raise InvalidScenarioError("p must be >= 1")
        if self.reps < 1:
            raise InvalidScenarioError("reps must be >= 1")
        if self.seed < 0:
            raise InvalidScenarioError("seed must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidScenarioError("alpha must be in (0, 1)")
        object.__setattr__(self, "methods", tuple(self.methods))  # hashable: keys a cache
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise InvalidScenarioError(f"unknown methods {sorted(unknown)}")
        if "bc" in self.methods and self.bootstrap_reps < 1:
            raise InvalidScenarioError("bootstrap_reps must be >= 1")
        if HYPOTHESES[self.case].grouped:
            try:
                object.__setattr__(self, "n", tuple(map(operator.index, self.n)))
            except TypeError:
                raise InvalidScenarioError(
                    f"case {self.case} takes a sequence of integer group sizes") from None
            if len(self.n) < 2:
                raise InvalidScenarioError(f"case {self.case} needs at least two groups")
            sizes = self.n
        else:
            try:
                object.__setattr__(self, "n", operator.index(self.n))
            except TypeError:
                raise InvalidScenarioError(f"case {self.case} takes a single sample size") from None
            sizes = (self.n,)
        for n_i in sizes:
            if n_i < self.p + 2:
                raise InvalidScenarioError(f"need n >= p + 2 per group (got n={n_i}, p={self.p})")
        hypothesis_for(self)
        _scenario_factors(self)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return self.n if isinstance(self.n, tuple) else (self.n,)

    @property
    def n_total(self) -> int:
        return sum(self.group_sizes)


def default_blocks(p: int) -> tuple[int, int, int]:
    """Three block sizes in ratio 2:2:1 (exact when ``p`` divides by 5)."""
    if p < 3:
        raise InvalidScenarioError("block-independence scenarios need p >= 3")
    a = 2 * p // 5
    return (a, a, p - 2 * a)


@functools.lru_cache(maxsize=64)
def hypothesis_for(spec: ScenarioSpec) -> Hypothesis:
    """The null hypothesis object a scenario is testing, built once per
    cell."""
    if spec.case == "c2":
        return BlockIndependence(default_blocks(spec.p))
    if spec.case == "c5":
        return SpecifiedMeanCov(np.zeros(spec.p), np.eye(spec.p))
    return HYPOTHESES[spec.case]()


def _banded(p: int, value: float) -> np.ndarray:
    cov = np.eye(p)
    for off in (1, 2, 3):
        if off < p:
            idx = np.arange(p - off)
            cov[idx, idx + off] = value
            cov[idx + off, idx] = value
    return cov


def _band_count(p: int) -> int:
    # Ordered (i, j) positions with 0 < |i - j| <= 3.
    return 2 * sum(p - off for off in (1, 2, 3) if off < p)


def _case5_like_cov(p: int, alternative: Alternative, n_total: int) -> np.ndarray:
    if isinstance(alternative, Setting1):
        return _banded(p, 0.1)
    delta = alternative.delta
    u = 1.0 / math.sqrt(_band_count(p))
    return _banded(p, delta * u / math.sqrt(n_total))


def _half_ones(p: int, value: float) -> np.ndarray:
    mu = np.zeros(p)
    mu[: math.ceil(p / 2)] = value
    return mu


def scenario_params(spec: ScenarioSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-group ``(mean, covariance)`` pairs of the sampling distribution.

    Raises ``InvalidScenarioError`` when a requested alternative is not
    defined for this ``(p, k, delta, eta)``; :func:`_scenario_factors`
    checks that each covariance is positive definite.
    """
    p = spec.p
    alt = spec.alternative
    k = len(spec.group_sizes)
    n_total = spec.n_total
    zero = np.zeros(p)
    eye = np.eye(p)

    if isinstance(alt, Null):
        params = [(zero, eye) for _ in range(k)]
    elif spec.case == "c1":
        if isinstance(alt, Setting1):
            diag = np.ones(p)
            diag[: math.ceil(p / 2)] = 1.69
        elif isinstance(alt, Local):
            u = np.zeros(p)
            u[: math.ceil(p / 2)] = math.sqrt(2.0 / p)
            diag = 1.0 + alt.delta / math.sqrt(n_total) * u
        else:
            diag = np.full(p, 1.0 + alt.eta)
            diag[-1] = 1.0
        params = [(zero, np.diag(diag))]
    elif spec.case == "c2":
        ones = np.ones((p, p))
        if isinstance(alt, Setting1):
            cov = 0.15 * ones + 0.85 * eye
        elif isinstance(alt, Local):
            eta = alt.delta / math.sqrt(p * (p - 1) * n_total)
            if not 0.0 < eta < 1.0:
                raise InvalidScenarioError(f"local strength eta={eta} outside (0, 1)")
            cov = eta * ones + (1.0 - eta) * eye
        else:
            if not 0.0 < alt.eta < 1.0:
                raise InvalidScenarioError("extreme eta must lie in (0, 1)")
            cov = eye.copy()
            p1 = default_blocks(p)[0]
            cov[0, p1] = cov[p1, 0] = alt.eta
        params = [(zero, cov)]
    elif spec.case in ("c3", "c4"):
        if k != 3:
            raise InvalidScenarioError("non-null group scenarios are defined for k = 3")
        ones = np.ones((p, p))
        if spec.case == "c3" and isinstance(alt, Setting1):
            mu2 = np.full(p, 0.1)
            params = [
                (zero, 0.5 * ones + 0.5 * eye),
                (mu2, 0.6 * ones + 0.4 * eye),
                (mu2, 0.5 * ones + 0.31 * eye),
            ]
        elif spec.case == "c4" and isinstance(alt, Setting1):
            params = [(zero, eye), (zero, 1.21 * eye), (zero, 0.81 * eye)]
        elif isinstance(alt, Local):
            shift = alt.delta / math.sqrt(p * n_total)
            mu2 = np.full(p, shift) if spec.case == "c3" else zero
            cov2 = (1.0 + shift) * eye
            params = [(zero, eye), (mu2, cov2), (mu2, cov2)]
        else:
            mu2 = np.zeros(p)
            mu2[0] = 10.0 / math.sqrt(p * n_total)
            diag = np.ones(p)
            diag[0] = alt.eta
            cov2 = np.diag(diag)
            params = [(zero, eye), (mu2, cov2), (mu2, cov2)]
    elif spec.case == "c5":
        if isinstance(alt, Extreme):
            mu = _half_ones(p, 0.1)
            diag = np.ones(p)
            diag[0] = 1.0 - alt.eta
            cov = np.diag(diag)
        else:
            cov = _case5_like_cov(p, alt, n_total)
            if isinstance(alt, Setting1):
                mu = _half_ones(p, 0.1)
            else:
                mu = _half_ones(p, alt.delta * math.sqrt(2.0 / (p * n_total)))
        params = [(mu, cov)]
    else:  # c6
        if isinstance(alt, Extreme):
            if not 0.0 < alt.eta < 1.0:
                raise InvalidScenarioError("extreme eta must lie in (0, 1)")
            cov = eye.copy()
            cov[0, 1] = cov[1, 0] = alt.eta
        else:
            cov = _case5_like_cov(p, alt, n_total)
        params = [(zero, cov)]
    return params


@functools.lru_cache(maxsize=64)
def _scenario_factors(spec: ScenarioSpec) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-group ``(mean, Cholesky factor)`` of the sampling distribution,
    computed once per cell and read-only.  Raises ``InvalidScenarioError``
    for a covariance that is not positive definite."""
    try:
        factors = tuple((mu, SpdFactor(cov).chol) for mu, cov in scenario_params(spec))
    except NotPositiveDefiniteError as exc:
        raise InvalidScenarioError(f"scenario covariance is not positive definite: {exc}") from exc
    for mu, ell in factors:
        mu.flags.writeable = ell.flags.writeable = False
    return factors


def generate_scenario(spec: ScenarioSpec, rep_index: int, stream: int = _STREAM_MAIN):
    """Data for one replication, deterministic given ``(seed, rep_index)``.

    Returns a single matrix for one-sample cases and a list of per-group
    matrices for the group cases.
    """
    groups = sample_groups(_scenario_factors(spec), spec.group_sizes,
                           (spec.seed, _CASE_IDS[spec.case], stream, rep_index))
    return groups if HYPOTHESES[spec.case].grouped else groups[0]


def _replicate(spec: ScenarioSpec, rep_index: int, stream: int, e_w_hat: float | None) -> dict[str, float]:
    data = generate_scenario(spec, rep_index, stream)
    fit = fit_hypothesis(hypothesis_for(spec), data)
    out: dict[str, float] = {}
    if "dt" in spec.methods:
        out["dt"], _ = directional_pvalue(fit)
    classic = tuple(m for m in spec.methods if m != "dt")
    if classic:
        rep = classical_report(fit, classic, e_w_hat=e_w_hat)
        out.update(rep.pvalues)
    return out


def _worker(args):
    spec, rep_index, stream, e_w_hat = args
    try:
        return rep_index, _replicate(spec, rep_index, stream, e_w_hat), None
    except Exception as exc:  # one bad replication is recorded, never fatal to the study
        return rep_index, None, f"rep {rep_index}: {type(exc).__name__}: {exc}"


def _worker_cap() -> int:
    cap = os.environ.get("DIRNORMAL_THREADS")
    workers = os.cpu_count() or 1
    if cap:
        workers = min(workers, max(1, int(cap)))
    return workers


# The process pool (concurrent.futures.process, which loads multiprocessing)
# and ctypes are imported when the pool is first made: a study at one
# worker, or a process that only runs tests, never needs them.
_pool: ProcessPoolExecutor | None = None
_pool_lock = threading.Lock()
# The OpenBLAS copies that numpy and scipy bundle, as (package, library glob
# in the package's ``.libs`` directory, thread-count setter).
_OPENBLAS = (
    (np, "libscipy_openblas64_-*.so", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)


def _one_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread per worker, so the workers do
    not share the cores with each other's BLAS threads.  A library or
    symbol that is not there is skipped."""
    import ctypes

    for package, pattern, symbol in _OPENBLAS:
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in libs.glob(pattern):
            try:
                setter = getattr(ctypes.CDLL(str(path)), symbol)
            except (OSError, AttributeError):
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


def _drop_pool() -> None:
    """Exit hook: release the pool, whose workers concurrent.futures has
    joined by then, while the modules it needs are still loaded.  Imported
    after this module, concurrent.futures.process would be torn down first,
    and collecting the executor then reports an error."""
    global _pool
    _pool = None


atexit.register(_drop_pool)


def _map(fn, items: list):
    """``map(fn, items)``, in order: in this process at one worker, else on
    the process-wide pool.  The pool is replaced when the worker cap has
    changed or one of its workers has died."""
    global _pool
    cap = _worker_cap()
    workers = min(cap, len(items))
    if workers <= 1:
        return map(fn, items)
    with _pool_lock:
        # The executor sets _broken once one of its workers has died.
        if _pool is not None and (_pool._max_workers != cap or _pool._broken):
            _pool.shutdown(wait=True, cancel_futures=True)
            _pool = None
        if _pool is None:
            from concurrent.futures import ProcessPoolExecutor

            _pool = ProcessPoolExecutor(max_workers=cap, initializer=_one_blas_thread)
        return _pool.map(fn, items, chunksize=max(1, len(items) // (workers * 8)))


def _run_pass(spec: ScenarioSpec, stream: int, e_w_hat: float | None):
    pvals = {m: np.full(spec.reps, np.nan) for m in spec.methods}
    errors: list[str] = []
    for idx, row, err in _map(_worker, [(spec, i, stream, e_w_hat) for i in range(spec.reps)]):
        if err is not None:
            errors.append(err)
            continue
        for m, v in row.items():
            pvals[m][idx] = v
    return pvals, errors


def corrected_cutoff(null_pvalues: np.ndarray, alpha: float) -> float:
    """Empirical ``alpha``-quantile of null p-values (conservative on ties).

    NaN entries, failed replications, are left out.  The cutoff is the order
    statistic of rank ``ceil(alpha * R)`` among the ``R`` left, NaN if none
    is; using it as a strict rejection threshold reproduces the nominal
    level up to the quantile granularity ``1/R``.
    """
    u = np.sort(np.asarray(null_pvalues, dtype=float))
    u = u[~np.isnan(u)]
    if u.size == 0:
        return math.nan
    rank = max(1, math.ceil(alpha * u.size))
    return float(u[rank - 1])


def ks_uniformity(pvalues: np.ndarray) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic against U(0, 1).

    Returns ``(statistic, asymptotic_p_value)``.
    """
    u = np.sort(np.asarray(pvalues, dtype=float))
    n = u.size
    if n == 0:
        raise DimensionError("need at least one p-value")
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - u))
    d_minus = float(np.max(u - (i - 1) / n))
    stat = max(d_plus, d_minus)
    return stat, float(kolmogorov(math.sqrt(n) * stat))


@dataclass(frozen=True, eq=False)
class StudyResult:
    """Aggregates of one simulation study."""

    spec: ScenarioSpec
    pvalues: dict[str, np.ndarray]  # per-method, NaN at failed replications
    failures: int
    failure_messages: tuple[str, ...]
    elapsed_seconds: float
    e_w_hat: float | None = None  # shared Bartlett calibration, when BC ran
    estimated_type1: dict[str, float] | None = None
    ks_statistic: float | None = None
    ks_pvalue: float | None = None
    null_pvalues: dict[str, np.ndarray] | None = None
    corrected_cutoffs: dict[str, float] | None = None
    power: dict[str, float] | None = None
    corrected_power: dict[str, float] | None = None


def _mean_lrt(hyp: Hypothesis, factors, sizes, prefix: tuple[int, ...], reps: int) -> float:
    """Mean likelihood ratio statistic of ``hyp`` over ``reps`` samples of
    normal groups with ``(mean, Cholesky factor of the covariance)``
    ``factors`` and ``sizes`` rows.

    Draw ``b`` takes its groups from the stream keyed ``prefix + (b,)``.  The
    draws run through the worker pool and are summed in draw order, so the
    estimate is the same at any worker count.
    """
    # The partial carries the parameters to a worker once per chunk of draws.
    draw = functools.partial(_lrt_draw, hyp, factors, sizes, prefix)
    total = 0.0
    for w in _map(draw, range(reps)):
        total += w
    return total / reps


def _lrt_draw(hyp: Hypothesis, factors, sizes, prefix, b: int) -> float:
    groups = sample_groups(factors, sizes, prefix + (b,))
    return hyp.lrt(constrained_mle(hyp, [summarize(y) for y in groups]))


def calibrate_bartlett_expectation(spec: ScenarioSpec) -> float:
    """Mean likelihood ratio statistic over replications of the null.

    Shared across a study cell: under a simulation null the fit is known,
    so one calibration serves every replication and the Bartlett statistic
    becomes ``d * W / e_w_hat``.  Draw ``b`` uses the stream
    ``(seed, case id, 2, b)``.
    """
    null_spec = replace(spec, alternative=Null())
    return _mean_lrt(hypothesis_for(null_spec), _scenario_factors(null_spec), spec.group_sizes,
                     (spec.seed, _CASE_IDS[spec.case], _STREAM_BC), spec.bootstrap_reps)


def bartlett_bootstrap(fit: ConstrainedFit, reps: int, seed: int) -> float:
    """Parametric-bootstrap estimate of ``E(W)`` for the Bartlett correction.

    Averages the likelihood ratio statistic over ``reps`` data sets drawn
    from the fitted null (the constrained mean of each group, the shared
    constrained covariance, the observed group sizes).  Deterministic given
    ``seed``: draw ``b`` uses the stream ``(seed, 710, b)``.  Pass the result
    to ``classical_report(..., e_w_hat=...)``.  Raises ``ValueError`` for
    ``reps < 1``.
    """
    if reps < 1:
        raise ValueError(f"bootstrap reps must be >= 1, got {reps}")
    ell = fit.a_factor.chol  # the groups share the constrained covariance
    return _mean_lrt(fit.hypothesis, [(mu, ell) for mu in fit.mu0],
                     [s.n for s in fit.summaries], (seed, 710), reps)


def run_study(spec: ScenarioSpec) -> StudyResult:
    """Run a full simulation study for one scenario cell.

    Null scenarios report the estimated type I error at ``spec.alpha``, the
    uniformity diagnostic for the directional test, and the corrected
    cutoffs.  Alternative scenarios additionally run an independent null
    pass (its own replication streams) to calibrate corrected cutoffs, and
    report raw and corrected power.  Failed replications are recorded and
    excluded, never retried.
    """
    start = time.perf_counter()
    e_w_hat = calibrate_bartlett_expectation(spec) if "bc" in spec.methods else None
    pvals, errors = _run_pass(spec, _STREAM_MAIN, e_w_hat)

    # A method whose every replication failed has NaN rates and cutoffs.
    def rate(values: np.ndarray, threshold: float, strict: bool) -> float:
        good = values[~np.isnan(values)]
        if good.size == 0 or math.isnan(threshold):
            return math.nan
        return float(np.mean(good < threshold if strict else good <= threshold))

    estimated_type1 = None
    ks_stat = ks_p = None
    null_pvalues = None
    cutoffs = None
    power = None
    corrected_power = None

    if isinstance(spec.alternative, Null):
        estimated_type1 = {m: rate(v, spec.alpha, strict=False) for m, v in pvals.items()}
        cutoffs = {m: corrected_cutoff(v, spec.alpha) for m, v in pvals.items()}
        if "dt" in pvals and np.any(~np.isnan(pvals["dt"])):
            ks_stat, ks_p = ks_uniformity(pvals["dt"][~np.isnan(pvals["dt"])])
    else:
        null_spec = replace(spec, alternative=Null())
        null_pvalues, null_errors = _run_pass(null_spec, _STREAM_NULLCAL, e_w_hat)
        errors.extend(null_errors)
        cutoffs = {m: corrected_cutoff(v, spec.alpha) for m, v in null_pvalues.items()}
        power = {m: rate(v, spec.alpha, strict=False) for m, v in pvals.items()}
        corrected_power = {m: rate(v, cutoffs[m], strict=True) for m, v in pvals.items()}

    return StudyResult(
        spec=spec,
        pvalues=pvals,
        failures=len(errors),
        failure_messages=tuple(errors[:20]),
        elapsed_seconds=time.perf_counter() - start,
        e_w_hat=e_w_hat,
        estimated_type1=estimated_type1,
        ks_statistic=ks_stat,
        ks_pvalue=ks_p,
        null_pvalues=null_pvalues,
        corrected_cutoffs=cutoffs,
        power=power,
        corrected_power=corrected_power,
    )
