"""Monte Carlo harness: scenario generators, parallel replication runner,
size/power summaries and uniformity diagnostics.  One table, ``CASES``,
says what each study case is (see ``_Case``).

Replications are independent work items.  Every random stream is keyed by
``(master seed, case id, stream id, replication index)`` through a
counter-based generator, so results are bit-identical under any execution
order or degree of parallelism.  The worker count is capped by the
``DIRNORMAL_THREADS`` environment variable (default: ``os.cpu_count()``).

At a cap of one, every replication and Bartlett calibration draw runs in
the calling process, with its own OpenBLAS thread count, and neither
``multiprocessing`` nor ``concurrent.futures.process`` is imported.
Above one, the calling process is one of the cap processes: each pass is
cut into one contiguous block of items per process, the caller runs the
first and a process pool of ``cap - 1`` workers runs one other block
each.  Every block runs one OpenBLAS thread; the caller's own count is
restored when its block ends.  The pool is shared by the whole process:
it is forked the first time a pass needs it, reused by every later pass
and study, replaced when the cap changes or a worker has died, and shut
down at interpreter exit.  Workers are forked once, so they do not see
functions patched in the parent after that; the caller's block does.
"""

from __future__ import annotations

import atexit
import collections
import functools
import math
import operator
import os
import threading
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy
from scipy.special import kolmogorov

from .classical import CLASSICAL_METHODS, classical_report
from .core import sample_groups, summarize
from .directional import directional_pvalue
from .exceptions import DimensionError, InvalidScenarioError, NotPositiveDefiniteError, SettingError
from .hypotheses import (HYPOTHESES, BlockIndependence, CompleteIndependence, ConstrainedFit,
                         EqualCovariances, EqualDistributions, Hypothesis, ProportionalIdentity,
                         SpecifiedMeanCov, constrained_mle, fit_hypothesis)
from .linalg import SpdFactor

__all__ = [
    "Null",
    "Setting1",
    "Local",
    "Extreme",
    "ALTERNATIVES",
    "CASES",
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


ALTERNATIVES = {"null": Null, "setting1": Setting1, "local": Local, "extreme": Extreme}


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell.

    ``n`` is a single size for the one-sample cases and a tuple of group
    sizes for the group cases.  ``methods`` selects which tests run per
    replication; ``bootstrap_reps`` sizes the Bartlett calibration.  A cell
    with no null or no sampling distribution raises ``InvalidScenarioError``,
    and so does one on which every replication would fail: ``n``, ``p``,
    ``reps``, ``seed`` or ``bootstrap_reps`` not an integer (a tuple of
    integers for the group cases), ``p < 1`` or ``seed < 0``, and a null
    with no degrees of freedom (c1 and c6 at ``p = 1``), whose every
    p-value would be 1.
    """

    case: str
    n: int | tuple[int, ...]
    p: int
    alternative: Null | Setting1 | Local | Extreme = Null()
    reps: int = 1000
    seed: int = 0
    methods: tuple[str, ...] = ("dt",)
    bootstrap_reps: int = 500
    alpha: float = 0.05

    def __post_init__(self):
        if self.case not in CASES:
            raise InvalidScenarioError(f"unknown case {self.case!r}; the study cases are {', '.join(CASES)}")
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
        d = hypothesis_for(self).degrees_of_freedom(self.p, len(sizes))
        _scenario_factors(self)
        if d < 1:
            raise InvalidScenarioError(f"case {self.case} at p={self.p} tests nothing: its null has d = {d}")

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


def _half(p: int, value: float, rest: float = 0.0) -> np.ndarray:
    """A p-vector holding ``value`` in its first ``ceil(p / 2)`` entries and ``rest`` after."""
    v = np.full(p, rest)
    v[: math.ceil(p / 2)] = value
    return v


def _correlated(p: int) -> int:
    """``p``, checked to leave an off-diagonal entry for a correlation alternative to move."""
    if p < 2:
        raise InvalidScenarioError("correlation alternatives need p >= 2")
    return p


def _unit(p: int, i: int, j: int, value: float) -> np.ndarray:
    """The identity of order ``p`` with ``value`` at ``(i, j)`` and ``(j, i)``."""
    cov = np.eye(p)
    cov[i, j] = cov[j, i] = value
    return cov


def _equicorrelated(p: int, rho: float) -> np.ndarray:
    return rho * np.ones((p, p)) + (1.0 - rho) * np.eye(p)


def _banded(p: int, value: float) -> np.ndarray:
    """The identity of order ``p`` with ``value`` at every ``(i, j)`` with ``0 < |i - j| <= 3``."""
    offset = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return np.where(offset == 0, 1.0, np.where(offset <= 3, value, 0.0))


def _local_band(p: int, n: int, delta: float) -> np.ndarray:
    """``_banded`` at ``delta / sqrt(n)`` spread evenly over its band: the local alternative of c5, c6."""
    u = 1.0 / math.sqrt(np.count_nonzero(_banded(_correlated(p), 1.0)) - p)
    return _banded(p, delta * u / math.sqrt(n))


def _in_unit_interval(eta: float) -> float:
    if not 0.0 < eta < 1.0:
        raise InvalidScenarioError(f"strength eta={eta} outside (0, 1)")
    return eta


def _null(p: int, n: int) -> list:
    return [(np.zeros(p), np.eye(p))]


def _groups_local(p: int, n: int, delta: float, shift_mean: bool) -> list:
    shift = delta / math.sqrt(p * n)
    mu2 = np.full(p, shift) if shift_mean else np.zeros(p)
    cov2 = (1.0 + shift) * np.eye(p)
    return [(np.zeros(p), np.eye(p)), (mu2, cov2), (mu2, cov2)]


def _groups_extreme(p: int, n: int, eta: float) -> list:
    mu2 = np.r_[10.0 / math.sqrt(p * n), np.zeros(p - 1)]
    cov2 = _unit(p, 0, 0, eta)
    return [(np.zeros(p), np.eye(p)), (mu2, cov2), (mu2, cov2)]


class _Case(NamedTuple):
    """One study case: the id of its random streams, its null at ``p`` and, per alternative
    class but ``Null``, a rule ``(p, total sample size n, *the alternative's fields)`` giving
    one ``(mean, covariance)`` per group, or one that every group shares."""

    stream: int
    null: Callable[[int], Hypothesis]
    rules: dict[type, Callable[..., list]]


CASES = {
    "c1": _Case(1, lambda p: ProportionalIdentity(), {
        Setting1: lambda p, n: [(np.zeros(p), np.diag(_half(p, 1.69, 1.0)))],
        Local: lambda p, n, delta: [
            (np.zeros(p), np.diag(1.0 + delta / math.sqrt(n) * _half(p, math.sqrt(2.0 / p))))],
        Extreme: lambda p, n, eta: [(np.zeros(p), np.diag(np.append(np.full(p - 1, 1.0 + eta), 1.0)))],
    }),
    "c2": _Case(2, lambda p: BlockIndependence(default_blocks(p)), {
        Setting1: lambda p, n: [(np.zeros(p), _equicorrelated(p, 0.15))],
        Local: lambda p, n, delta: [(np.zeros(p), _equicorrelated(
            _correlated(p), _in_unit_interval(delta / math.sqrt(p * (p - 1) * n))))],
        Extreme: lambda p, n, eta: [(np.zeros(p), _unit(p, 0, default_blocks(p)[0], _in_unit_interval(eta)))],
    }),
    "c3": _Case(3, lambda p: EqualDistributions(), {
        Setting1: lambda p, n: [(np.zeros(p), _equicorrelated(p, 0.5)),
                                (np.full(p, 0.1), _equicorrelated(p, 0.6)),
                                (np.full(p, 0.1), 0.5 * np.ones((p, p)) + 0.31 * np.eye(p))],
        Local: functools.partial(_groups_local, shift_mean=True),
        Extreme: _groups_extreme,
    }),
    "c4": _Case(4, lambda p: EqualCovariances(), {
        Setting1: lambda p, n: [(np.zeros(p), s * np.eye(p)) for s in (1.0, 1.21, 0.81)],
        Local: functools.partial(_groups_local, shift_mean=False),
        Extreme: _groups_extreme,
    }),
    "c5": _Case(5, lambda p: SpecifiedMeanCov(np.zeros(p), np.eye(p)), {
        Setting1: lambda p, n: [(_half(p, 0.1), _banded(p, 0.1))],
        Local: lambda p, n, delta: [(_half(p, delta * math.sqrt(2.0 / (p * n))), _local_band(p, n, delta))],
        Extreme: lambda p, n, eta: [(_half(p, 0.1), _unit(p, 0, 0, 1.0 - eta))],
    }),
    "c6": _Case(6, lambda p: CompleteIndependence(), {
        Setting1: lambda p, n: [(np.zeros(p), _banded(p, 0.1))],
        Local: lambda p, n, delta: [(np.zeros(p), _local_band(p, n, delta))],
        Extreme: lambda p, n, eta: [(np.zeros(p), _unit(_correlated(p), 0, 1, _in_unit_interval(eta)))],
    }),
}


@functools.lru_cache(maxsize=64)
def hypothesis_for(spec: ScenarioSpec) -> Hypothesis:
    """The null hypothesis object a scenario is testing, built once per
    cell."""
    return CASES[spec.case].null(spec.p)


def scenario_params(spec: ScenarioSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-group ``(mean, covariance)`` pairs of the sampling distribution.

    Raises ``InvalidScenarioError`` when a requested alternative is not
    defined for this ``(p, k, delta, eta)``; :func:`_scenario_factors`
    checks that each covariance is finite and positive definite.
    """
    alt = spec.alternative
    rule = {Null: _null, **CASES[spec.case].rules}[type(alt)]
    pairs = rule(spec.p, spec.n_total, *astuple(alt))
    k = len(spec.group_sizes)
    if len(pairs) == 1:
        return pairs * k
    if len(pairs) != k:
        raise InvalidScenarioError(f"non-null group scenarios are defined for k = {len(pairs)}")
    return pairs


@functools.lru_cache(maxsize=64)
def _scenario_factors(spec: ScenarioSpec) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-group ``(mean, Cholesky factor)`` of the sampling distribution,
    computed once per cell and read-only.  Raises ``InvalidScenarioError``
    for an entry that is not finite (from a NaN, infinite or overflowing
    strength) and for a covariance that is not positive definite."""
    params = scenario_params(spec)
    if not all(np.isfinite(mu).all() and np.isfinite(cov).all() for mu, cov in params):
        raise InvalidScenarioError(f"scenario parameters are not finite under {spec.alternative}")
    try:
        factors = tuple((mu, SpdFactor(cov).chol) for mu, cov in params)
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
                           (spec.seed, CASES[spec.case].stream, stream, rep_index))
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
        return rep_index, None, (type(exc).__name__, f"rep {rep_index}: {type(exc).__name__}: {exc}")


def _worker_cap() -> int:
    cap = os.environ.get("DIRNORMAL_THREADS")
    workers = os.cpu_count() or 1
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise SettingError(f"DIRNORMAL_THREADS must be an integer, got {cap!r}") from None
    return workers


# The process pool (concurrent.futures.process, which loads multiprocessing)
# and ctypes are imported the first time a pass runs above one worker: a
# study at one worker, or a process that only runs tests, never needs them.
_pool: ProcessPoolExecutor | None = None
_pool_lock = threading.Lock()
# The OpenBLAS copies that numpy and scipy bundle, as (package, library glob
# in the package's ``.libs`` directory, thread-count setter); the getter's
# name has ``_get_`` for ``_set_``.
_OPENBLAS = (
    (np, "libscipy_openblas64_-*.so", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _blas_controls(openblas) -> tuple:
    """``(getter, setter)`` of the thread count of each library that
    ``openblas`` (an ``_OPENBLAS`` table) names.  A library or symbol that
    is not there is skipped."""
    import ctypes

    controls = []
    for package, pattern, symbol in openblas:
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in libs.glob(pattern):
            try:
                lib = ctypes.CDLL(str(path))
                setter, getter = getattr(lib, symbol), getattr(lib, symbol.replace("_set_", "_get_"))
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            controls.append((getter, setter))
    return tuple(controls)


def _one_blas_thread() -> list:
    """Set one OpenBLAS thread in this process, so that the processes of a
    pass do not share the cores with each other's BLAS threads.  Returns
    ``(setter, previous count)`` pairs that undo it.  Runs once in each
    pool worker, as its initializer, and around the calling process's
    block of every pass."""
    undo = []
    for getter, setter in _blas_controls(_OPENBLAS):
        undo.append((setter, getter()))
        setter(1)
    return undo


def _drop_pool() -> None:
    """Exit hook: release the pool, whose workers concurrent.futures has
    joined by then, while the modules it needs are still loaded.  Imported
    after this module, concurrent.futures.process would be torn down first,
    and collecting the executor then reports an error."""
    global _pool
    _pool = None


atexit.register(_drop_pool)


def _run_block(fn, block) -> list:
    """One process's block of a pass."""
    return [fn(item) for item in block]


def _map(fn, items):
    """``map(fn, items)``, in order.

    At one worker, or with one item, this is the builtin ``map`` in this
    process.  Otherwise the items are cut into ``min(cap, len(items))``
    contiguous blocks, one per process.  This process runs the first block
    under one OpenBLAS thread and then restores its own count; each other
    block is one task on the process-wide pool of ``cap - 1`` workers.  A
    block that raises is re-raised once every other block has finished or
    been cancelled.  The pool is replaced when the worker cap has changed
    or one of its workers has died.
    """
    global _pool
    cap = _worker_cap()
    workers = min(cap, len(items))
    if workers <= 1:
        return map(fn, items)
    bounds = [len(items) * b // workers for b in range(workers + 1)]
    blocks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with _pool_lock:
        # The executor sets _broken once one of its workers has died.
        if _pool is not None and (_pool._max_workers != cap - 1 or _pool._broken):
            _pool.shutdown(wait=True, cancel_futures=True)
            _pool = None
        from concurrent.futures import ProcessPoolExecutor, wait

        if _pool is None:
            _pool = ProcessPoolExecutor(max_workers=cap - 1, initializer=_one_blas_thread)
        futures = [_pool.submit(_run_block, fn, block) for block in blocks[1:]]
    try:
        undo = _one_blas_thread()
        try:
            out = _run_block(fn, blocks[0])
        finally:
            for setter, count in undo:
                setter(count)
        for future in futures:
            out.extend(future.result())
        return out
    finally:
        for future in futures:
            future.cancel()
        wait(futures)  # for the blocks that were already running


def _run_pass(spec: ScenarioSpec, stream: int, e_w_hat: float | None):
    pvals = {m: np.full(spec.reps, np.nan) for m in spec.methods}
    errors: list[tuple[str, str]] = []  # (exception class, message) per failed replication
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
    failure_messages: tuple[str, ...]  # the first 20
    failure_counts: dict[str, int]  # failed replications per exception class name
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
    # The partial carries the parameters to a worker once per block of draws.
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
                     (spec.seed, CASES[spec.case].stream, _STREAM_BC), spec.bootstrap_reps)


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
        failure_messages=tuple(message for _, message in errors[:20]),
        failure_counts=dict(sorted(collections.Counter(name for name, _ in errors).items())),
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
