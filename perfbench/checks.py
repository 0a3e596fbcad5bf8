"""Output checks made apart from the program.

Nothing here imports ``dirnormal``: every reference value is rebuilt from
raw data with numpy, scipy and jsonschema, so a fault in the program cannot
hide itself by being shared with its check.  Each ``check_*`` function
returns a list of failure messages; an empty list means the output passed.

The directional reference assembles the tilted covariance of every group,

    ``Sigma_g(t) = (1 - t) A + t B_g + t (1 - t) b_g b_g'``,

takes ``numpy.linalg.slogdet`` of it on a grid of ``t`` and integrates

    ``log g(t) = sum_g (n_g - p - 2)/2 log det Sigma_g(t) + slope t + (d - 1) log t``

by composite Gauss-Legendre over a region located by its own zooming grid
scan, never by the engine's interval.  The ``(A, B, b, slope)`` of each
case are in :func:`null_path`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy import stats

# Absolute tolerance on a directional p-value (acceptance criterion 9).
PVALUE_TOL = 1e-6
# Relative tolerance on a likelihood ratio statistic and its p-values.
STAT_RTOL = 1e-8
# Relative tolerance on the optimality conditions of the zero-pattern fit.
FIT_RTOL = 1e-7
# A pooled sample of null directional p-values fails below this KS p-value.
KS_MIN_P = 1e-4

GROUP_CASES = ("c3", "c4")


@dataclass(frozen=True)
class Moments:
    n: int
    ybar: np.ndarray
    cov: np.ndarray  # maximum likelihood covariance, divisor n
    second: np.ndarray  # y'y / n


def moments(y) -> Moments:
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    ybar = y.mean(axis=0)
    c = y - ybar
    return Moments(n, ybar, c.T @ c / n, y.T @ y / n)


def _logdet(m: np.ndarray) -> float:
    sign, ld = np.linalg.slogdet(m)
    if sign <= 0:
        raise ValueError("matrix is not positive definite")
    return float(ld)


def _sym_root(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(vals)) @ vecs.T


def degrees_of_freedom(case: str, p: int, k: int = 1, blocks=None, zero_pairs=None) -> int:
    full = p * (p + 1) // 2
    if case == "c1":
        return full - 1
    if case == "c2":
        return full - sum(s * (s + 1) // 2 for s in blocks)
    if case == "c3":
        return p * (p + 3) * (k - 1) // 2
    if case == "c4":
        return p * (p + 1) * (k - 1) // 2
    if case == "c5":
        return p * (p + 3) // 2
    if case == "c6":
        return p * (p - 1) // 2
    return len({(min(i, j), max(i, j)) for i, j in zero_pairs})


def standardized(y, mu0, lambda0) -> np.ndarray:
    """Data of the c5 null moved to zero mean and identity covariance.

    Any square root ``R`` of the null concentration works, because
    ``R' inv(lambda0) R = I``; this uses the symmetric one.
    """
    return (np.asarray(y, dtype=float) - np.asarray(mu0, dtype=float)) @ _sym_root(lambda0)


def null_covariance(case: str, groups: list[Moments], blocks=None, sigma0=None) -> np.ndarray:
    """Constrained maximum likelihood covariance of each null (c5 excluded)."""
    v = groups[0].cov
    p = v.shape[0]
    if case == "c1":
        return np.trace(v) / p * np.eye(p)
    if case == "c2":
        out = np.zeros_like(v)
        edges = np.cumsum([0, *blocks])
        for a, b in zip(edges[:-1], edges[1:]):
            out[a:b, a:b] = v[a:b, a:b]
        return out
    if case == "c6":
        return np.diag(np.diag(v))
    if case == "pattern":
        return np.asarray(sigma0, dtype=float)
    n_total = sum(g.n for g in groups)
    if case == "c4":
        return sum(g.n * g.cov for g in groups) / n_total
    # c3: one mean and one covariance for all groups
    ybar = sum(g.n * g.ybar for g in groups) / n_total
    return sum(g.n * g.second for g in groups) / n_total - np.outer(ybar, ybar)


@dataclass(frozen=True)
class Path:
    """The tilted covariance path of one fitted data set."""

    terms: tuple  # (weight, A, B, b or None) per group
    slope: float
    d: int


def null_path(case: str, data, *, blocks=None, sigma0=None, mu0=None, lambda0=None,
              zero_pairs=None) -> Path:
    """Path of a data set under the null of ``case``.

    ``data`` is one observations-by-variables matrix, or a list of them for
    c3 and c4.  c2 needs ``blocks``; c5 needs ``mu0`` and the null
    concentration ``lambda0``; ``pattern`` needs the fitted covariance
    ``sigma0`` (checked on its own by :func:`check_pattern_fit`) and the
    ``zero_pairs``.
    """
    mats = list(data) if case in GROUP_CASES else [data]
    if case == "c5":
        mats = [standardized(mats[0], mu0, lambda0)]
    groups = [moments(y) for y in mats]
    p = groups[0].cov.shape[0]
    d = degrees_of_freedom(case, p, len(groups), blocks, zero_pairs)
    weights = [0.5 * (g.n - p - 2) for g in groups]
    if case == "c5":
        g = groups[0]
        slope = 0.5 * g.n * (p - float(np.trace(g.second)))
        return Path(((weights[0], np.eye(p), g.cov, g.ybar),), slope, d)
    a = null_covariance(case, groups, blocks, sigma0)
    if case == "c3":
        n_total = sum(g.n for g in groups)
        ybar = sum(g.n * g.ybar for g in groups) / n_total
        terms = tuple((w, a, g.cov, g.ybar - ybar) for w, g in zip(weights, groups))
    else:
        terms = tuple((w, a, g.cov, None) for w, g in zip(weights, groups))
    return Path(terms, 0.0, d)


def log_g(path: Path, ts, chunk: int = 256) -> np.ndarray:
    """Log radial integrand on an array of ``t > 0``; ``-inf`` off the
    positive definite range."""
    ts = np.asarray(ts, dtype=float)
    out = path.slope * ts + ((path.d - 1) * np.log(ts) if path.d > 1 else 0.0)
    for w, a, bm, b in path.terms:
        outer = None if b is None else np.outer(b, b)
        for start in range(0, ts.size, chunk):
            t = ts[start:start + chunk, None, None]
            mats = (1.0 - t) * a + t * bm
            if outer is not None:
                mats = mats + t * (1.0 - t) * outer
            sign, ld = np.linalg.slogdet(mats)
            out[start:start + chunk] += np.where(sign > 0, w * ld, -np.inf)
    return out


def _positive_definite(path: Path, t: float) -> bool:
    for _, a, bm, b in path.terms:
        m = (1.0 - t) * a + t * bm
        if b is not None:
            m = m + t * (1.0 - t) * np.outer(b, b)
        if np.linalg.eigvalsh(m)[0] <= 0.0:
            return False
    return True


def feasible_sup(path: Path) -> float:
    """Largest ``t`` with every tilted covariance positive definite."""
    if all(b is None for _, _, _, b in path.terms):
        nu = min(float(sla.eigh(bm, a, eigvals_only=True)[0]) for _, a, bm, _ in path.terms)
        return 1.0 / (1.0 - nu) if nu < 1.0 else math.inf
    lo, hi = 1.0, 2.0
    while _positive_definite(path, hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e8:
            return math.inf
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _positive_definite(path, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _upper_limit(path: Path) -> float:
    """Where an unbounded integrand has dropped 80 units below its running
    maximum."""
    t, g_run = 2.0, float(log_g(path, np.array([1.0]))[0])
    while t < 1e12:
        g_t = float(log_g(path, np.array([t]))[0])
        g_run = max(g_run, g_t)
        if g_t < g_run - 80.0:
            return t
        t *= 2.0
    raise ValueError("integrand does not decay")


def dense_pvalue(path: Path, grid: int = 257, panels: int = 24, nodes: int = 16,
                 drop: float = 70.0) -> float:
    """Directional p-value ``int_1^T g / int_0^T g`` by dense quadrature.

    A grid scan over the whole feasible range is zoomed onto the region
    where ``log g`` lies within ``drop`` of its maximum until that region
    spans at least 64 grid points; both integrals then use ``panels``
    Gauss-Legendre panels of ``nodes`` nodes on each side of ``t = 1``.
    """
    top = feasible_sup(path)
    lo, hi = 0.0, top if math.isfinite(top) else _upper_limit(path)
    for _ in range(16):
        ts = np.linspace(lo, hi, grid)[1:-1]
        g = log_g(path, ts)
        g_max = float(np.max(g))
        kept = np.nonzero(g > g_max - drop)[0]
        first, last = int(kept[0]), int(kept[-1])
        lo = ts[first - 1] if first > 0 else lo
        hi = ts[last + 1] if last < ts.size - 1 else hi
        if last - first >= 64:
            break
    x, w = np.polynomial.legendre.leggauss(nodes)

    def integral(a: float, b: float) -> float:
        if b <= a:
            return 0.0
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        vals = np.exp(log_g(path, t) - g_max).reshape(panels, nodes)
        return float(np.sum(vals * w[None, :] * half[:, None]))

    upper = integral(max(1.0, lo), hi)
    lower = integral(lo, min(1.0, hi))
    return upper / (upper + lower)


def check_directional(label: str, p_program: float, path: Path, tol: float = PVALUE_TOL) -> list[str]:
    p_ref = dense_pvalue(path)
    if not abs(p_program - p_ref) <= tol:
        return [f"{label}: directional p-value {p_program!r} differs from the dense "
                f"quadrature {p_ref!r} by more than {tol}"]
    return []


def lrt_statistic(case: str, data, *, blocks=None, sigma0=None, mu0=None, lambda0=None) -> float:
    """Likelihood ratio statistic ``W`` of one data set.

    c4 uses the bias-adjusted pooled form (divisors ``n_g - 1`` and
    ``n - k``).  c5 weights ``log det V`` by ``n - 1``, as the program's
    ``classical.lrt`` does.  Every other case is twice the drop of the
    maximized log-likelihood.
    """
    mats = list(data) if case in GROUP_CASES else [data]
    if case == "c5":
        g = moments(standardized(mats[0], mu0, lambda0))
        p = g.cov.shape[0]
        return g.n * float(np.trace(g.second)) - (g.n - 1) * _logdet(g.cov) - g.n * p
    groups = [moments(y) for y in mats]
    if case == "c4":
        k = len(groups)
        n_total = sum(g.n for g in groups)
        pooled = sum(g.n * g.cov for g in groups) / (n_total - k)
        return sum((g.n - 1) * (_logdet(pooled) - _logdet(g.n * g.cov / (g.n - 1))) for g in groups)
    s0 = null_covariance(case, groups, blocks, sigma0)
    n_total = sum(g.n for g in groups)
    return n_total * _logdet(s0) - sum(g.n * _logdet(g.cov) for g in groups)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def check_lrt(label: str, w_ref: float, d: int, p_program: float, w_program: float | None = None,
              rtol: float = STAT_RTOL) -> list[str]:
    """The program's ``W`` (when it reports one) and its chi-square p-value."""
    out = []
    if w_program is not None and not _close(w_program, w_ref, rtol):
        out.append(f"{label}: LRT statistic {w_program!r} differs from {w_ref!r}")
    p_ref = float(stats.chi2.sf(w_ref, d))
    if not _close(p_program, p_ref, rtol):
        out.append(f"{label}: LRT p-value {p_program!r} differs from chi2.sf = {p_ref!r}")
    return out


def check_bartlett(label: str, w_ref: float, d: int, e_w_hat: float, p_program: float,
                   rtol: float = STAT_RTOL) -> list[str]:
    """The rescaled p-value equals ``chi2.sf(d W / e_w_hat)``."""
    if not e_w_hat > 0.0:
        return [f"{label}: Bartlett calibration E(W) = {e_w_hat!r} is not positive"]
    p_ref = float(stats.chi2.sf(d * w_ref / e_w_hat, d))
    if not _close(p_program, p_ref, rtol):
        return [f"{label}: Bartlett p-value {p_program!r} differs from {p_ref!r}"]
    return []


def check_pattern_fit(label: str, y, sigma0, zero_pairs, rtol: float = FIT_RTOL) -> list[str]:
    """Optimality of a zero-pattern fit: the fitted concentration vanishes
    on the pattern, and the fitted covariance equals the sample covariance
    on the diagonal and on every free pair."""
    s = moments(y).cov
    sigma0 = np.asarray(sigma0, dtype=float)
    p = s.shape[0]
    zero = np.zeros((p, p), dtype=bool)
    for i, j in zero_pairs:
        zero[i, j] = zero[j, i] = True
    out = []
    if np.linalg.eigvalsh(sigma0)[0] <= 0.0:
        return [f"{label}: fitted covariance is not positive definite"]
    conc = np.linalg.inv(sigma0)
    worst_conc = float(np.max(np.abs(conc[zero]), initial=0.0))
    if worst_conc > rtol * float(np.max(np.abs(conc))):
        out.append(f"{label}: fitted concentration is {worst_conc:.3e} on the zero pattern")
    worst_cov = float(np.max(np.abs((sigma0 - s)[~zero])))
    if worst_cov > rtol * float(np.max(np.abs(s))):
        out.append(f"{label}: fitted covariance misses the sample covariance by {worst_cov:.3e} "
                   "on a free entry")
    return out


def check_unit_interval(label: str, values) -> list[str]:
    v = np.asarray(values, dtype=float).ravel()
    v = v[~np.isnan(v)]
    bad = v[(v < 0.0) | (v > 1.0)]
    if bad.size:
        return [f"{label}: {bad.size} p-values outside [0, 1], e.g. {float(bad[0])!r}"]
    return []


def check_identical(label: str, a, b) -> list[str]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        return [f"{label}: arrays are not bitwise identical"]
    return []


def check_uniform(label: str, values, min_p: float = KS_MIN_P) -> list[str]:
    v = np.asarray(values, dtype=float)
    res = stats.kstest(v, "uniform")
    if not res.pvalue >= min_p:
        return [f"{label}: KS uniformity p = {res.pvalue:.3e} over {v.size} null p-values"]
    return []


def check_report(label: str, report: dict, schema: dict) -> list[str]:
    """Validation against the ``report-v1`` JSON schema."""
    import jsonschema

    validator = jsonschema.Draft7Validator(schema)
    return [f"{label}: report-v1: {err.message}" for err in validator.iter_errors(report)]
