"""Property tests over the nulls, the dimension, the sample size and the seed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _oracles import zero_pattern_kkt_residuals  # noqa: E402
from dirnormal.core import summarize  # noqa: E402
from dirnormal.directional import DirectionalEvaluator, directional_pvalue  # noqa: E402
from dirnormal.hypotheses import (  # noqa: E402
    BlockIndependence,
    CompleteIndependence,
    EqualCovariances,
    EqualDistributions,
    ProportionalIdentity,
    SpecifiedMeanCov,
    ZeroPattern,
    fit_hypothesis,
    fit_zero_pattern,
)
from dirnormal.linalg import is_positive_definite  # noqa: E402

TAGS = ("c1", "c2", "c3", "c4", "c5", "c6", "pattern")
# Smallest p at which each null constrains something (d >= 1).
MIN_P = {"c1": 2, "c2": 2, "c3": 1, "c4": 1, "c5": 1, "c6": 2, "pattern": 2}


def _fit(tag: str, p: int, n: int, seed: int, alt: bool):
    """A fit of the null ``tag`` to normal data of size ``n`` per group, drawn
    from the standard normal or, with ``alt``, from a random mean and
    covariance."""
    rng = np.random.default_rng(seed)

    def draw():
        y = rng.standard_normal((n, p))
        if alt:
            y = y @ (np.eye(p) + 0.5 * rng.standard_normal((p, p))) + rng.standard_normal(p)
        return y

    if tag in ("c3", "c4"):
        hyp = EqualDistributions() if tag == "c3" else EqualCovariances()
        return fit_hypothesis(hyp, [draw() for _ in range(2)])
    if tag == "c2":
        hyp = BlockIndependence((1, p - 1))
    elif tag == "c5":
        hyp = SpecifiedMeanCov(np.zeros(p), np.eye(p))
    elif tag == "pattern":
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
        keep = rng.random(len(pairs)) < 0.5
        keep[rng.integers(len(pairs))] = True
        hyp = ZeroPattern(tuple(pair for pair, k in zip(pairs, keep) if k))
    else:
        hyp = ProportionalIdentity() if tag == "c1" else CompleteIndependence()
    return fit_hypothesis(hyp, draw())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    tag=st.sampled_from(TAGS),
    p=st.integers(1, 8),
    extra=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    alt=st.booleans(),
)
@example(tag="c6", p=2, extra=0, seed=0, alt=False)  # n = p + 2 and d = 1
@example(tag="c4", p=1, extra=0, seed=1, alt=True)  # p = 1, d = 1
@example(tag="c5", p=8, extra=0, seed=2, alt=False)
@example(tag="c3", p=8, extra=0, seed=3, alt=True)
@example(tag="pattern", p=8, extra=0, seed=4, alt=True)
def test_maximizer_finds_the_grid_maximum(tag, p, extra, seed, alt):
    p = max(p, MIN_P[tag])
    fit = _fit(tag, p, p + 2 + extra, seed, alt)
    ev = DirectionalEvaluator(fit)
    cap = ev.integration_cap()
    t_hat, peak_evals = ev.maximize(cap)
    grid = np.linspace(1e-9, cap * (1.0 - 1e-9), 2001)
    assert ev.log_gbar(t_hat) >= np.max(ev.log_gbar(grid)) - 1e-7
    assert peak_evals <= 10
    p_value, diag = directional_pvalue(fit)
    assert 0.0 <= p_value <= 1.0
    assert diag.peak_evals == peak_evals


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    p=st.integers(2, 10),
    zero_bits=st.lists(st.booleans(), min_size=45, max_size=45),
    extra=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=6, zero_bits=[False] * 45, extra=0, seed=0)  # empty pattern
@example(p=10, zero_bits=[True] * 45, extra=0, seed=1)  # every pair: primal
@example(p=10, zero_bits=[True] + [False] * 44, extra=0, seed=2)  # dual
@example(p=10, zero_bits=[False] + [True] * 44, extra=40, seed=3)  # primal
@example(p=4, zero_bits=[True] * 5 + [False] * 40, extra=0, seed=4)  # tie: 5 against 5
def test_zero_pattern_fit_is_optimal(p, zero_bits, extra, seed):
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    zeros = tuple(pair for pair, bit in zip(pairs, zero_bits) if bit)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((p + 2 + extra, p)) @ (np.eye(p) + 0.5 * rng.standard_normal((p, p)))
    v = summarize(y * rng.uniform(0.1, 10.0, p)).mle_cov
    fitted = fit_zero_pattern(v, zeros)
    np.testing.assert_array_equal(fitted, fitted.T)
    assert is_positive_definite(fitted)
    assert max(zero_pattern_kkt_residuals(v, zeros, fitted)) <= 1e-10
