"""Property tests over the nulls, the dimension, the sample size and the seed,
and of the CSV reader against a `csv.reader` loop."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _oracles import csv_reader_read_data, is_positive_definite, zero_pattern_kkt_residuals  # noqa: E402
from dirnormal.core import summarize  # noqa: E402
from dirnormal.directional import DirectionalEvaluator, directional_pvalue  # noqa: E402
from dirnormal.exceptions import ParseError  # noqa: E402
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
from dirnormal.report import read_data_csv  # noqa: E402

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


# -- CSV reading ---------------------------------------------------------------

_NUMBER = st.one_of(
    st.floats().map(repr),  # shortest round-trip, up to 17 digits, inf and nan
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(("inf", "-inf", "+inf", "Infinity", "nan", "-nan", "NaN")),
)
# \x0c, \x85 and \u2028 are whitespace to float() and line breaks to str.splitlines
_PAD = st.sampled_from(("", " ", "  ", "\t", "\x0c", "\x85", "\u2028"))
_BLANK_LINE = st.sampled_from(("", " ", "\t", ",", " , ", ",\t,", "\x0c"))
_NAME = st.text(alphabet='xyz1 ,"', min_size=1, max_size=5)


@st.composite
def _csv_file(draw):
    """A valid data file as ``(lines, data, endings, trailing)``:
    its lines without terminators, the indices of its data rows among them,
    one line ending per line, and whether the last line is terminated."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    quotes = draw(st.booleans())

    def cell(token):
        style = draw(st.sampled_from(("plain", "padded", "quoted") if quotes else ("plain", "padded")))
        if style == "quoted":
            return f'"{token}"'
        return draw(_PAD) + token + draw(_PAD) if style == "padded" else token

    def name(text):
        if not quotes:
            return text.replace('"', "x").replace(",", "y")
        if '"' in text or "," in text or draw(st.booleans()):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(cell(draw(_NUMBER)) for _ in range(cols)) for _ in range(rows)]
    if draw(st.booleans()):
        lines.insert(0, ",".join(name(draw(_NAME)) for _ in range(cols)))
    data = list(range(len(lines) - rows, len(lines)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(_BLANK_LINE))
        data = [i + (i >= at) for i in data]
    endings = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r")),
                            min_size=len(lines), max_size=len(lines)))
    return lines, data, endings, draw(st.booleans())


def _text(lines, endings, trailing) -> str:
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if trailing else text[: len(text) - len(endings[-1])]


def _read(reader, path):
    values, names = reader(path)
    return values.shape, values.tobytes(), names


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_csv_file())
def test_read_data_csv_matches_the_csv_reader(csv_path, case):
    lines, _, endings, trailing = case
    csv_path.write_bytes(_text(lines, endings, trailing).encode())
    assert _read(read_data_csv, csv_path) == _read(csv_reader_read_data, csv_path)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_csv_file(), st.sampled_from(("ragged", "cell")), st.data())
def test_read_data_csv_rejects_a_bad_row_on_its_physical_line(csv_path, case, fault, data):
    lines, rows, endings, trailing = case
    assume(len(rows) >= 2)  # a fault in the first data row changes the width or the header
    at = data.draw(st.sampled_from(rows[1:]))
    lines = list(lines)
    if fault == "ragged":
        lines[at] += ",1"
        where = ":"
    else:
        cells = lines[at].split(",")
        col = data.draw(st.integers(0, len(cells) - 1))
        cells[col] = "oops"
        lines[at] = ",".join(cells)
        where = f", column {col + 1}"
    text = _text(lines, endings, trailing)
    csv_path.write_bytes(text.encode())
    # universal newlines: a line ends at \n, \r\n or \r
    before = text[: sum(len(line) + len(end) for line, end in zip(lines[:at], endings))]
    line = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
    with pytest.raises(ParseError, match=f"line {line}{where}"):
        read_data_csv(csv_path)
    with pytest.raises(ParseError):
        csv_reader_read_data(csv_path)
