"""Each benchmark check passes the program's own output and rejects a
deliberately perturbed copy of it.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from dirnormal import cli  # noqa: E402
from dirnormal.classical import bartlett_rescale, classical_report  # noqa: E402
from dirnormal.directional import directional_pvalue  # noqa: E402
from dirnormal.hypotheses import (  # noqa: E402
    BlockIndependence,
    CompleteIndependence,
    EqualCovariances,
    EqualDistributions,
    ProportionalIdentity,
    SpecifiedMeanCov,
    ZeroPattern,
    fit_hypothesis,
)

P = 4
PAIRS = ((0, 2), (0, 3), (1, 3))
MU0 = np.array([0.1, -0.2, 0.0, 0.3])
LAMBDA0 = np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.5, 0.2, 0.0],
                    [0.0, 0.2, 1.0, 0.1], [0.0, 0.0, 0.1, 1.2]])


def _data(case, seed=5):
    rng = np.random.default_rng(seed)
    if case in ("c3", "c4"):
        return [rng.standard_normal((30, P)) + 0.1 * g for g in range(3)]
    return rng.standard_normal((30, P)) @ np.diag([1.0, 1.3, 0.8, 1.1]) + 0.2


def _fit_and_kwargs(case):
    data = _data(case)
    kw = {}
    if case == "c1":
        hyp = ProportionalIdentity()
    elif case == "c2":
        kw["blocks"] = (2, 2)
        hyp = BlockIndependence((2, 2))
    elif case == "c3":
        hyp = EqualDistributions()
    elif case == "c4":
        hyp = EqualCovariances()
    elif case == "c5":
        kw.update(mu0=MU0, lambda0=LAMBDA0)
        hyp = SpecifiedMeanCov(MU0, LAMBDA0)
    elif case == "c6":
        hyp = CompleteIndependence()
    else:
        hyp = ZeroPattern(PAIRS)
    fit = fit_hypothesis(hyp, data)
    if case == "pattern":
        kw["sigma0"] = fit.lambda0_inv
    return data, fit, kw


CASES = ("c1", "c2", "c3", "c4", "c5", "c6", "pattern")


@pytest.mark.parametrize("case", CASES)
def test_directional_check_rejects_shifted_pvalue(case):
    data, fit, kw = _fit_and_kwargs(case)
    path = checks.null_path(case, data, zero_pairs=PAIRS if case == "pattern" else None, **kw)
    p, _ = directional_pvalue(fit)
    assert checks.check_directional(case, p, path) == []
    shifted = p + 1e-4 if p < 0.5 else p - 1e-4
    assert checks.check_directional(case, shifted, path)


@pytest.mark.parametrize("case", CASES)
def test_lrt_check_rejects_shifted_statistic_and_pvalue(case):
    data, fit, kw = _fit_and_kwargs(case)
    rep = classical_report(fit, ("lrt",))
    w_ref = checks.lrt_statistic(case, data, **kw)
    d = checks.degrees_of_freedom(case, P, 3 if case in ("c3", "c4") else 1, kw.get("blocks"), PAIRS)
    assert d == fit.d
    p = rep.pvalues["lrt"]
    assert checks.check_lrt(case, w_ref, d, p, rep.w) == []
    assert checks.check_lrt(case, w_ref, d, p + 1e-4)
    assert checks.check_lrt(case, w_ref, d, p, rep.w * (1 + 1e-6))


def test_bartlett_check_rejects_shifted_pvalue():
    data, fit, _ = _fit_and_kwargs("c1")
    w = checks.lrt_statistic("c1", data)
    _, p_bc = bartlett_rescale(w, fit.d, 11.0)
    assert checks.check_bartlett("c1", w, fit.d, 11.0, p_bc) == []
    assert checks.check_bartlett("c1", w, fit.d, 11.0, p_bc + 1e-4)
    assert checks.check_bartlett("c1", w, fit.d, -1.0, p_bc)


def test_pattern_fit_check_rejects_perturbed_fit():
    data, fit, _ = _fit_and_kwargs("pattern")
    sigma0 = fit.lambda0_inv
    assert checks.check_pattern_fit("pattern", data, sigma0, PAIRS) == []
    off_free = sigma0.copy()
    off_free[0, 1] += 1e-4
    off_free[1, 0] += 1e-4
    assert checks.check_pattern_fit("pattern", data, off_free, PAIRS)
    # The unconstrained estimate matches every entry but is not sparse.
    assert checks.check_pattern_fit("pattern", data, checks.moments(data).cov, PAIRS)


def test_identity_check_rejects_one_changed_element():
    a = np.array([0.25, np.nan, 0.75, 0.125])
    assert checks.check_identical("x", a, a.copy()) == []
    b = a.copy()
    b[2] = np.nextafter(b[2], 1.0)
    assert checks.check_identical("x", a, b)
    assert checks.check_identical("x", a, a[:3])


def test_unit_interval_check():
    assert checks.check_unit_interval("x", [0.0, 0.5, 1.0, np.nan]) == []
    assert checks.check_unit_interval("x", [0.5, 1.0 + 1e-12])
    assert checks.check_unit_interval("x", [-1e-300, 0.5])


def test_uniformity_check():
    rng = np.random.default_rng(1)
    assert checks.check_uniform("x", rng.uniform(size=150)) == []
    assert checks.check_uniform("x", np.full(150, 0.5))
    assert checks.check_uniform("x", rng.uniform(size=150) * 0.5)


def test_report_check(tmp_path):
    y = _data("c6")
    data = tmp_path / "y.csv"
    data.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in y) + "\n")
    out = tmp_path / "r.json"
    assert cli.main(["test", "--case", "c6", "--data", str(data), "--out", str(out)]) == 0
    schema = json.loads((ROOT / "src/dirnormal/schemas/report-v1.json").read_text())
    report = json.loads(out.read_text())
    assert checks.check_report("r", report, schema) == []
    bad = json.loads(out.read_text())
    bad["methods"]["dt"]["p_value"] = 1.5
    assert checks.check_report("r", bad, schema)
    del bad["methods"]
    assert checks.check_report("r", bad, schema)


def test_tracer_restores_the_program():
    import tracer
    from dirnormal import directional, simulation

    before = (simulation.directional_pvalue, directional.DirectionalEvaluator.__dict__["log_gbar"])
    t = tracer.Tracer()
    _, fit, _ = _fit_and_kwargs("c1")
    with tracer.traced(t):
        p_traced, _ = simulation.directional_pvalue(fit)
    assert (simulation.directional_pvalue, directional.DirectionalEvaluator.__dict__["log_gbar"]) == before
    assert p_traced == directional_pvalue(fit)[0]
    (pv,) = [s for s in t.spans if s["name"] == tracer.PVALUE]
    assert pv["kind"] == "linear" and pv["log_gbar_calls"] > 0
    assert {s["name"] for s in t.spans} >= {"directional.evaluator", "directional.maximize"}
