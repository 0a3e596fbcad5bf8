"""The benchmark's tracer swaps the attributes through which the layers of
dirnormal call each other.  These tests fail in the unit suite, not in a
benchmark run, when one of those attributes is renamed or bypassed."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
from dirnormal import cli  # noqa: E402
from dirnormal.report import write_data_csv  # noqa: E402
from dirnormal.simulation import METHODS, ScenarioSpec, run_study  # noqa: E402


def _hooks():
    # a missing attribute raises KeyError here, as it does in traced()
    return [owner.__dict__[attr] for owner, attr, _ in tracer._targets()]


def test_tracer_wraps_every_hook_and_restores_it(tmp_path, monkeypatch):
    monkeypatch.setenv("DIRNORMAL_THREADS", "1")
    data, zeros, out = tmp_path / "y.csv", tmp_path / "zeros.csv", tmp_path / "r.json"
    write_data_csv(data, np.random.default_rng(94).standard_normal((30, 4)))
    zeros.write_text("1,3\n2,4\n1,4\n", encoding="utf-8")
    before = _hooks()
    t = tracer.Tracer()
    with tracer.traced(t):
        assert all(a is not b for a, b in zip(_hooks(), before))
        # a quadratic-path null through the simulator, all five methods, and
        # a linear-path null with a fitted pattern through the CLI
        run_study(ScenarioSpec(case="c5", n=12, p=3, reps=2, methods=METHODS, bootstrap_reps=50))
        assert cli.main(["test", "--case", "pattern", "--data", str(data),
                         "--pattern", str(zeros), "--out", str(out)]) == 0
    assert all(a is b for a, b in zip(_hooks(), before))
    # every wrapped call site is still reached
    names = {name for _, _, name in tracer._targets() if name is not None}
    assert names <= {s["name"] for s in t.spans}
    kinds = {s["kind"] for s in t.spans if s["name"] == tracer.PVALUE}
    assert kinds == {"linear", "quadratic"}
