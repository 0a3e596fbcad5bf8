"""What a process that uses dirnormal loads.

``scipy.optimize`` and ``scipy.integrate`` take about a fifth of the
import time of the package; neither is needed for a fit, a test or a
study, at the smallest sample sizes included.  The check runs in a fresh
interpreter, since the test suite itself imports both.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_fits_tests_and_studies_load_no_optimize_or_integrate():
    code = textwrap.dedent("""
        import sys

        import numpy as np

        import dirnormal as dn

        rng = np.random.default_rng(7)
        c3 = dn.fit_hypothesis(dn.EqualDistributions(), [rng.standard_normal((12, 3)) for _ in range(3)])
        c5 = dn.fit_hypothesis(dn.SpecifiedMeanCov(np.zeros(3), np.eye(3)), rng.standard_normal((12, 3)) + 0.3)
        # at n = p + 2 and p + 3 the peak sits on or against the range bound
        edge = [dn.fit_hypothesis(dn.CompleteIndependence(), rng.standard_normal((n, 5))) for n in (7, 8)]
        for fit in (c3, c5, *edge):
            p, diag = dn.directional_pvalue(fit)
            assert 0.0 <= p <= 1.0 and diag.quad_escalations == 0
        dn.classical_report(c3, ("lrt", "sko1", "sko2"))
        spec = dn.ScenarioSpec(case="c5", n=12, p=3, reps=4, methods=("dt", "lrt", "bc"), bootstrap_reps=8)
        assert dn.run_study(spec).failures == 0
        print(" ".join(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.integrate"))))
    """)
    env = dict(os.environ, DIRNORMAL_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
