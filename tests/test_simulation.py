"""Scenario generators, study runner, cutoffs and uniformity diagnostics."""

import ctypes
import math
import os
import subprocess
import sys
import textwrap
import time
import types
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import dirnormal.simulation as sim
from dirnormal import hypotheses
from dirnormal.core import sample_groups
from dirnormal.exceptions import InvalidScenarioError, SettingError
from dirnormal.simulation import (
    Extreme,
    Local,
    ScenarioSpec,
    Setting1,
    corrected_cutoff,
    default_blocks,
    generate_scenario,
    ks_uniformity,
    run_study,
    scenario_params,
)


P, N, N3 = 4, 40, (40, 40, 40)
ROOT = math.sqrt(P * sum(N3))  # sqrt(p n) of the three-group cells
BAND = 1.0 / math.sqrt(2 * (3 + 2 + 1))  # unit weight over the 12 band positions at p = 4


class TestScenarioParams:
    def test_null_is_standard_normal(self):
        spec = ScenarioSpec(case="c1", n=50, p=4)
        (mu, cov), = scenario_params(spec)
        np.testing.assert_array_equal(mu, np.zeros(4))
        np.testing.assert_array_equal(cov, np.eye(4))

    def test_c1_setting1_half_inflated(self):
        spec = ScenarioSpec(case="c1", n=50, p=4, alternative=Setting1())
        (_, cov), = scenario_params(spec)
        np.testing.assert_array_equal(cov, np.diag([1.69, 1.69, 1.0, 1.0]))

    def test_c2_local_strength_formula(self):
        spec = ScenarioSpec(case="c2", n=100, p=4, alternative=Local(6.0))
        (_, cov), = scenario_params(spec)
        eta = 6.0 / math.sqrt(4 * 3 * 100)
        assert cov[0, 1] == pytest.approx(eta, rel=1e-14)
        assert cov[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_c2_extreme_single_entry(self):
        spec = ScenarioSpec(case="c2", n=50, p=5, alternative=Extreme(0.4))
        (_, cov), = scenario_params(spec)
        p1 = default_blocks(5)[0]
        expected = np.eye(5)
        expected[0, p1] = expected[p1, 0] = 0.4
        np.testing.assert_array_equal(cov, expected)

    def test_c4_setting1_scales(self):
        spec = ScenarioSpec(case="c4", n=(30, 30, 30), p=3, alternative=Setting1())
        covs = [cov for _, cov in scenario_params(spec)]
        np.testing.assert_array_equal(covs[0], np.eye(3))
        np.testing.assert_array_equal(covs[1], 1.21 * np.eye(3))
        np.testing.assert_array_equal(covs[2], 0.81 * np.eye(3))

    def test_c5_banded_covariance(self):
        spec = ScenarioSpec(case="c5", n=30, p=6, alternative=Setting1())
        (mu, cov), = scenario_params(spec)
        assert mu[2] == 0.1 and mu[3] == 0.0  # ceil(6/2) = 3 leading entries
        assert cov[0, 3] == 0.1 and cov[0, 4] == 0.0
        np.testing.assert_array_equal(np.diag(cov), np.ones(6))

    @pytest.mark.parametrize("case, alt, group, entry, expected", [
        ("c1", Local(3.0), 0, ("cov", 0, 0), 1.0 + 3.0 / math.sqrt(N) * math.sqrt(2.0 / P)),
        ("c2", Setting1(), 0, ("cov", 0, 1), 0.15),
        ("c3", Setting1(), 2, ("cov", 0, 0), 0.81),
        ("c3", Local(2.0), 1, ("mu", 3), 2.0 / ROOT),
        ("c3", Extreme(0.5), 1, ("mu", 0), 10.0 / ROOT),
        ("c4", Local(2.0), 2, ("cov", 1, 1), 1.0 + 2.0 / ROOT),
        ("c4", Extreme(0.5), 2, ("cov", 0, 0), 0.5),
        ("c5", Local(2.0), 0, ("cov", 0, 3), 2.0 * BAND / math.sqrt(N)),
        ("c5", Extreme(0.3), 0, ("cov", 0, 0), 0.7),
        ("c6", Setting1(), 0, ("cov", 0, 3), 0.1),
        ("c6", Local(2.0), 0, ("cov", 2, 3), 2.0 * BAND / math.sqrt(N)),
        ("c6", Extreme(0.4), 0, ("cov", 0, 1), 0.4),
        ("c1", Extreme(0.5), 0, ("cov", 0, 0), 1.5),
        ("c1", Extreme(0.5), 0, ("cov", -1, -1), 1.0),
    ])
    def test_alternative_sampling_distribution(self, case, alt, group, entry, expected):
        grouped = case in ("c3", "c4")
        params = scenario_params(ScenarioSpec(case=case, n=N3 if grouped else N, p=P, alternative=alt))
        assert len(params) == (3 if grouped else 1)
        for mu, cov in params:
            assert mu.shape == (P,) and cov.shape == (P, P)
            np.testing.assert_array_equal(cov, cov.T)
            assert np.all(np.linalg.eigvalsh(cov) > 0.0)
        mu, cov = params[group]
        value = mu[entry[1]] if entry[0] == "mu" else cov[entry[1:]]
        assert value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("alt", [sim.Null(), Setting1(), Local(1.0), Extreme(0.5)], ids=repr)
    @pytest.mark.parametrize("case", list(sim.CASES))
    def test_every_cell_at_p1_builds_or_is_invalid(self, case, alt):
        # scenario_params is also called without a spec, on a stand-in with
        # the fields it reads, since c2's spec is refused at p = 1 before it
        n = N3 if case in ("c3", "c4") else 20
        sizes = n if isinstance(n, tuple) else (n,)
        cell = types.SimpleNamespace(case=case, p=1, alternative=alt, group_sizes=sizes, n_total=sum(sizes))
        for build in (lambda: ScenarioSpec(case=case, n=n, p=1, alternative=alt),
                      lambda: scenario_params(cell)):
            try:
                build()
            except InvalidScenarioError:
                pass

    def test_p1_correlation_alternatives_are_invalid(self):
        for case, alt in (("c5", Local(1.0)), ("c6", Local(1.0)), ("c6", Extreme(0.5))):
            with pytest.raises(InvalidScenarioError, match="p >= 2"):
                ScenarioSpec(case=case, n=20, p=1, alternative=alt)
        cell = types.SimpleNamespace(case="c2", p=1, alternative=Local(1.0), group_sizes=(20,), n_total=20)
        with pytest.raises(InvalidScenarioError, match="p >= 2"):
            scenario_params(cell)

    @pytest.mark.parametrize("case", ["c1", "c6"])
    def test_null_with_no_degrees_of_freedom_is_invalid(self, case):
        # at p = 1 the null constrains nothing: every p-value would be 1
        with pytest.raises(InvalidScenarioError, match=f"case {case} at p=1 tests nothing"):
            ScenarioSpec(case=case, n=20, p=1)

    def test_pattern_has_no_study_scenario(self):
        with pytest.raises(InvalidScenarioError, match="unknown case 'pattern'"):
            ScenarioSpec(case="pattern", n=20, p=3)

    def test_invalid_local_strength_rejected(self):
        with pytest.raises(InvalidScenarioError):
            scenario_params(ScenarioSpec(case="c2", n=10, p=4, alternative=Local(1e9)))

    def test_non_pd_extreme_rejected(self):
        with pytest.raises(InvalidScenarioError):
            scenario_params(ScenarioSpec(case="c6", n=20, p=3, alternative=Extreme(1.5)))

    @pytest.mark.parametrize("case, n, alt", [
        ("c1", 50, Local(math.nan)),
        ("c1", 50, Extreme(math.inf)),
        ("c3", N3, Local(math.nan)),
        ("c4", N3, Extreme(math.nan)),
        ("c5", 50, Local(-math.inf)),
        ("c6", 50, Local(math.nan)),
    ])
    def test_non_finite_strength_rejected(self, case, n, alt):
        # checked when the cell is built, not left to fail every replication
        with pytest.raises(InvalidScenarioError, match="not finite"):
            ScenarioSpec(case=case, n=n, p=P, alternative=alt)

    def test_group_case_requires_three_groups_for_alternatives(self):
        with pytest.raises(InvalidScenarioError):
            scenario_params(ScenarioSpec(case="c4", n=(20, 20), p=3, alternative=Setting1()))

    def test_undersized_group_rejected(self):
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(case="c1", n=5, p=4)

    def test_numpy_integer_sample_size_accepted(self):
        spec = ScenarioSpec(case="c1", n=np.int64(50), p=4)
        assert spec.group_sizes == (50,)
        with pytest.raises(InvalidScenarioError, match="single sample size"):
            ScenarioSpec(case="c1", n=50.0, p=4)

    def test_scenario_without_null_or_distribution_rejected(self):
        # checked once, when the cell is built, not in every replication
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(case="c6", n=20, p=3, alternative=Extreme(1.5))
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(case="c2", n=20, p=2)

    def test_bartlett_needs_a_draw(self):
        ScenarioSpec(case="c1", n=10, p=3, bootstrap_reps=0)  # no bc, not used
        with pytest.raises(InvalidScenarioError):
            ScenarioSpec(case="c1", n=10, p=3, methods=("bc",), bootstrap_reps=0)

    @pytest.mark.parametrize("name, value", [("p", 0), ("seed", -1), ("reps", 2.5), ("p", 2.5),
                                             ("seed", 1.0), ("bootstrap_reps", 2.5)])
    def test_spec_on_which_every_replication_fails_rejected(self, name, value):
        with pytest.raises(InvalidScenarioError, match=name):
            ScenarioSpec(**{"case": "c1", "n": 10, "p": 3, name: value})

    def test_group_sizes_must_be_integers(self):
        with pytest.raises(InvalidScenarioError, match="integer group sizes"):
            ScenarioSpec(case="c3", n=(20.5, 20, 20), p=3)
        assert ScenarioSpec(case="c3", n=(np.int64(20), 20, 20), p=3).n == (20, 20, 20)

    def test_numpy_integer_fields_accepted(self):
        spec = ScenarioSpec(case="c1", n=10, p=np.int64(3), reps=np.int32(5), seed=np.uint8(2),
                            bootstrap_reps=np.int64(50))
        assert (spec.p, spec.reps, spec.seed, spec.bootstrap_reps) == (3, 5, 2, 50)
        assert all(type(v) is int for v in (spec.p, spec.reps, spec.seed, spec.bootstrap_reps))


class TestGenerateScenario:
    def test_deterministic_per_replication(self):
        spec = ScenarioSpec(case="c3", n=(10, 12, 14), p=3, seed=5)
        a = generate_scenario(spec, 7)
        b = generate_scenario(spec, 7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = generate_scenario(spec, 8)
        assert not np.array_equal(a[0], c[0])

    def test_null_moments(self):
        spec = ScenarioSpec(case="c1", n=4000, p=3, seed=11)
        y = generate_scenario(spec, 0)
        assert y.shape == (4000, 3)
        assert np.max(np.abs(y.mean(axis=0))) < 0.1
        assert np.max(np.abs(np.cov(y, rowvar=False) - np.eye(3))) < 0.12

    def test_group_sizes_respected(self):
        spec = ScenarioSpec(case="c4", n=(10, 20, 30), p=3, seed=1)
        groups = generate_scenario(spec, 0)
        assert [g.shape for g in groups] == [(10, 3), (20, 3), (30, 3)]

    def test_factors_cached_per_cell_and_draws_unchanged(self):
        # the draws equal those from factors recomputed for every replication
        for spec in (ScenarioSpec(case="c5", n=30, p=6, seed=3, alternative=Setting1()),
                     ScenarioSpec(case="c4", n=(10, 12, 14), p=3, seed=4, alternative=Setting1())):
            factors = [(mu, np.linalg.cholesky(cov)) for mu, cov in scenario_params(spec)]
            stream = sim.CASES[spec.case].stream
            for rep in (0, 5):
                expected = sample_groups(factors, spec.group_sizes, (spec.seed, stream, 0, rep))
                got = generate_scenario(spec, rep)
                for x, y in zip(expected, got if isinstance(got, list) else [got]):
                    np.testing.assert_array_equal(x, y)
            cached = sim._scenario_factors(spec)
            assert sim._scenario_factors(spec) is cached
            assert not any(a.flags.writeable for pair in cached for a in pair)


class TestCorrectedCutoff:
    def test_uniform_grid(self):
        grid = np.arange(1, 1001) / 1000.0
        assert corrected_cutoff(grid, 0.05) == pytest.approx(0.050, abs=1e-15)

    def test_all_ones(self):
        assert corrected_cutoff(np.ones(200), 0.05) == 1.0

    def test_small_alpha_takes_minimum(self):
        vals = np.array([0.4, 0.2, 0.9])
        assert corrected_cutoff(vals, 0.01) == 0.2


class TestKsUniformity:
    def test_centered_grid_statistic(self):
        r = 200
        grid = (np.arange(1, r + 1) - 0.5) / r
        stat, _ = ks_uniformity(grid)
        assert stat == pytest.approx(0.5 / r, abs=1e-15)

    def test_all_zero_statistic_is_one(self):
        stat, pval = ks_uniformity(np.zeros(50))
        assert stat == 1.0
        assert pval < 1e-10

    def test_matches_bruteforce_sup_difference(self):
        rng = np.random.default_rng(21)
        u = rng.uniform(size=2000)
        stat, _ = ks_uniformity(u)
        srt = np.sort(u)
        brute = 0.0
        for i, x in enumerate(srt):
            brute = max(brute, abs((i + 1) / 2000 - x), abs(i / 2000 - x))
        assert stat == pytest.approx(brute, abs=1e-12)


class TestRunStudy:
    def test_null_study_reports_size_and_uniformity(self):
        spec = ScenarioSpec(case="c6", n=20, p=3, reps=200, seed=3,
                            methods=("dt", "lrt"))
        res = run_study(spec)
        assert res.failures == 0
        assert set(res.pvalues) == {"dt", "lrt"}
        assert abs(res.estimated_type1["dt"] - 0.05) < 3 * math.sqrt(0.05 * 0.95 / 200)
        assert res.ks_pvalue > 0.001
        assert 0.0 < res.corrected_cutoffs["dt"] < 0.2

    def test_worker_partition_independence(self, monkeypatch):
        specs = [
            ScenarioSpec(case="c1", n=20, p=3, reps=60, seed=9, methods=("dt",)),
            # the Bartlett calibration runs on the workers too
            ScenarioSpec(case="c4", n=(12, 12, 12), p=3, reps=30, seed=9, methods=("bc",),
                         bootstrap_reps=40),
            # a power cell adds the null-calibration pass
            ScenarioSpec(case="c1", n=20, p=3, reps=30, seed=9, methods=("dt",),
                         alternative=Extreme(1.0)),
            # large enough for OpenBLAS to thread its calls: the workers run
            # one BLAS thread, the calling process its default
            ScenarioSpec(case="c3", n=(100, 100, 100), p=90, reps=24, seed=9, methods=("dt",)),
            # every classical statistic but bc, on the n - 1 weighted c5
            # statistic and on a free-mean null
            ScenarioSpec(case="c5", n=20, p=3, reps=30, seed=9, methods=("lrt", "sko1", "sko2")),
            ScenarioSpec(case="c6", n=20, p=3, reps=30, seed=9, methods=("lrt", "sko1", "sko2")),
        ]
        for spec in specs:
            monkeypatch.setenv("DIRNORMAL_THREADS", "1")
            serial = run_study(spec)
            monkeypatch.setenv("DIRNORMAL_THREADS", "2")
            parallel = run_study(spec)
            _assert_same_numbers(serial, parallel)

    def test_corrected_type1_matches_alpha_by_construction(self):
        spec = ScenarioSpec(case="c1", n=25, p=3, reps=150, seed=4, methods=("lrt",))
        res = run_study(spec)
        cut = res.corrected_cutoffs["lrt"]
        vals = res.pvalues["lrt"]
        corrected = np.mean(vals < cut)
        assert abs(corrected - 0.05) <= 1.0 / 150 + 1e-12

    def test_power_study_runs_null_calibration(self):
        spec = ScenarioSpec(case="c1", n=30, p=4, reps=120, seed=5,
                            methods=("dt",), alternative=Extreme(2.0))
        res = run_study(spec)
        assert res.power is not None and res.corrected_power is not None
        assert res.null_pvalues is not None
        assert res.power["dt"] > 0.2  # strong alternative
        assert res.corrected_power["dt"] >= 0.0

    def test_bc_uses_shared_calibration(self):
        spec = ScenarioSpec(case="c6", n=30, p=3, reps=80, seed=6,
                            methods=("bc",), bootstrap_reps=60)
        res = run_study(spec)
        assert res.e_w_hat is not None and res.e_w_hat > 0
        assert np.all(~np.isnan(res.pvalues["bc"]))

    def test_failures_recorded_not_retried(self, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")
        from dirnormal.exceptions import NoConvergenceError

        calls = {"count": 0}
        original = sim._replicate

        def flaky(spec, rep_index, stream, e_w_hat):
            if rep_index == 3:
                calls["count"] += 1
                raise NoConvergenceError("synthetic failure")
            return original(spec, rep_index, stream, e_w_hat)

        monkeypatch.setattr(sim, "_replicate", flaky)
        spec = ScenarioSpec(case="c1", n=20, p=3, reps=10, seed=7, methods=("dt",))
        res = run_study(spec)
        assert res.failures == 1
        assert calls["count"] == 1  # no retry
        assert np.isnan(res.pvalues["dt"][3])
        assert np.sum(np.isnan(res.pvalues["dt"])) == 1

    def test_any_exception_recorded_not_fatal(self, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")
        original = sim._replicate

        def broken(spec, rep_index, stream, e_w_hat):
            if rep_index == 2:
                raise ValueError("synthetic value error")
            if rep_index == 5:
                raise np.linalg.LinAlgError("synthetic linalg error")
            return original(spec, rep_index, stream, e_w_hat)

        monkeypatch.setattr(sim, "_replicate", broken)
        spec = ScenarioSpec(case="c1", n=20, p=3, reps=8, seed=7, methods=("dt",))
        res = run_study(spec)
        assert res.failures == 2
        assert res.failure_messages == ("rep 2: ValueError: synthetic value error",
                                        "rep 5: LinAlgError: synthetic linalg error")
        np.testing.assert_array_equal(np.flatnonzero(np.isnan(res.pvalues["dt"])), [2, 5])

    def test_every_replication_failing_reports_nan(self, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")
        from dirnormal.exceptions import NoConvergenceError

        def broken(fit):
            raise NoConvergenceError("synthetic failure")

        monkeypatch.setattr(sim, "directional_pvalue", broken)
        null = run_study(ScenarioSpec(case="c1", n=20, p=3, reps=6, seed=7, methods=("dt",)))
        assert null.failures == 6
        assert math.isnan(null.estimated_type1["dt"])
        assert math.isnan(null.corrected_cutoffs["dt"])
        assert null.ks_statistic is None
        power = run_study(ScenarioSpec(case="c1", n=20, p=3, reps=6, seed=7, methods=("dt",),
                                       alternative=Extreme(1.0)))
        assert power.failures == 12
        for table in (power.corrected_cutoffs, power.power, power.corrected_power):
            assert math.isnan(table["dt"])

    def test_classical_methods_run_no_eigensolver(self, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")

        def forbidden(*args):
            raise AssertionError("hypotheses.eig_pencil called")

        monkeypatch.setattr(hypotheses, "eig_pencil", forbidden)
        for case, n in (("c1", 20), ("c2", 20), ("c3", (12, 12, 12)), ("c4", (12, 12, 12)),
                        ("c5", 20), ("c6", 20)):
            res = run_study(ScenarioSpec(case=case, n=n, p=3, reps=5, seed=10,
                                         methods=("lrt", "bc", "sko1", "sko2"), bootstrap_reps=20))
            assert res.failures == 0, res.failure_messages

    def test_rerun_bitwise_identical(self):
        spec = ScenarioSpec(case="c4", n=(15, 15, 15), p=3, reps=40, seed=8, methods=("dt", "lrt"))
        a = run_study(spec)
        b = run_study(spec)
        for m in spec.methods:
            np.testing.assert_array_equal(a.pvalues[m], b.pvalues[m])


def _assert_same_numbers(a, b):
    assert a.failures == b.failures
    assert a.e_w_hat == b.e_w_hat
    for m in a.spec.methods:
        np.testing.assert_array_equal(a.pvalues[m], b.pvalues[m])
        if a.null_pvalues is not None:
            np.testing.assert_array_equal(a.null_pvalues[m], b.null_pvalues[m])


def _blas_threads(_=None):
    """Thread counts of the bundled OpenBLAS copies in this process; None
    where a copy or its getter is missing."""
    counts = []
    for package, pattern, symbol in sim._OPENBLAS:
        paths = sorted((Path(package.__file__).parents[1] / f"{package.__name__}.libs").glob(pattern))
        getter = getattr(ctypes.CDLL(str(paths[0])), symbol.replace("_set_", "_get_"), None) if paths else None
        if getter is None:
            return None
        getter.restype = ctypes.c_int
        counts.append(getter())
    return tuple(counts)


class TestSharedPool:
    SPEC = ScenarioSpec(case="c6", n=20, p=3, reps=24, seed=13, methods=("dt", "bc"),
                        bootstrap_reps=24)

    def test_workers_run_one_blas_thread(self, monkeypatch):
        before = _blas_threads()
        if before is None:
            pytest.skip("numpy or scipy does not bundle OpenBLAS here")
        monkeypatch.setenv("DIRNORMAL_THREADS", "2")
        assert set(sim._map(_blas_threads, range(8))) == {(1, 1)}
        assert _blas_threads() == before  # the calling process is left alone

    def test_worker_cap_reads_dirnormal_threads(self, monkeypatch):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        for value, workers in (("", 4), ("0", 1), ("-2", 1), ("3", 3), ("9", 4)):
            monkeypatch.setenv("DIRNORMAL_THREADS", value)
            assert sim._worker_cap() == workers
        monkeypatch.setenv("DIRNORMAL_THREADS", "two")
        with pytest.raises(SettingError, match="DIRNORMAL_THREADS .*'two'"):
            sim._worker_cap()

    def test_missing_blas_library_or_symbol_is_skipped(self, monkeypatch):
        monkeypatch.setattr(sim, "_OPENBLAS", ((np, "no-such-library-*.so", "set_threads"),
                                               (np, sim._OPENBLAS[0][1], "no_such_symbol")))
        sim._one_blas_thread()

    def test_successive_studies_reuse_the_pool(self, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "2")
        first = run_study(self.SPEC)
        pool = sim._pool
        pids = set(pool._processes)
        assert len(pids) == 2
        second = run_study(self.SPEC)
        assert sim._pool is pool
        assert set(pool._processes) == pids
        _assert_same_numbers(first, second)

    def test_cap_change_replaces_the_pool(self, monkeypatch):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("DIRNORMAL_THREADS", "2")
        two = run_study(self.SPEC)
        pool = sim._pool
        monkeypatch.setenv("DIRNORMAL_THREADS", "3")
        three = run_study(self.SPEC)
        assert sim._pool is not pool
        assert len(sim._pool._processes) == 3
        _assert_same_numbers(two, three)

    def test_broken_pool_replaced_on_next_study(self, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "2")
        before = run_study(self.SPEC)
        pool = sim._pool
        with pytest.raises(BrokenProcessPool):
            pool.submit(os._exit, 1).result(timeout=60)
        after = run_study(self.SPEC)
        assert sim._pool is not pool
        _assert_same_numbers(before, after)

    def test_no_worker_outlives_the_interpreter(self):
        code = textwrap.dedent("""
            import dirnormal.simulation as sim
            spec = sim.ScenarioSpec(case="c1", n=20, p=3, reps=8, methods=("dt",))
            assert sim.run_study(spec).failures == 0
            print(" ".join(str(pid) for pid in sim._pool._processes))
        """)
        src = str(Path(sim.__file__).resolve().parents[1])
        env = dict(os.environ, DIRNORMAL_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        alive = set(pids)
        while alive and time.monotonic() < deadline:
            for pid in list(alive):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    alive.discard(pid)
            if alive:
                time.sleep(0.05)
        assert not alive


class TestDefaultBlocks:
    def test_exact_ratio_when_divisible(self):
        assert default_blocks(5) == (2, 2, 1)
        assert default_blocks(30) == (12, 12, 6)
        assert default_blocks(90) == (36, 36, 18)

    def test_always_valid(self):
        for p in range(3, 301):
            a = 2 * p // 5
            blocks = default_blocks(p)
            assert blocks == (a, a, p - 2 * a)
            assert all(b >= 1 for b in blocks)
