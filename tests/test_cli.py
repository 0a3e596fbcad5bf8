"""Command-line interface: ingestion, report serialization, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirnormal import cli, hypotheses, simulation
from dirnormal.classical import classical_report
from dirnormal.cli import main
from dirnormal.core import sample_mvn
from dirnormal.directional import DirectionalDiagnostics, directional_pvalue
from dirnormal.exceptions import InvalidScenarioError, ParseError
from dirnormal.hypotheses import HYPOTHESES, CompleteIndependence, fit_hypothesis
from dirnormal.report import (
    build_report,
    read_data_csv,
    read_matrix_csv,
    read_pattern_csv,
    read_vector_csv,
    write_data_csv,
)
from dirnormal.simulation import ScenarioSpec

from _oracles import trapezoid_pvalue

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMA = SRC / "dirnormal" / "schemas" / "report-v1.json"
BOM = b"\xef\xbb\xbf"


class TestReadDataCsv:
    def test_plain_numeric(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,4\n5,6\n")
        values, names = read_data_csv(f)
        np.testing.assert_array_equal(values, [[1, 2], [3, 4], [5, 6]])
        assert names is None

    def test_header_detected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,2\n3,4\n")
        values, names = read_data_csv(f)
        np.testing.assert_array_equal(values, [[1, 2], [3, 4]])
        assert names == ["x", "y"]

    def test_ragged_row_names_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            read_data_csv(f)

    def test_bad_cell_names_location(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 2, column 2"):
            read_data_csv(f)

    @pytest.mark.parametrize("content, where", [
        (b"x,y\n1,2\n\n\n3\n", "line 5:"),
        (b"1,2\r\n\r\n , \r\n3,oops\r\n", "line 4, column 2"),
        (b"1,2\r\r3,4\r5\r", "line 4:"),
        # a quoted name spanning two lines: the ragged row is on line 5
        (b'x,"a\nb"\n1,2\n\n3\n', "line 5:"),
    ])
    def test_errors_name_the_physical_line(self, tmp_path, content, where):
        f = tmp_path / "d.csv"
        f.write_bytes(content)
        with pytest.raises(ParseError, match=where):
            read_data_csv(f)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(BOM + b"1.5,2.0\n3.0,4.5\n5.0,6.0\n")
        values, names = read_data_csv(f)
        np.testing.assert_array_equal(values, [[1.5, 2.0], [3.0, 4.5], [5.0, 6.0]])
        assert names is None
        f.write_bytes(BOM + b"x1,x2\n1,2\n")
        assert read_data_csv(f)[1] == ["x1", "x2"]

    def test_quoted_cells_read_as_the_csv_module_reads_them(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('"a,b", "c"\n"1.5",2\n3," 4 "\n')
        values, names = read_data_csv(f)
        np.testing.assert_array_equal(values, [[1.5, 2.0], [3.0, 4.0]])
        assert names == ["a,b", '"c"']

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        values = rng.standard_normal((7, 3)) * np.pi
        f = tmp_path / "d.csv"
        write_data_csv(f, values, names=["a", "b", "c"])
        back, names = read_data_csv(f)
        np.testing.assert_array_equal(back, values)
        assert names == ["a", "b", "c"]

    def test_legal_names_read_back(self, tmp_path):
        names = ["a", "b c", "x,y", '"q"', "1", "", "nan-ish"]
        values = np.random.default_rng(95).standard_normal((4, len(names)))
        f = tmp_path / "d.csv"
        write_data_csv(f, values, names=names)
        back, back_names = read_data_csv(f)
        np.testing.assert_array_equal(back, values)
        assert back_names == names

    @pytest.mark.parametrize("names, named", [
        (["1", "2"], "'1'"), ([" a", "b"], "' a'"), (["a\nb", "c"], "'a\\nb'"), (["", ""], "''"),
        (["a"], "1 column names for 2 columns"),
    ])
    def test_names_that_would_not_read_back_are_refused(self, tmp_path, names, named):
        f = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=re.escape(named)):
            write_data_csv(f, np.eye(2), names=names)
        assert not f.exists()


class TestAuxiliaryReaders:
    def test_vector_column_or_row(self, tmp_path):
        f = tmp_path / "v.csv"
        f.write_text("1\n2\n3\n")
        np.testing.assert_array_equal(read_vector_csv(f), [1, 2, 3])
        f.write_text("1,2,3\n")
        np.testing.assert_array_equal(read_vector_csv(f), [1, 2, 3])

    def test_matrix_requires_symmetry(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,0.5\n0.4,1\n")
        with pytest.raises(ParseError):
            read_matrix_csv(f)
        f.write_text("1,0.5\n0.5,1\n")
        np.testing.assert_array_equal(read_matrix_csv(f), [[1, 0.5], [0.5, 1]])

    def test_pattern_is_one_based(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("1,3\n2,4\n")
        assert read_pattern_csv(f) == ((0, 2), (1, 3))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_bytes(BOM + b"1,3\n2,4\n")
        assert read_pattern_csv(f) == ((0, 2), (1, 3))
        f.write_bytes(BOM + b"1\n2\n3\n")
        np.testing.assert_array_equal(read_vector_csv(f), [1, 2, 3])
        f.write_bytes(BOM + b"1,0.5\r\n0.5,1\r\n")
        np.testing.assert_array_equal(read_matrix_csv(f), [[1, 0.5], [0.5, 1]])


class TestTestCommand:
    def _write_case6_file(self, tmp_path):
        y = sample_mvn(np.zeros(2), np.eye(2), 20, seed=(42, 0))
        f = tmp_path / "data.csv"
        write_data_csv(f, y)
        return f, y

    def test_case6_report_matches_library_and_oracle(self, tmp_path):
        f, y = self._write_case6_file(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "test", "--case", "c6", "--data", str(f),
            "--methods", "dt,lrt,sko1,sko2", "--out", str(out), "--seed", "1",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "report-v1"
        assert set(report["methods"]) == {"dt", "lrt", "sko1", "sko2"}
        fit = fit_hypothesis(CompleteIndependence(), y)
        p_lib, diag = directional_pvalue(fit)
        assert report["methods"]["dt"]["p_value"] == pytest.approx(p_lib, abs=1e-12)
        assert report["methods"]["dt"]["p_value"] == pytest.approx(trapezoid_pvalue(fit), abs=1e-6)
        assert report["diagnostics"]["t_sup"] == pytest.approx(diag.t_sup, rel=1e-12)
        for key in ("n_evals", "quad_escalations", "peak_evals"):
            assert report["diagnostics"][key] == getattr(diag, key)
        assert report["diagnostics"]["quad_error"] == pytest.approx(diag.quad_error, rel=1e-12)
        assert report["d"] == 1

    def test_report_reads_the_fit_and_the_results(self):
        y = sample_mvn(np.zeros(3), np.eye(3), 20, seed=(44, 0))
        fit = fit_hypothesis(hypotheses.ProportionalIdentity(), y)
        p_dir, diag = directional_pvalue(fit)
        rep = classical_report(fit, ("sko2", "lrt"))
        report = build_report(fit, diagnostics=diag, classical=rep, seed=7)
        assert {key: report[key] for key in ("case", "n", "p", "k", "d", "degenerate", "seed")} == {
            "case": "c1", "n": [20], "p": 3, "k": 1, "d": fit.d, "degenerate": False, "seed": 7}
        assert report["methods"] == {
            "dt": {"p_value": p_dir, "statistic": None},
            "lrt": {"p_value": rep.pvalues["lrt"], "statistic": rep.w},
            "sko2": {"p_value": rep.pvalues["sko2"], "statistic": rep.statistics["sko2"]},
        }
        assert build_report(fit)["methods"] == {}
        seed = build_report(fit, seed=np.int64(3))["seed"]
        assert seed == 3 and type(seed) is int

    def test_report_validates_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        f, _ = self._write_case6_file(tmp_path)
        out = tmp_path / "report.json"
        assert main(["test", "--case", "c6", "--data", str(f),
                     "--methods", "dt,lrt,bc,sko1,sko2", "--bc-reps", "60",
                     "--out", str(out)]) == 0
        schema = json.loads(SCHEMA.read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_schema_lists_every_diagnostics_field(self):
        # the report copies every field of the diagnostics but the p-value,
        # which it reports under methods
        schema = json.loads(SCHEMA.read_text())
        fields = {f.name for f in dataclasses.fields(DirectionalDiagnostics)} - {"p_value"}
        assert set(schema["properties"]["diagnostics"]["properties"]) == fields

    def test_bootstrap_report_same_at_any_worker_count(self, tmp_path, monkeypatch):
        f, _ = self._write_case6_file(tmp_path)
        texts = []
        for threads in ("1", "2"):
            monkeypatch.setenv("DIRNORMAL_THREADS", threads)
            out = tmp_path / f"r{threads}.json"
            assert main(["test", "--case", "c6", "--data", str(f), "--methods", "dt,lrt,bc",
                         "--bc-reps", "60", "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["methods"]["bc"]["p_value"] is not None

    def test_too_few_bootstrap_reps_exits_one(self, tmp_path, capsys):
        f, _ = self._write_case6_file(tmp_path)
        code = main(["test", "--case", "c6", "--data", str(f), "--methods", "bc",
                     "--bc-reps", "49", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "--bc-reps" in capsys.readouterr().err

    def test_classical_methods_run_no_eigensolver(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("hypotheses.eig_pencil called")

        monkeypatch.setattr(hypotheses, "eig_pencil", forbidden)
        f, _ = self._write_case6_file(tmp_path)
        assert main(["test", "--case", "c6", "--data", str(f), "--methods", "lrt,sko1,sko2",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_collinear_data_exit_one(self, tmp_path, capsys):
        y = np.random.default_rng(0).standard_normal((12, 5))
        y[:, 3] = y[:, 0]  # exactly collinear: the sample covariance is singular
        f = tmp_path / "d.csv"
        write_data_csv(f, y)
        code = main(["test", "--case", "c6", "--data", str(f), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "singular" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["test", "--case", "c6", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_too_few_rows_exits_one(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        write_data_csv(f, np.eye(3))  # n = p = 3 < p + 2
        code = main(["test", "--case", "c6", "--data", str(f),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "p + 2" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["c6", "c4"])
    def test_degenerate_exits_two(self, tmp_path, case):
        if case == "c6":
            # data whose covariance is exactly diagonal: the null fit equals
            # the unconstrained fit
            groups = [np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])]
        else:
            # equal sample covariances and unequal sizes
            y = np.random.default_rng(93).standard_normal((10, 2))
            groups = [y, np.vstack([y, y])]
        out = tmp_path / "r.json"
        argv = ["test", "--case", case, "--methods", "dt,lrt,sko1,sko2", "--out", str(out)]
        for g, y in enumerate(groups):
            f = tmp_path / f"d{g}.csv"
            write_data_csv(f, y)
            argv += ["--data", str(f)]
        assert main(argv) == 2
        report = json.loads(out.read_text())
        assert report["degenerate"] is True
        assert {m: e["p_value"] for m, e in report["methods"].items()} == dict.fromkeys(
            ("dt", "lrt", "sko1", "sko2"), 1.0)

    def test_degenerate_pretty_table_says_so(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_data_csv(data, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]))
        assert main(["test", "--case", "c6", "--data", str(data), "--out", str(tmp_path / "r.json"),
                     "--pretty"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "observed data sit exactly at the null expectation; all p-values are 1"

    def test_block_sizes_for_case2(self, tmp_path, capsys):
        y = sample_mvn(np.zeros(5), np.eye(5), 30, seed=(43, 0))
        data, out = tmp_path / "d.csv", tmp_path / "r.json"
        write_data_csv(data, y)
        assert main(["test", "--case", "c2", "--data", str(data), "--blocks", "2,3",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        fit = fit_hypothesis(hypotheses.BlockIndependence((2, 3)), y)
        assert report["d"] == fit.d == 6
        assert report["methods"]["dt"]["p_value"] == directional_pvalue(fit)[0]
        assert main(["test", "--case", "c2", "--data", str(data), "--out", str(out)]) == 1
        assert "--blocks" in capsys.readouterr().err

    def test_equal_covariances_under_large_means_exit_two(self, tmp_path):
        # exactly equal covariances far from the origin (see
        # test_hypotheses.py, TestDegenerate)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((32, 30)) + rng.uniform(-5e3, 5e3, 30)
        out = tmp_path / "r.json"
        argv = ["test", "--case", "c4", "--out", str(out)]
        for g, data in enumerate([y, y, np.vstack([y, y])]):
            f = tmp_path / f"d{g}.csv"
            write_data_csv(f, data)
            argv += ["--data", str(f)]
        assert main(argv) == 2
        assert json.loads(out.read_text())["degenerate"] is True

    def test_negative_c5_statistic_is_not_degenerate(self, tmp_path, capsys):
        # p = 1, n = 3: the n - 1 weighting gives W = 2 log 1.5 - 1 < 0; the
        # classical p-values are 1, the data are not at the null expectation
        data, mu0, lambda0, out = (tmp_path / f for f in ("d.csv", "mu0.csv", "lambda0.csv", "r.json"))
        write_data_csv(data, np.array([[1.0], [0.0], [-1.0]]))
        write_data_csv(mu0, np.zeros((1, 1)))
        write_data_csv(lambda0, np.ones((1, 1)))
        assert main(["test", "--case", "c5", "--data", str(data), "--mu0", str(mu0),
                     "--lambda0", str(lambda0), "--methods", "dt,lrt,bc,sko1,sko2", "--bc-reps", "50",
                     "--out", str(out), "--pretty"]) == 0
        assert "all p-values are 1" not in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["degenerate"] is False
        assert report["w"] == pytest.approx(2.0 * np.log(1.5) - 1.0, rel=1e-14)
        pvalues = {m: e["p_value"] for m, e in report["methods"].items()}
        assert 0.0 < pvalues.pop("dt") < 1.0
        assert pvalues == dict.fromkeys(("lrt", "bc", "sko1", "sko2"), 1.0)

    def test_degenerate_data_skip_the_bootstrap(self, tmp_path, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("bootstrap run on degenerate data")

        monkeypatch.setattr(cli, "bartlett_bootstrap", no_draws)
        data, out = tmp_path / "d0.csv", tmp_path / "r.json"
        write_data_csv(data, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]))
        assert main(["test", "--case", "c6", "--data", str(data), "--methods", "dt,lrt,bc",
                     "--bc-reps", "60", "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["degenerate"] is True
        assert {m: e["p_value"] for m, e in report["methods"].items()} == dict.fromkeys(
            ("dt", "lrt", "bc"), 1.0)

    def test_group_column_splitting(self, tmp_path):
        rng = np.random.default_rng(91)
        rows = []
        for g in (1, 2):
            for _ in range(12):
                rows.append([g] + list(rng.standard_normal(2)))
        f = tmp_path / "d.csv"
        with f.open("w") as fh:
            fh.write("grp,a,b\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        out = tmp_path / "r.json"
        code = main(["test", "--case", "c4", "--data", str(f), "--group-col", "grp",
                     "--methods", "dt,lrt", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n"] == [12, 12]
        assert report["column_names"] == ["a", "b"]

    def test_groups_keep_the_order_of_first_appearance(self, tmp_path):
        rng = np.random.default_rng(96)
        labels = rng.permutation([3.0] * 8 + [0.0] * 6 + [-0.0] * 6 + [2.0] * 9)
        f = tmp_path / "d.csv"
        with f.open("wb") as fh:
            fh.write(BOM + b"a,grp,b\n")
            for label in labels:
                a, b = rng.standard_normal(2)
                fh.write(f"{float(a)!r},{float(label)!r},{float(b)!r}\n".encode())
        seen: list[float] = []  # the labels in order of first appearance, 0.0 == -0.0
        for v in labels:
            if v not in seen:
                seen.append(v)
        out = tmp_path / "r.json"
        assert main(["test", "--case", "c4", "--data", str(f), "--group-col", "grp",
                     "--methods", "lrt", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n"] == [int(np.sum(labels == v)) for v in seen]
        assert report["column_names"] == ["a", "b"]

    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_non_finite_group_label_exits_one(self, tmp_path, capsys, label):
        f = tmp_path / "d.csv"
        rows = [f"{g},{x},{-x}" for g in (1, 2) for x in range(6)]
        rows[3] = f"{label},0.5,0.25"
        f.write_text("grp,a,b\n" + "\n".join(rows) + "\n")
        assert main(["test", "--case", "c4", "--data", str(f), "--group-col", "grp",
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "'grp'" in err and label in err

    def test_case5_with_parameter_files(self, tmp_path):
        rng = np.random.default_rng(92)
        y = rng.standard_normal((15, 2)) + 0.3
        data = tmp_path / "d.csv"
        write_data_csv(data, y)
        mu0 = tmp_path / "mu0.csv"
        mu0.write_text("0.0\n0.0\n")
        lam0 = tmp_path / "lam0.csv"
        lam0.write_text("1.0,0.0\n0.0,1.0\n")
        out = tmp_path / "r.json"
        code = main(["test", "--case", "c5", "--data", str(data), "--mu0", str(mu0),
                     "--lambda0", str(lam0), "--methods", "dt,lrt", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["d"] == 5

    @pytest.mark.parametrize("methods", ["lrt,sko1", "dt,lrt"])
    @pytest.mark.parametrize("where, cell", [("mu0", "nan"), ("mu0", "inf"), ("lambda0", "nan")])
    def test_case5_non_finite_parameter_exits_one(self, tmp_path, capsys, methods, where, cell):
        data = tmp_path / "d.csv"
        write_data_csv(data, np.random.default_rng(93).standard_normal((15, 2)))
        files = {"mu0": tmp_path / "mu0.csv", "lambda0": tmp_path / "lambda0.csv"}
        files["mu0"].write_text(f"0.0\n{cell if where == 'mu0' else '0.0'}\n")
        files["lambda0"].write_text(f"1.0,0.0\n0.0,{cell if where == 'lambda0' else '1.0'}\n")
        out = tmp_path / "r.json"
        assert main(["test", "--case", "c5", "--data", str(data), "--mu0", str(files["mu0"]),
                     "--lambda0", str(files["lambda0"]), "--methods", methods, "--out", str(out)]) == 1
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_csv_format_output(self, tmp_path):
        f, _ = self._write_case6_file(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["test", "--case", "c6", "--data", str(f), "--methods", "lrt",
                     "--out", str(out), "--format", "csv"]) == 0
        text = out.read_text()
        assert text.startswith("key,value")
        assert "methods.lrt.p_value" in text


class TestParserState:
    def test_reports_equal_those_of_a_fresh_process(self, tmp_path, capsys):
        """The parser is built once per process; a call leaves nothing on it
        that changes the next call's report or output."""
        rng = np.random.default_rng(97)
        groups = [tmp_path / f"g{g}.csv" for g in range(3)]
        for f in groups:
            write_data_csv(f, rng.standard_normal((12, 3)))
        single = tmp_path / "y.csv"
        write_data_csv(single, rng.standard_normal((20, 3)), names=["u", "v", "w"])
        c3 = ["test", "--case", "c3", "--methods", "dt,lrt,sko1"]
        for f in groups:
            c3 += ["--data", str(f)]
        c1 = ["test", "--case", "c1", "--data", str(single)]
        calls = [c3, c1 + ["--format", "csv", "--seed", "5"], c3 + ["--pretty"], c1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        for i, argv in enumerate(calls):
            here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
            code = main(argv + ["--out", str(here)])
            out = capsys.readouterr().out
            proc = subprocess.run([sys.executable, "-m", "dirnormal.cli", *argv, "--out", str(fresh)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert (code, out) == (proc.returncode, proc.stdout), proc.stderr
            assert here.read_bytes() == fresh.read_bytes()
            assert bool(out) == ("--pretty" in argv)


class TestCaseTable:
    def test_one_set_of_tags(self, capsys):
        # test takes every null, simulate the nulls of the study case table
        tags = set(HYPOTHESES)
        assert {cls.tag for cls in HYPOTHESES.values()} == tags
        assert set(json.loads(SCHEMA.read_text())["properties"]["case"]["enum"]) == tags
        assert set(simulation.CASES) == tags - {"pattern"}
        for command, offered in (("test", tags), ("simulate", set(simulation.CASES))):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            choices = re.search(r"--case \{([^}]*)\}", capsys.readouterr().out).group(1)
            assert set(choices.split(",")) == offered

    @pytest.mark.parametrize("tag", ["c1", "c2", "c3", "c4", "c5", "c6"])
    def test_grouped_tags_take_group_sizes(self, tag):
        if HYPOTHESES[tag].grouped:
            assert ScenarioSpec(case=tag, n=(20, 20), p=3).group_sizes == (20, 20)
            with pytest.raises(InvalidScenarioError):
                ScenarioSpec(case=tag, n=20, p=3)
        else:
            assert ScenarioSpec(case=tag, n=20, p=3).group_sizes == (20,)
            with pytest.raises(InvalidScenarioError):
                ScenarioSpec(case=tag, n=(20, 20), p=3)


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "2")
        args = ["simulate", "--case", "c1", "--n", "20", "--p", "3", "--reps", "40",
                "--alt", "null", "--seed", "12", "--methods", "dt,lrt"]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("summary.csv", "ecdf_dt.csv", "ecdf_lrt.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        summary = (out1 / "summary.csv").read_text()
        assert "estimated_type1" in summary

    def test_single_rep_ecdf(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")
        out = tmp_path / "run"
        assert main(["simulate", "--case", "c6", "--n", "10", "--p", "2", "--reps", "1",
                     "--alt", "null", "--seed", "3", "--methods", "dt",
                     "--out", str(out)]) == 0
        lines = (out / "ecdf_dt.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header plus the single step
        assert lines[1].endswith(",1.0")

    @pytest.mark.parametrize("argv, message", [
        (["--case", "c6", "--n", "20", "--p", "3", "--alt", "extreme", "--eta", "1.5"], "eta"),
        (["--case", "c2", "--n", "20", "--p", "2"], "p >= 3"),
        (["--case", "c1", "--n", "20", "--p", "3", "--alt", "local", "--delta", "nan"], "not finite"),
    ])
    def test_invalid_scenario_exits_one(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        assert main(["simulate", *argv, "--reps", "20", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_pattern_is_not_a_study_case(self, tmp_path, capsys):
        # the zero-pattern null has no study scenario, so the parser refuses it
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--case", "pattern", "--n", "20", "--p", "3", "--reps", "20", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'pattern'" in capsys.readouterr().err
        assert not out.exists()

    def test_correlation_alternative_at_p1_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--case", "c6", "--n", "20", "--p", "1", "--reps", "2",
                     "--alt", "local", "--delta", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: correlation alternatives need p >= 2\n"
        assert not out.exists()

    def test_group_sizes_for_a_one_sample_case_exit_one(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--case", "c1", "--n", "40,400", "--p", "3", "--reps", "5",
                     "--out", str(out)]) == 1
        assert "single sample size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alt", [["--case", "c6", "--alt", "setting1"],
                                     ["--case", "c6", "--alt", "local", "--delta", "4"],
                                     ["--case", "c1", "--alt", "extreme", "--eta", "1.0"]])
    def test_alternatives_report_power(self, tmp_path, monkeypatch, alt):
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")
        out = tmp_path / "run"
        assert main(["simulate", "--n", "20", "--p", "3", "--reps", "10", *alt,
                     "--seed", "4", "--methods", "dt,lrt", "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert {"dt,power", "lrt,corrected_power"} <= {row.rsplit(",", 1)[0] for row in rows}

    def test_bartlett_calibration_in_summary(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRNORMAL_THREADS", "1")
        out = tmp_path / "run"
        assert main(["simulate", "--case", "c6", "--n", "20", "--p", "3", "--reps", "5",
                     "--seed", "4", "--methods", "lrt,bc", "--bc-reps", "50", "--out", str(out)]) == 0
        spec = ScenarioSpec(case="c6", n=20, p=3, reps=5, seed=4, methods=("lrt", "bc"), bootstrap_reps=50)
        e_w_hat = simulation.calibrate_bartlett_expectation(spec)
        assert f"bc,e_w_hat,{e_w_hat!r}" in (out / "summary.csv").read_text().splitlines()

    def test_local_requires_delta(self, tmp_path, capsys):
        for alt, option in (("local", "--delta"), ("extreme", "--eta")):
            code = main(["simulate", "--case", "c1", "--n", "20", "--p", "3", "--reps", "5",
                         "--alt", alt, "--out", str(tmp_path / "x")])
            assert code == 1
            assert f"--alt {alt} requires {option}" in capsys.readouterr().err

    def test_unreadable_thread_cap_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DIRNORMAL_THREADS", "two")
        assert main(["simulate", "--case", "c1", "--n", "20", "--p", "3", "--reps", "5",
                     "--out", str(tmp_path / "x")]) == 1
        assert "DIRNORMAL_THREADS" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_m_exits_with_the_code_of_main(self, tmp_path):
        rng = np.random.default_rng(98)
        wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        write_data_csv(wide, rng.standard_normal((12, 3)))
        write_data_csv(narrow, rng.standard_normal((12, 1)))  # p = 1: c1 is degenerate
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        for case, data, code in (("c1", wide, 0), ("c3", wide, 1), ("c1", narrow, 2)):
            proc = subprocess.run([sys.executable, "-m", "dirnormal", "test", "--case", case,
                                   "--data", str(data), "--out", str(tmp_path / "r.json")],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == code, proc.stderr
