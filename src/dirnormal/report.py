"""File I/O: CSV ingestion, report building and serialization.

Numbers are serialized at full precision (shortest round-trip decimal, up
to 17 significant digits), so a written matrix reads back bit-exactly.
Pretty rendering for humans is a separate, lossy view.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .classical import ClassicalReport
from .directional import DirectionalDiagnostics
from .exceptions import ParseError
from .hypotheses import ConstrainedFit

__all__ = [
    "SCHEMA_ID",
    "read_data_csv",
    "read_vector_csv",
    "read_matrix_csv",
    "read_pattern_csv",
    "write_data_csv",
    "build_report",
    "report_to_json",
    "report_to_csv",
    "render_pretty",
    "write_study_outputs",
]

SCHEMA_ID = "report-v1"
# Largest asymmetry of a matrix read from file, relative to max(1, max |entry|).
SYMMETRIC_RTOL = 1e-9


def _float_repr(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _csv_rows(text: str):
    """Yield ``(line, cells)`` for each row of ``text`` with a non-blank cell:
    the cells as ``csv.reader`` splits them and the physical line the row
    starts on."""
    reader = csv.reader(io.StringIO(text))
    line = 1
    for cells in reader:
        if any(c.strip() for c in cells):
            yield line, cells
        line = reader.line_num + 1


def read_data_csv(path) -> tuple[np.ndarray, list[str] | None]:
    """Read an observations-by-variables CSV.

    An optional single header row is detected by non-numeric cells.  A
    leading UTF-8 byte order mark is dropped and rows whose cells are all
    blank are skipped.  Returns ``(matrix, column_names)`` with names
    ``None`` when there is no header.  Raises ``ParseError`` with the
    physical line (and column) of the first ragged or non-numeric row.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    if '"' in text:
        rows = [cells for _, cells in _csv_rows(text)]
    else:
        # without quotes, csv.reader splits a line on its commas
        rows = [line.split(",") for line in text.split("\n") if line.replace(",", "").strip()]
    if not rows:
        raise ParseError(f"{path}: file is empty")

    names: list[str] | None = None
    if not all(map(_is_number, rows[0])):
        names = [c.strip() for c in rows.pop(0)]
    if not rows:
        raise ParseError(f"{path}: no data rows below the header")

    width = len(rows[0])
    try:
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        values = np.fromiter(map(float, itertools.chain.from_iterable(rows)), dtype=float,
                             count=len(rows) * width)
    except ValueError as exc:
        located = _csv_rows(text)
        if names is not None:
            next(located)
        for lineno, row in located:
            if len(row) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
                ) from exc
            for col, cell in enumerate(row, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, column {col}: not a number: {cell!r}"
                    ) from exc
        raise
    if names is not None and len(names) != width:
        raise ParseError(f"{path}: header has {len(names)} names but rows have {width} columns")
    return values.reshape(len(rows), width), names


def read_vector_csv(path) -> np.ndarray:
    """Read a vector stored as one column (or one row) of numbers."""
    values, _ = read_data_csv(path)
    if values.shape[1] == 1:
        return values[:, 0]
    if values.shape[0] == 1:
        return values[0, :]
    raise ParseError(f"{path}: expected a single row or column, got shape {values.shape}")


def read_matrix_csv(path) -> np.ndarray:
    """Read a square matrix; symmetry is required to ``SYMMETRIC_RTOL`` and
    then enforced exactly."""
    values, _ = read_data_csv(path)
    if values.shape[0] != values.shape[1]:
        raise ParseError(f"{path}: expected a square matrix, got shape {values.shape}")
    scale = max(1.0, float(np.max(np.abs(values))))
    if float(np.max(np.abs(values - values.T))) > SYMMETRIC_RTOL * scale:
        raise ParseError(f"{path}: matrix is not symmetric to tolerance {SYMMETRIC_RTOL}")
    return 0.5 * (values + values.T)


def read_pattern_csv(path) -> tuple[tuple[int, int], ...]:
    """Read a zero pattern as 1-based ``i,j`` pairs, one per line."""
    path = Path(path)
    pairs = []
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}: line {lineno}: expected 'i,j'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: not an integer pair") from exc
            if i < 1 or j < 1:
                raise ParseError(f"{path}: line {lineno}: indices are 1-based")
            pairs.append((i - 1, j - 1))
    if not pairs:
        raise ParseError(f"{path}: no index pairs found")
    return tuple(pairs)


def write_data_csv(path, values: np.ndarray, names: list[str] | None = None) -> None:
    """Write a matrix as CSV at full precision (round-trips bit-exactly).

    Raises ``ValueError`` for ``names`` that would not read back: one with
    whitespace at either end or a line break, all numbers or all empty (a
    data row or a blank line to the reader), or not one name per column.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if names is not None:
        for name in names:
            if name != name.strip() or "\n" in name or "\r" in name:
                raise ValueError(f"column name {name!r} has whitespace at either end or a line break")
        if all(map(_is_number, names)) or not any(names):
            raise ValueError(f"column names {names!r} would read back as a data row or a blank line")
        if len(names) != values.shape[1]:
            raise ValueError(f"{len(names)} column names for {values.shape[1]} columns")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if names is not None:
            writer.writerow(names)
        for row in values:
            writer.writerow([_float_repr(v) for v in row])


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return None
        return x
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return _jsonable(float(x))
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def build_report(
    fit: ConstrainedFit,
    *,
    diagnostics: DirectionalDiagnostics | None = None,
    classical: ClassicalReport | None = None,
    column_names: list[str] | None = None,
    seed: int | None = None,
) -> dict:
    """Assemble the machine-readable test report (schema ``report-v1``) of
    one fit: its case, sizes, degrees of freedom and degeneracy flag, the
    directional test's entry when ``diagnostics`` is given and one entry
    per method of ``classical``."""
    methods = {}
    diag = None
    if diagnostics is not None:
        methods["dt"] = {"p_value": diagnostics.p_value, "statistic": None}
        diag = dataclasses.asdict(diagnostics)
        del diag["p_value"]  # reported under methods
    if classical is not None:
        for m, p_value in classical.pvalues.items():
            methods[m] = {"p_value": p_value, "statistic": classical.statistics[m]}
    report = {
        "schema": SCHEMA_ID,
        "case": fit.hypothesis.tag,
        "n": [s.n for s in fit.summaries],
        "p": fit.p,
        "k": fit.k,
        "d": fit.d,
        "degenerate": fit.degenerate,
        "methods": methods,
        "diagnostics": diag,
        "column_names": column_names,
        "seed": seed,
    }
    if classical is not None:
        report["w"] = classical.w
        report["log_gamma"] = classical.log_gamma
        report["e_w_hat"] = classical.e_w_hat
    return _jsonable(report)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        key = prefix[:-1]
        if isinstance(obj, float):
            yield key, _float_repr(obj)
        else:
            yield key, "" if obj is None else str(obj)


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for key, value in _flatten(report):
        writer.writerow([key, value])
    return buf.getvalue()


def render_pretty(report: dict) -> str:
    """Human-readable rendering; not the machine format."""
    lines = [
        f"case {report['case']}  n={','.join(str(x) for x in report['n'])}  "
        f"p={report['p']}  d={report['d']}"
    ]
    if report.get("degenerate"):
        lines.append("observed data sit exactly at the null expectation; all p-values are 1")
    lines.append(f"{'method':<8}{'statistic':>16}{'p-value':>12}")
    for name, entry in sorted(report["methods"].items()):
        stat = entry.get("statistic")
        stat_s = f"{stat:16.6g}" if isinstance(stat, (int, float)) else f"{'-':>16}"
        lines.append(f"{name:<8}{stat_s}{entry['p_value']:12.4g}")
    diag = report.get("diagnostics")
    if diag:
        parts = [f"{k}={diag[k]:.6g}" for k in ("t_sup", "t_hat", "t_min", "t_max")
                 if isinstance(diag.get(k), (int, float))]
        lines.append("directional: " + "  ".join(parts))
    return "\n".join(lines) + "\n"


def write_study_outputs(result, out_dir) -> None:
    """Write the study summary table and per-method ECDF files.

    ``summary.csv`` holds ``(method, metric, value)`` rows; each
    ``ecdf_<method>.csv`` holds the sorted p-values against the empirical
    CDF.  Output is a pure function of the study result (no timestamps), so
    repeated runs are byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[tuple[str, str, str]] = []
    rows.append(("study", "case", result.spec.case))
    rows.append(("study", "reps", str(result.spec.reps)))
    rows.append(("study", "failures", str(result.failures)))
    rows.append(("study", "alpha", _float_repr(result.spec.alpha)))
    if result.e_w_hat is not None:
        rows.append(("bc", "e_w_hat", _float_repr(result.e_w_hat)))
    for label, table in (
        ("estimated_type1", result.estimated_type1),
        ("corrected_cutoff", result.corrected_cutoffs),
        ("power", result.power),
        ("corrected_power", result.corrected_power),
    ):
        if table:
            for m in sorted(table):
                rows.append((m, label, _float_repr(table[m])))
    if result.ks_statistic is not None:
        rows.append(("dt", "ks_statistic", _float_repr(result.ks_statistic)))
        rows.append(("dt", "ks_pvalue", _float_repr(result.ks_pvalue)))
    with (out / "summary.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "metric", "value"])
        writer.writerows(rows)

    for m, values in result.pvalues.items():
        good = np.sort(values[~np.isnan(values)])
        ecdf = np.arange(1, good.size + 1) / good.size if good.size else np.array([])
        with (out / f"ecdf_{m}.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p_value", "empirical_cdf"])
            for v, e in zip(good, ecdf):
                writer.writerow([_float_repr(float(v)), _float_repr(float(e))])
