"""Batch command-line front end.

Two subcommands: ``test`` evaluates the requested tests on data files and
writes a machine-readable report; ``simulate`` runs a Monte Carlo study and
writes summary plus ECDF plot data.  Exit codes: 0 success, 1 input error,
2 statistical degeneracy, reported rather than crashed: the data sit at the
null expectation (every p-value 1) or a statistic is undefined on them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import report as report_io
from .classical import classical_report
from .directional import directional_pvalue
from .exceptions import DegenerateNullError, DirnormalError
from .hypotheses import HYPOTHESES, BlockIndependence, SpecifiedMeanCov, ZeroPattern, fit_hypothesis
from .simulation import ALTERNATIVES, CASES, METHODS, ScenarioSpec, bartlett_bootstrap, run_study


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip().lower() for m in text.split(",") if m.strip())
    bad = set(methods) - set(METHODS)
    if bad:
        raise DirnormalError(f"unknown methods: {', '.join(sorted(bad))}")
    if not methods:
        raise DirnormalError("no methods requested")
    return methods


def _load_groups(args) -> tuple[list[np.ndarray], list[str] | None]:
    """Group data come either as one file per group or as a single file
    with a designated group column."""
    matrices = []
    names = None
    for path in args.data:
        if not Path(path).exists():
            raise DirnormalError(f"data file not found: {path}")
        values, file_names = report_io.read_data_csv(path)
        matrices.append(values)
        names = names or file_names
    if args.group_col is None:
        return matrices, names
    if len(matrices) != 1:
        raise DirnormalError("--group-col takes a single data file")
    if names is None or args.group_col not in names:
        raise DirnormalError(f"group column {args.group_col!r} not found in header")
    col = names.index(args.group_col)
    values = matrices[0]
    labels = values[:, col]
    bad = labels[~np.isfinite(labels)]
    if bad.size:
        raise DirnormalError(f"group column {args.group_col!r} holds a label that is not a "
                             f"finite number: {bad[0]}")
    keep = [j for j in range(values.shape[1]) if j != col]
    # distinct labels in order of first appearance
    distinct, first = np.unique(labels, return_index=True)
    groups = [values[labels == v][:, keep] for v in distinct[np.argsort(first)]]
    return groups, [names[j] for j in keep]


def _build_hypothesis(args):
    case = args.case
    if case == "c2":
        if not args.blocks:
            raise DirnormalError("case c2 requires --blocks p1,p2,...")
        sizes = tuple(int(s) for s in args.blocks.split(","))
        return BlockIndependence(sizes)
    if case == "c5":
        if not (args.mu0 and args.lambda0):
            raise DirnormalError("case c5 requires --mu0 FILE and --lambda0 FILE")
        return SpecifiedMeanCov(
            report_io.read_vector_csv(args.mu0),
            report_io.read_matrix_csv(args.lambda0),
        )
    if case == "pattern":
        if not args.pattern:
            raise DirnormalError("case pattern requires --pattern FILE with 1-based 'i,j' zero pairs")
        return ZeroPattern(report_io.read_pattern_csv(args.pattern))
    return HYPOTHESES[case]()


def run_test_command(args) -> int:
    methods = _parse_methods(args.methods)
    if "bc" in methods and args.bc_reps < 50:
        raise DirnormalError("--bc-reps must be at least 50")
    groups, column_names = _load_groups(args)
    if HYPOTHESES[args.case].grouped:
        if len(groups) < 2:
            raise DirnormalError(f"case {args.case} needs at least two groups")
        data = groups
    else:
        if len(groups) != 1:
            raise DirnormalError(f"case {args.case} takes a single data file")
        data = groups[0]
    fit = fit_hypothesis(_build_hypothesis(args), data)
    diagnostics = directional_pvalue(fit)[1] if "dt" in methods else None
    classic = tuple(m for m in methods if m != "dt")
    classical = None
    if classic:
        # degenerate data report every p-value as 1, so the draws are skipped
        e_w_hat = None
        if "bc" in classic and not fit.degenerate:
            e_w_hat = bartlett_bootstrap(fit, args.bc_reps, args.seed)
        classical = classical_report(fit, classic, e_w_hat=e_w_hat)
    report = report_io.build_report(fit, diagnostics=diagnostics, classical=classical,
                                    column_names=column_names, seed=args.seed)
    text = report_io.report_to_json(report) if args.format == "json" else report_io.report_to_csv(report)
    Path(args.out).write_text(text, encoding="utf-8")
    if args.pretty:
        sys.stdout.write(report_io.render_pretty(report))
    return 2 if fit.degenerate else 0


def run_simulate_command(args) -> int:
    methods = _parse_methods(args.methods)
    sizes = tuple(int(s) for s in args.n.split(","))
    n = sizes if HYPOTHESES[args.case].grouped or len(sizes) > 1 else sizes[0]
    strength = {field.name: getattr(args, field.name) for field in dataclasses.fields(ALTERNATIVES[args.alt])}
    for name, value in strength.items():
        if value is None:
            raise DirnormalError(f"--alt {args.alt} requires --{name}")
    spec = ScenarioSpec(
        case=args.case,
        n=n,
        p=args.p,
        alternative=ALTERNATIVES[args.alt](**strength),
        reps=args.reps,
        seed=args.seed,
        methods=methods,
        bootstrap_reps=args.bc_reps,
        alpha=args.alpha,
    )
    result = run_study(spec)
    report_io.write_study_outputs(result, args.out)
    sys.stdout.write(
        f"case {spec.case} p={spec.p} reps={spec.reps} failures={result.failures} "
        f"elapsed={result.elapsed_seconds:.1f}s -> {args.out}\n"
    )
    return 0


def _add_test_parser(sub) -> None:
    q = sub.add_parser("test", help="run the tests on data files")
    q.add_argument("--case", required=True, choices=tuple(HYPOTHESES))
    q.add_argument("--data", action="append", required=True, help="CSV data file (repeat for groups)")
    q.add_argument("--group-col", default=None, help="column holding group labels")
    q.add_argument("--blocks", default=None, help="comma-separated block sizes (case c2)")
    q.add_argument("--mu0", default=None, help="CSV vector file (case c5)")
    q.add_argument("--lambda0", default=None, help="CSV symmetric matrix file (case c5)")
    q.add_argument("--pattern", default=None, help="CSV of 1-based 'i,j' zero pairs (case pattern)")
    q.add_argument("--methods", default="dt,lrt,sko1,sko2")
    q.add_argument("--bc-reps", type=int, default=500)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--format", choices=("json", "csv"), default="json")
    q.add_argument("--pretty", action="store_true", help="also print a human-readable table")


def _add_simulate_parser(sub) -> None:
    q = sub.add_parser("simulate", help="run a Monte Carlo study")
    q.add_argument("--case", required=True, choices=tuple(CASES))
    q.add_argument("--n", required=True, help="sample size, or comma-separated group sizes")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--reps", type=int, required=True)
    q.add_argument("--alt", choices=tuple(ALTERNATIVES), default="null")
    q.add_argument("--delta", type=float, default=None, help="strength of --alt local")
    q.add_argument("--eta", type=float, default=None, help="strength of --alt extreme")
    q.add_argument("--alpha", type=float, default=0.05)
    q.add_argument("--methods", default="dt")
    q.add_argument("--bc-reps", type=int, default=500)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True, help="output directory")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state on it between calls."""
    parser = argparse.ArgumentParser(prog="dirnormal")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_test_parser(sub)
    _add_simulate_parser(sub)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "test":
            return run_test_command(args)
        return run_simulate_command(args)
    except DegenerateNullError as exc:
        sys.stderr.write(f"degenerate: {exc}\n")
        return 2
    except (DirnormalError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
