"""Command-line entry point for the robustness analyses.

Subcommands: analyze, balance, grid2x2, bench, ring. Machine-readable output
goes to stdout or --out; logs go to stderr. Exit codes: 0 success, 2 input
validation failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .balancer import StudyRow, convergence_study, heuristic_balance
from .errors import ValidationError
from .magnitude import MagnitudeMatrix, magnitude_matrix
from .nu_exact import (
    METHOD_RING,
    NuResult,
    nu_2x2,
    nu_oracle,
    nu_ring,
    ring_matrix,
)
from .nubar import _balanced_scaling, _cycle_mean_potentials, _nubar_result, nubar_exact
from .report_io import (
    Grid2x2Record,
    NuSummary,
    ReportDiagnostics,
    ReportRatios,
    RobustnessReport,
    SubsetSummary,
    grid_plot_script,
    read_matrix,
    read_system,
    report_json,
    study_plot_script,
    table_csv,
    write_trace,
)
from .spectral import _subset_bound, spectral_radius

log = logging.getLogger("nu_analyzer")


def build_report(
    M,
    subset_max: int | None = None,
    oracle: bool = False,
    nu_result: NuResult | None = None,
) -> RobustnessReport:
    """Assemble the full robustness report for one magnitude matrix: one nubar
    front half serves the balanced scaling and the subset bound, whose screen
    reads ``mu`` off the nubar-normalized matrix (``spectral._screen``)."""
    m = M if isinstance(M, MagnitudeMatrix) else MagnitudeMatrix(M)
    a, n = m.m, m.n
    # a cap above n admits every subset, as n itself does
    subset_max = min(n, 12) if subset_max is None else min(subset_max, n)
    front = _cycle_mean_potentials(a)
    bal = _nubar_result(a, _balanced_scaling, front)
    lower, mu = _subset_bound(a, subset_max, front)

    if nu_result is None and oracle:
        if n == 2:
            nu_result = nu_2x2(a)
        elif n <= 4:
            nu_result = nu_oracle(a)
        else:
            log.warning("oracle requested but n=%d exceeds 4; skipping exact value", n)
    nu_summary = None
    if nu_result is not None:
        nu_summary = NuSummary(
            value=nu_result.value,
            method=nu_result.method,
            witness=tuple(float(v) for v in nu_result.witness_delta),
        )

    # nubar is exactly zero only on acyclic support: on a cycle it is a
    # geometric mean of positive entries, at least the smallest of them
    acyclic = bal.value == 0.0
    diag_max = bool(bal.value > 0 and float(np.diag(a).max()) >= bal.value * (1 - 1e-9))
    ratios = ReportRatios(
        nubar_over_nu_lower=_ratio(bal.value, lower.bound),
        mu_over_nubar=_ratio(mu, bal.value),
    )
    try:
        return RobustnessReport(
            n=n,
            mu=mu,
            nubar=bal.value,
            nubar_scaling=tuple(float(v) for v in bal.scaling.d),
            nubar_certified=bal.certified,
            nu_lower=SubsetSummary(bound=lower.bound, indices=lower.indices, exhaustive=lower.exhaustive),
            nu_exact=nu_summary,
            ratios=ratios,
            diagnostics=ReportDiagnostics(diagonally_maximal=diag_max, acyclic=acyclic),
        )
    except ValidationError as exc:
        # the input was valid, so a broken measure chain is a solver fault
        raise RuntimeError(str(exc)) from exc


def _ratio(num: float, den: float) -> float | None:
    """num / den, or None where the quotient is undefined (den is 0) or
    overflows, neither of which a report can hold."""
    if den > 0.0 and math.isfinite(num / den):
        return num / den
    return None


def grid_records(steps: int) -> list[Grid2x2Record]:
    """Measure comparison on the symmetric grid [[x, w], [w, y]] over [0,1]^3."""
    if steps < 2:
        raise ValidationError(f"grid needs at least 2 steps per axis, got {steps}")
    axis = np.linspace(0.0, 1.0, steps)
    records = []
    for x in axis:
        for w in axis:
            for y in axis:
                m = np.array([[x, w], [w, y]])
                mu_val = spectral_radius(m).rho
                nubar_val = nubar_exact(m).value
                nu_val = nu_2x2(m).value
                ratio_mu = mu_val / nu_val if nu_val > 0 else 1.0
                ratio_nubar = nubar_val / nu_val if nu_val > 0 else 1.0
                records.append(
                    Grid2x2Record(
                        x=float(x),
                        w=float(w),
                        y=float(y),
                        mu=mu_val,
                        nu=nu_val,
                        nubar=nubar_val,
                        ratio_mu_nu=ratio_mu,
                        ratio_nubar_nu=ratio_nubar,
                    )
                )
    return records


def _load_matrix(path: str) -> MagnitudeMatrix:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return read_matrix(path)
    if suffix == ".json":
        return magnitude_matrix(read_system(path))
    raise ValidationError(f"{path}: expected a .csv matrix or .json system description")


def _check_output_paths(args) -> None:
    """Reject, before any work is done, an ``--out`` or ``--trace`` path that
    is a directory or lies in a missing one; a ``.gp`` companion goes next
    to it."""
    for path in (args.out, getattr(args, "trace", None)):
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ValidationError(f"{path}: not a file path in an existing directory")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_analyze(args) -> int:
    m = _load_matrix(args.path)
    report = build_report(m, subset_max=args.subset_max, oracle=args.oracle)
    _emit(report_json(report), args.out)
    if args.out:
        log.info("report written to %s", args.out)
    return 0


def _cmd_balance(args) -> int:
    m = _load_matrix(args.path)
    trace = heuristic_balance(m, theta=args.theta, max_iter=args.max_iter, tol=args.tol)
    if args.trace:
        write_trace(trace, args.trace)
        log.info("trace written to %s", args.trace)
    summary = {
        "n": int(trace.final.shape[0]),
        "theta": args.theta,
        "updates": trace.updates,
        "objective": trace.objective,
        "converged": trace.converged,
        "oscillating": trace.oscillating,
        "note": "oscillation detected" if trace.oscillating else None,
    }
    _emit(json.dumps(summary, indent=2), args.out)
    if trace.oscillating:
        log.warning("oscillation detected; consider a step parameter below 1")
    return 0


def _cmd_grid2x2(args) -> int:
    _emit(table_csv(Grid2x2Record, grid_records(args.steps)), args.out)
    if args.out:
        Path(args.out).with_suffix(".gp").write_text(grid_plot_script(args.out) + "\n")
        log.info("grid written to %s", args.out)
    return 0


def _list_flag(text: str, flag: str, convert) -> list:
    """Comma-separated values of one flag, each through ``convert``."""
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _cmd_bench(args) -> int:
    thetas = _list_flag(args.thetas, "--thetas", float)
    if args.mode == "tol":
        ns = _list_flag(args.ns, "--ns", int) if args.ns else [128]
        tols = _list_flag(args.tols, "--tols", float) if args.tols else list(np.logspace(-1, -6, 11))
    else:
        ns = _list_flag(args.ns, "--ns", int) if args.ns else [2, 4, 8, 16, 32, 64, 128]
        tols = _list_flag(args.tols, "--tols", float) if args.tols else [1e-3]
    rows = convergence_study(
        ns=ns,
        trials=args.trials,
        thetas=thetas,
        tol_grid=tols,
        seed=args.seed,
        max_iter=args.max_iter,
        dist=args.dist,
        density=args.density,
    )
    _emit(table_csv(StudyRow, rows), args.out)
    if args.out:
        Path(args.out).with_suffix(".gp").write_text(study_plot_script(args.out) + "\n")
        log.info("study written to %s", args.out)
    return 0


def _cmd_ring(args) -> int:
    if args.n is not None and args.n < 1:
        raise ValidationError(f"--n must be at least 1, got {args.n}")
    weights = (
        np.array(_list_flag(args.weights, "--weights", float))
        if args.weights
        else np.ones(args.n)
    )
    if args.n and weights.shape[0] != args.n:
        raise ValidationError(
            f"--weights has {weights.shape[0]} values but --n is {args.n}"
        )
    m = ring_matrix(weights)
    report = build_report(m, nu_result=nu_ring(weights))
    assert report.nu_exact is not None and report.nu_exact.method == METHOD_RING
    _emit(report_json(report), args.out)
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nu-analyzer",
        description="Robustness measures for nonnegative magnitude matrices",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full robustness report for a matrix or system file")
    p.add_argument("path")
    p.add_argument("--oracle", action="store_true", help="include the exact value (n <= 4)")
    p.add_argument("--subset-max", type=int, default=None, help="largest subset size searched")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("balance", help="run the iterative balancing heuristic")
    p.add_argument("path")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--trace", default=None, help="write the per-iteration CSV here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("grid2x2", help="measure comparison grid for symmetric 2x2 matrices")
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_grid2x2)

    p = sub.add_parser("bench", help="balancing convergence study")
    p.add_argument("--mode", choices=["tol", "size"], default="tol")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--thetas", default="0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--ns", default=None, help="comma-separated dimensions")
    p.add_argument("--tols", default=None, help="comma-separated tolerances")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--dist", choices=["uniform", "sparse"], default="uniform")
    p.add_argument("--density", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("ring", help="report for a cycle interconnection")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--weights", default=None, help="comma-separated arc gains")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ring)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s", force=True
    )
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "ring" and args.n is None and args.weights is None:
        parser.error("ring needs --n or --weights")
    try:
        _check_output_paths(args)
        return args.func(args)
    except ValidationError as exc:
        log.error("%s", exc)
        return 2
    except Exception:
        log.exception("internal error")
        return 1


if __name__ == "__main__":
    sys.exit(main())
