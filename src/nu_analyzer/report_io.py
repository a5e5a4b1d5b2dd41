"""Stable file contracts: JSON robustness reports, CSV matrices and tables.

All floats are written with shortest round-trip precision; readers are
strict and reject unknown fields so schema drift fails loudly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .balancer import BalanceTrace, StudyRow
from .errors import ValidationError
from .magnitude import FirSystem, MagnitudeMatrix

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SubsetSummary:
    bound: float
    indices: tuple[int, ...]
    exhaustive: bool


@dataclass(frozen=True)
class NuSummary:
    value: float
    method: str
    witness: tuple[float, ...]


@dataclass(frozen=True)
class ReportRatios:
    nubar_over_nu_lower: float | None
    mu_over_nubar: float | None


@dataclass(frozen=True)
class ReportDiagnostics:
    diagonally_maximal: bool
    acyclic: bool


@dataclass(frozen=True)
class RobustnessReport:
    n: int
    mu: float
    nubar: float
    nubar_scaling: tuple[float, ...]
    nubar_certified: bool
    nu_lower: SubsetSummary
    nu_exact: NuSummary | None
    ratios: ReportRatios
    diagnostics: ReportDiagnostics

    def __post_init__(self) -> None:
        slack = 1e-6
        if self.nu_lower.bound > self.nubar * (1.0 + slack) + slack * 1e-12:
            raise ValidationError("inconsistent report: subset bound exceeds the scaling bound")
        if self.nubar > self.mu * (1.0 + slack) + slack * 1e-12:
            raise ValidationError("inconsistent report: scaling bound exceeds the spectral bound")


@dataclass(frozen=True)
class Grid2x2Record:
    """One point of the symmetric 2x2 comparison grid.

    Ratios default to 1 for the all-zero matrix, where every measure is 0.
    """

    x: float
    w: float
    y: float
    mu: float
    nu: float
    nubar: float
    ratio_mu_nu: float
    ratio_nubar_nu: float


GRID_FIELDS = ["x", "w", "y", "mu", "nu", "nubar", "ratio_mu_nu", "ratio_nubar_nu"]
STUDY_FIELDS = ["n", "theta", "tol", "max_iters", "median_iters", "failures"]


def _fmt(value: float) -> str:
    return repr(float(value))


def read_matrix(path) -> MagnitudeMatrix:
    """Parse a headerless CSV of nonnegative decimal entries into a square
    magnitude matrix."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            row = []
            for col, cell in enumerate(record, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}, field {col}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValidationError(f"{path}: line {lineno}, field {col}: non-finite value")
                if value < 0:
                    raise ValidationError(
                        f"{path}: negative entry at row {lineno}, column {col}"
                    )
                row.append(value)
            rows.append(row)
    if not rows:
        raise ValidationError(f"{path}: empty matrix file")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValidationError(
                f"{path}: line {lineno} has {len(row)} fields, expected {width}"
            )
    if len(rows) != width:
        raise ValidationError(f"{path}: matrix must be square, got {len(rows)}x{width}")
    return MagnitudeMatrix(np.array(rows))


def write_matrix(M, path) -> None:
    a = M.m if isinstance(M, MagnitudeMatrix) else np.asarray(M, dtype=float)
    with open(path, "w", newline="") as fh:
        for row in a:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_system(path) -> FirSystem:
    """Parse the impulse-response JSON description of an interconnection."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    unknown = set(data) - {"n", "entries"}
    if unknown:
        raise ValidationError(f"{path}: unknown fields {sorted(unknown)}")
    if "n" not in data or "entries" not in data:
        raise ValidationError(f"{path}: system file needs 'n' and 'entries'")
    n = data["n"]
    if not isinstance(n, int):
        raise ValidationError(f"{path}: 'n' must be an integer")
    entries: dict[tuple[int, int], tuple[float, ...]] = {}
    if not isinstance(data["entries"], list):
        raise ValidationError(f"{path}: 'entries' must be a list")
    for pos, item in enumerate(data["entries"]):
        if not isinstance(item, dict) or set(item) != {"i", "j", "impulse"}:
            raise ValidationError(
                f"{path}: entry {pos}: expected keys i, j, impulse"
            )
        i, j, impulse = item["i"], item["j"], item["impulse"]
        if not (isinstance(i, int) and isinstance(j, int)):
            raise ValidationError(f"{path}: entry {pos}: indices must be integers")
        if not isinstance(impulse, list):
            raise ValidationError(f"{path}: entry {pos}: impulse must be a list of numbers")
        if (i, j) in entries:
            raise ValidationError(f"{path}: duplicate entry for ({i}, {j})")
        entries[(i, j)] = tuple(float(c) for c in impulse)
    return FirSystem(n=n, entries=entries)


def _report_to_dict(report: RobustnessReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": report.n,
        "mu": report.mu,
        "nubar": report.nubar,
        "nubar_scaling": list(report.nubar_scaling),
        "nubar_certified": report.nubar_certified,
        "nu_lower": {
            "bound": report.nu_lower.bound,
            "indices": list(report.nu_lower.indices),
            "exhaustive": report.nu_lower.exhaustive,
        },
        "nu_exact": None
        if report.nu_exact is None
        else {
            "value": report.nu_exact.value,
            "method": report.nu_exact.method,
            "witness": list(report.nu_exact.witness),
        },
        "ratios": {
            "nubar_over_nu_lower": report.ratios.nubar_over_nu_lower,
            "mu_over_nubar": report.ratios.mu_over_nubar,
        },
        "diagnostics": {
            "diagonally_maximal": report.diagnostics.diagonally_maximal,
            "acyclic": report.diagnostics.acyclic,
        },
    }


def write_report(report: RobustnessReport, path) -> None:
    Path(path).write_text(report_json(report) + "\n")


def report_json(report: RobustnessReport) -> str:
    return json.dumps(_report_to_dict(report), indent=2)


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    unknown = set(obj) - keys
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")
    missing = keys - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing fields {sorted(missing)}")


def read_report(path) -> RobustnessReport:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    where = str(path)
    _require_keys(
        data,
        {
            "schema",
            "n",
            "mu",
            "nubar",
            "nubar_scaling",
            "nubar_certified",
            "nu_lower",
            "nu_exact",
            "ratios",
            "diagnostics",
        },
        where,
    )
    if data["schema"] != SCHEMA_VERSION:
        raise ValidationError(f"{where}: unsupported schema {data['schema']!r}")
    _require_keys(data["nu_lower"], {"bound", "indices", "exhaustive"}, f"{where}: nu_lower")
    _require_keys(data["ratios"], {"nubar_over_nu_lower", "mu_over_nubar"}, f"{where}: ratios")
    _require_keys(
        data["diagnostics"], {"diagonally_maximal", "acyclic"}, f"{where}: diagnostics"
    )
    nu_exact = None
    if data["nu_exact"] is not None:
        _require_keys(data["nu_exact"], {"value", "method", "witness"}, f"{where}: nu_exact")
        nu_exact = NuSummary(
            value=float(data["nu_exact"]["value"]),
            method=str(data["nu_exact"]["method"]),
            witness=tuple(float(v) for v in data["nu_exact"]["witness"]),
        )
    return RobustnessReport(
        n=int(data["n"]),
        mu=float(data["mu"]),
        nubar=float(data["nubar"]),
        nubar_scaling=tuple(float(v) for v in data["nubar_scaling"]),
        nubar_certified=bool(data["nubar_certified"]),
        nu_lower=SubsetSummary(
            bound=float(data["nu_lower"]["bound"]),
            indices=tuple(int(i) for i in data["nu_lower"]["indices"]),
            exhaustive=bool(data["nu_lower"]["exhaustive"]),
        ),
        nu_exact=nu_exact,
        ratios=ReportRatios(
            nubar_over_nu_lower=data["ratios"]["nubar_over_nu_lower"],
            mu_over_nubar=data["ratios"]["mu_over_nubar"],
        ),
        diagnostics=ReportDiagnostics(
            diagonally_maximal=bool(data["diagnostics"]["diagonally_maximal"]),
            acyclic=bool(data["diagnostics"]["acyclic"]),
        ),
    )


def grid_csv(records: list[Grid2x2Record]) -> str:
    lines = [",".join(_fmt(getattr(r, f)) for f in GRID_FIELDS) for r in records]
    return "\n".join([",".join(GRID_FIELDS), *lines])


def write_grid(records: list[Grid2x2Record], path) -> None:
    Path(path).write_text(grid_csv(records) + "\n")


def study_csv(rows: list[StudyRow]) -> str:
    lines = [
        f"{r.n},{_fmt(r.theta)},{_fmt(r.tol)},{r.max_iters},{r.median_iters},{r.failures}"
        for r in rows
    ]
    return "\n".join([",".join(STUDY_FIELDS), *lines])


def write_study(rows: list[StudyRow], path) -> None:
    Path(path).write_text(study_csv(rows) + "\n")


def write_trace(trace: BalanceTrace, path) -> None:
    """Per-iteration CSV; per-node weight columns included for small systems."""
    n = trace.final.shape[0]
    with_d = n <= 16
    header = ["t", "objective", "rel_change"] + ([f"d{k + 1}" for k in range(n)] if with_d else [])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for step in trace.iterations:
            cells = [str(step.t), _fmt(step.objective), _fmt(step.rel_change)]
            if with_d:
                cells += [_fmt(v) for v in step.d]
            fh.write(",".join(cells) + "\n")


def grid_plot_script(csv_path: str) -> str:
    """Companion gnuplot text for a ratio grid table. Never executed here."""
    return "\n".join(
        [
            "# plot script for the 2x2 ratio grid; run with gnuplot if desired",
            "set datafile separator ','",
            "set key autotitle columnhead",
            "set xlabel 'x'",
            "set ylabel 'y'",
            "set cblabel 'upper bound / exact'",
            "set view map",
            f"splot '{csv_path}' using 1:3:8 with points palette pt 5",
        ]
    )


def study_plot_script(csv_path: str) -> str:
    """Companion gnuplot text for a convergence study table."""
    return "\n".join(
        [
            "# plot script for the balancing convergence study; run with gnuplot if desired",
            "set datafile separator ','",
            "set key autotitle columnhead",
            "set logscale x",
            "set xlabel 'tolerance'",
            "set ylabel 'iterations'",
            f"plot '{csv_path}' using 3:4 with linespoints",
        ]
    )
