"""Stable file contracts: JSON robustness reports, CSV matrices and tables.

Each dataclass here is the only definition of its file format: writers
emit its fields in declaration order, and readers type-check every field
against the dataclass's annotations and reject unknown or missing fields,
so schema drift fails loudly. All floats are written with shortest
round-trip precision.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .balancer import BalanceTrace
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
        n, idx = self.n, self.nu_lower.indices
        if len(self.nubar_scaling) != n:
            raise ValidationError(f"inconsistent report: {len(self.nubar_scaling)} scaling weights, n is {n}")
        if not idx or idx[0] < 1 or idx[-1] > n or any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValidationError(f"inconsistent report: subset {list(idx)} is not increasing in 1..{n}")
        if self.nu_exact is not None and len(self.nu_exact.witness) != n:
            raise ValidationError(f"inconsistent report: {len(self.nu_exact.witness)} witness gains, n is {n}")
        slack = 1e-6
        if self.nu_lower.bound > self.nubar * (1.0 + slack):
            raise ValidationError("inconsistent report: subset bound exceeds the scaling bound")
        if self.nubar > self.mu * (1.0 + slack):
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


@dataclass(frozen=True)
class _SystemEntry:
    i: int
    j: int
    impulse: tuple[float, ...]


@dataclass(frozen=True)
class _SystemFile:
    n: int
    entries: tuple[_SystemEntry, ...]


def _fmt(value: float) -> str:
    return repr(float(value))


@contextmanager
def _readable(path):
    """Report a file that cannot be opened or is not UTF-8 text (after an
    optional byte-order mark, ``utf-8-sig``) as invalid input naming ``path``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read: {exc}") from None


def read_matrix(path) -> MagnitudeMatrix:
    """Parse a headerless CSV of nonnegative decimal entries into a square
    magnitude matrix."""
    rows: list[list[float]] = []
    linenos: list[int] = []  # the file line of each row; blank lines hold none
    with _readable(path), open(path, newline="", encoding="utf-8-sig") as fh:
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
                        f"{path}: negative entry at row {len(rows) + 1}, column {col} (line {lineno})"
                    )
                row.append(value)
            rows.append(row)
            linenos.append(lineno)
    if not rows:
        raise ValidationError(f"{path}: empty matrix file")
    width = len(rows[0])
    for lineno, row in zip(linenos, rows):
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


def _load_json(path):
    with _readable(path), open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    unknown = set(obj) - keys
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")
    missing = keys - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing fields {sorted(missing)}")


def _read(tp, value, where: str):
    """Read the parsed JSON ``value`` as an instance of the annotation ``tp``.

    Dataclasses read from objects with exactly their fields, ``X | None``
    from null or an ``X``, ``tuple[T, ...]`` from a list, ``float`` from a
    finite number, and ``int``, ``bool`` and ``str`` only from their own
    JSON type, so a bool never counts as a number.
    """
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValidationError(f"{where}: expected an object, got {value!r}")
        hints = get_type_hints(tp)
        _require_keys(value, set(hints), where)
        return tp(**{k: _read(t, value[k], f"{where}: {k}") for k, t in hints.items()})
    args = get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _read(inner, value, where)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{where}: expected a list, got {value!r}")
        return tuple(_read(args[0], v, f"{where}[{k}]") for k, v in enumerate(value))
    if tp is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    if type(value) is not tp:
        raise ValidationError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value


def read_system(path) -> FirSystem:
    """Parse the impulse-response JSON description of an interconnection."""
    system = _read(_SystemFile, _load_json(path), str(path))
    entries: dict[tuple[int, int], tuple[float, ...]] = {}
    for e in system.entries:
        if (e.i, e.j) in entries:
            raise ValidationError(f"{path}: duplicate entry for ({e.i}, {e.j})")
        entries[(e.i, e.j)] = e.impulse
    return FirSystem(n=system.n, entries=entries)


def write_report(report: RobustnessReport, path) -> None:
    Path(path).write_text(report_json(report) + "\n")


def report_json(report: RobustnessReport) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **vars(report)}, default=vars, indent=2)


def read_report(path) -> RobustnessReport:
    data = _load_json(path)
    schema = data.pop("schema", None) if isinstance(data, dict) else None
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ValidationError(f"{path}: unsupported schema {schema!r}")
    return _read(RobustnessReport, data, str(path))


def table_csv(cls, records) -> str:
    """CSV text of dataclass records: a header of ``cls``'s field names, then
    one row per record, int fields through ``str`` and float fields at
    shortest round-trip precision."""
    hints = get_type_hints(cls)
    cells = [(name, str if tp is int else _fmt) for name, tp in hints.items()]
    lines = [",".join(fmt(getattr(r, name)) for name, fmt in cells) for r in records]
    return "\n".join([",".join(hints), *lines])


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
