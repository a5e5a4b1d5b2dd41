"""Output checks for the benchmark, using numpy and the standard library only.

Each check returns a list of problems; an empty list means the output passed.
Reports are read by key, and only the keys that schema 1 and schema 2 share
(``mu``, ``nubar``, ``nubar_scaling``, ``nu_lower``) are used.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

STUDY_COLUMNS = ("n", "theta", "tol", "max_iters", "median_iters", "failures")


def read_matrix_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def max_cycle_geomean(a: np.ndarray) -> float:
    """Largest cycle geometric mean of the support graph; 0.0 if it is acyclic.

    Karp's theorem with a virtual source joined to every node by a zero-weight
    arc: D[k, v] is the heaviest walk of exactly k arcs ending at v, and the
    maximum cycle mean is max_v min_k (D[n, v] - D[k, v]) / (n - k) over the
    nodes with a walk of length n.
    """
    n = a.shape[0]
    with np.errstate(divide="ignore"):
        w = np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), -np.inf)
    d = np.empty((n + 1, n))
    d[0] = 0.0
    for k in range(n):
        d[k + 1] = (d[k][:, None] + w).max(axis=0)
    valid = np.isfinite(d[n])
    if not valid.any():
        return 0.0  # no walk of length n: the support graph has no cycle
    steps = (n - np.arange(n, dtype=float))[:, None]
    per_node = ((d[n][None, valid] - d[:n, valid]) / steps).min(axis=0)
    return float(np.exp(per_node.max()))


def _rho(a: np.ndarray) -> float:
    if max_cycle_geomean(a) == 0.0:
        return 0.0  # nilpotent; eigvals would return rounding noise
    return float(np.abs(np.linalg.eigvals(a)).max())


def _close(value: float, ref: float, rel: float) -> bool:
    return value == ref or abs(value - ref) <= rel * max(abs(value), abs(ref))


def check_analyze(matrix_path: Path, report_path: Path) -> list[str]:
    """Check one ``analyze`` report against numpy references."""
    try:
        data = json.loads(report_path.read_text())
        schema = data["schema"]
        mu = float(data["mu"])
        nubar = float(data["nubar"])
        scaling = np.asarray(data["nubar_scaling"], dtype=float)
        bound = float(data["nu_lower"]["bound"])
        indices = [int(i) - 1 for i in data["nu_lower"]["indices"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    if schema not in (1, 2):
        problems.append(f"unknown schema {schema!r}")
    a = read_matrix_csv(matrix_path)
    n = a.shape[0]

    nubar_ref = max_cycle_geomean(a)
    if not _close(nubar, nubar_ref, 1e-9):
        problems.append(f"nubar {nubar!r} != max cycle geometric mean {nubar_ref!r}")

    # the nubar scaling is a diagonal similarity: same eigenvalues, and the
    # scaled entries are bounded by nubar, which keeps eigvals accurate
    scaled = a
    if scaling.shape == (n,) and np.all(np.isfinite(scaling)) and np.all(scaling > 0):
        scaled = a * scaling[:, None] / scaling[None, :]
    mu_ref = _rho(scaled)
    if not _close(mu, mu_ref, 1e-6):
        problems.append(f"mu {mu!r} != largest |eigvals| {mu_ref!r}")

    if not indices or len(set(indices)) != len(indices) or not all(0 <= i < n for i in indices):
        problems.append(f"nu_lower indices {indices} invalid for n={n}")
    else:
        sub = np.ix_(indices, indices)
        bound_ref = _rho(scaled[sub]) / len(indices)
        if not _close(bound, bound_ref, 1e-6):
            problems.append(f"nu_lower bound {bound!r} != rho(M_I)/|I| = {bound_ref!r}")

    if bound > nubar * (1 + 1e-9):
        problems.append(f"chain broken: nu_lower {bound!r} > nubar {nubar!r}")
    if nubar > mu * (1 + 1e-6):
        problems.append(f"chain broken: nubar {nubar!r} > mu {mu!r}")
    return problems


def check_study(csv_path: Path, spec: dict) -> list[str]:
    """Check one ``bench`` CSV: shape, field ranges and monotonicity.

    ``spec`` holds the command's ``ns``, ``thetas``, ``tols``, ``trials`` and
    ``max_iter``. Iterations to a tolerance can only drop as it loosens, so
    failures are non-increasing in tol, and where two tolerances have equal
    failures both iteration statistics are non-increasing too.
    """
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"unreadable study: {exc!r}"]
    ns, thetas, tols = spec["ns"], spec["thetas"], spec["tols"]
    trials, max_iter = spec["trials"], spec["max_iter"]
    expected = len(ns) * len(thetas) * len(tols)
    if len(rows) != expected:
        return [f"study has {len(rows)} rows, expected {expected}"]
    problems = []
    seen: dict[tuple[int, float], list[tuple[float, int, int, int]]] = {}
    for i, row in enumerate(rows, start=2):
        try:
            n, theta, tol = int(row["n"]), float(row["theta"]), float(row["tol"])
            max_it, med_it, fails = (
                int(row["max_iters"]), int(row["median_iters"]), int(row["failures"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"line {i}: unreadable row: {exc!r}")
            continue
        if n not in ns or theta not in thetas or not any(_close(tol, t, 1e-12) for t in tols):
            problems.append(f"line {i}: unexpected (n, theta, tol) = ({n}, {theta}, {tol})")
        if not 0 <= fails <= trials:
            problems.append(f"line {i}: failures {fails} outside [0, {trials}]")
        if fails == trials:
            if (max_it, med_it) != (-1, -1):
                problems.append(f"line {i}: no trial converged but iterations are {max_it}, {med_it}")
        elif not 1 <= med_it <= max_it <= max_iter:
            problems.append(f"line {i}: iterations {med_it} <= {max_it} outside [1, {max_iter}]")
        seen.setdefault((n, theta), []).append((tol, fails, max_it, med_it))
    if len(seen) != len(ns) * len(thetas):
        problems.append(f"study covers {len(seen)} (n, theta) pairs, expected {len(ns) * len(thetas)}")
    for key, series in seen.items():
        series.sort()
        if len({t for t, *_ in series}) != len(series):
            problems.append(f"{key}: repeated tolerance")
        for (t0, f0, mx0, md0), (t1, f1, mx1, md1) in zip(series, series[1:]):
            if f1 > f0 or (f1 == f0 and (mx1 > mx0 or md1 > md0)):
                problems.append(f"{key}: iterations grow as tol loosens from {t0} to {t1}")
    return problems
