"""Local iterative heuristic for the diagonal scaling bound.

Every node simultaneously moves its weight toward the square-root ratio of
its largest incoming and outgoing scaled entries, interpolated by a step
parameter. The synchronous update suits distributed evaluation but can
oscillate with a full step; the trace records enough to diagnose that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .magnitude import as_array


@dataclass(frozen=True)
class BalanceStep:
    t: int
    d: np.ndarray
    objective: float
    rel_change: float


@dataclass(frozen=True)
class BalanceTrace:
    iterations: list[BalanceStep]
    converged: bool
    oscillating: bool
    final: np.ndarray

    @property
    def updates(self) -> int:
        return len(self.iterations) - 1

    @property
    def objective(self) -> float:
        return self.iterations[-1].objective

    def iterations_to(self, tol: float) -> int | None:
        """Number of updates until the objective's relative change first
        drops to ``tol``; None if it never does."""
        for step in self.iterations[1:]:
            if step.rel_change <= tol:
                return step.t - 1
        return None


def heuristic_balance(
    M,
    theta: float = 0.5,
    max_iter: int = 1000,
    tol: float = 1e-3,
) -> BalanceTrace:
    """Run the balancing iteration from the all-ones scaling.

    The update for node k interpolates between the current weight and
    sqrt(max incoming scaled entry) / sqrt(max outgoing entry-over-weight),
    skipping the diagonal on both sides; a node with an empty side keeps its
    weight. Stops once the objective's relative change and the weights
    themselves settle below ``tol``, or at ``max_iter`` updates. A period-2
    orbit of the weights is flagged as oscillating and never reported as
    converged.
    """
    if not (0.0 < theta <= 1.0):
        raise ValidationError(f"theta must lie in (0, 1], got {theta!r}")
    if not tol > 0:
        raise ValidationError(f"tolerance must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter!r}")
    a = as_array(M)
    n = a.shape[0]
    a0 = a.copy()
    np.fill_diagonal(a0, 0.0)
    diag = np.diag(a)

    d = np.ones(n)
    num = a0.max(axis=0)
    steps = [BalanceStep(1, d.copy(), float(a.max()), float("inf"))]
    converged = False
    oscillating = False
    for t in range(2, max_iter + 2):
        prev = steps[-1]
        den = (a0 / d[None, :]).max(axis=1)
        ok = (num > 0) & (den > 0)
        ratio = np.where(ok, np.sqrt(np.where(ok, num, 1.0)) / np.sqrt(np.where(ok, den, 1.0)), d)
        dn = (1.0 - theta) * d + theta * ratio
        # The objective max_ij a_ij dn_i / dn_j comes off the column maxima the
        # next update needs: rounding is monotone, so max_j num_j / dn_j and the
        # diagonal give the same bits as a pass over the whole scaled matrix.
        num = (a0 * dn[:, None]).max(axis=0)
        obj = float(np.maximum(num / dn, diag * dn / dn).max())
        rel = abs(obj - prev.objective) / max(prev.objective, 1e-300)
        steps.append(BalanceStep(t, dn.copy(), obj, rel))
        if len(steps) >= 3:
            back2 = steps[-3].d
            close2 = np.abs(dn - back2).max() <= 1e-9 * max(back2.max(), 1e-300)
            close1 = np.abs(dn - d).max() <= 1e-9 * max(d.max(), 1e-300)
            if close2 and not close1:
                oscillating = True
        d_settled = np.abs(dn - d).max() <= tol * max(d.max(), 1e-300)
        d = dn
        if rel <= tol and d_settled and not oscillating:
            converged = True
            break
    return BalanceTrace(steps, converged, oscillating, d)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    rel_changes: np.ndarray
    final_objective: float
    converged: bool

    def iterations_to(self, tol: float) -> int | None:
        hits = np.nonzero(self.rel_changes <= tol)[0]
        return int(hits[0]) + 1 if hits.size else None


@dataclass(frozen=True)
class StudyRow:
    n: int
    theta: float
    tol: float
    max_iters: int
    median_iters: int
    failures: int


def trial_matrix(n: int, seed: int, trial: int, dist: str = "uniform", density: float = 0.25) -> np.ndarray:
    """Reproducible random nonnegative test matrix for convergence studies."""
    rng = np.random.default_rng(seed + trial)
    m = rng.random((n, n))
    if dist == "uniform":
        return m
    if dist == "sparse":
        if not 0.0 < density <= 1.0:
            raise ValidationError(f"density must be finite and in (0, 1], got {density!r}")
        mask = rng.random((n, n)) < density
        return m * mask
    raise ValidationError(f"unknown matrix distribution {dist!r}")


def run_trials(
    n: int,
    trials: int,
    theta: float,
    stop_tol: float,
    max_iter: int = 1000,
    seed: int = 0,
    dist: str = "uniform",
    density: float = 0.25,
) -> list[TrialRecord]:
    """Balance ``trials`` seeded random matrices and record their traces."""
    records = []
    for trial in range(trials):
        m = trial_matrix(n, seed, trial, dist, density)
        trace = heuristic_balance(m, theta=theta, max_iter=max_iter, tol=stop_tol)
        rel = np.array([s.rel_change for s in trace.iterations[1:]])
        records.append(TrialRecord(trial, rel, trace.objective, trace.converged))
    return records


def convergence_study(
    ns: list[int],
    trials: int,
    thetas: list[float],
    tol_grid: list[float],
    seed: int = 0,
    max_iter: int = 1000,
    dist: str = "uniform",
    density: float = 0.25,
) -> list[StudyRow]:
    """Iteration counts to reach each tolerance, aggregated over trials.

    For every (n, theta) the same seeded matrices are run once down to the
    tightest tolerance; crossing counts for looser tolerances are read off
    the recorded trace. ``max_iters``/``median_iters`` are -1 when no trial
    reaches the tolerance.
    """
    if trials < 1 or not ns or not thetas or not tol_grid:
        raise ValidationError("study needs at least one n, theta, tolerance and trial")
    if not all(math.isfinite(t) and t > 0 for t in tol_grid):
        raise ValidationError("tolerances must be positive and finite")
    if any(n < 1 for n in ns):
        raise ValidationError(f"matrix sizes must be at least 1, got {ns}")
    rows: list[StudyRow] = []
    stop_tol = min(tol_grid)
    for n in ns:
        for theta in thetas:
            records = run_trials(n, trials, theta, stop_tol, max_iter, seed, dist, density)
            for tol in tol_grid:
                counts = [r.iterations_to(tol) for r in records]
                hits = [c for c in counts if c is not None]
                rows.append(
                    StudyRow(
                        n=int(n),
                        theta=float(theta),
                        tol=float(tol),
                        max_iters=max(hits) if hits else -1,
                        median_iters=int(np.median(hits)) if hits else -1,
                        failures=trials - len(hits),
                    )
                )
    return rows
