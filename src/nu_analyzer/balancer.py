"""Local iterative heuristic for the diagonal scaling bound.

Every node simultaneously moves its weight toward the square-root ratio of
its largest incoming and outgoing scaled entries, interpolated by a step
parameter. The synchronous update suits distributed evaluation but can
oscillate with a full step; the trace records enough to diagnose that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _check_params(thetas, tol: float, max_iter: int) -> None:
    if not len(thetas):
        raise ValidationError("need at least one theta")
    for theta in thetas:
        if not (0.0 < theta <= 1.0):
            raise ValidationError(f"theta must lie in (0, 1], got {theta!r}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValidationError(f"tolerance must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter!r}")


@dataclass(frozen=True)
class _Runs:
    """Outcome of one balancing trajectory per step parameter.

    Column k of ``rel`` holds trajectory k's relative objective changes in
    its first ``updates[k]`` rows.
    """

    rel: np.ndarray
    updates: np.ndarray
    objective: np.ndarray
    converged: np.ndarray
    oscillating: np.ndarray
    final: np.ndarray


_CANDIDATES = 16  # T, per row and per column of the matrix


class _Candidates(NamedTuple):
    """The T largest entries of each line of a matrix, stored T-major."""

    idx: np.ndarray  # (T, n): their positions along the line
    vals: np.ndarray  # (T, n)
    rest: np.ndarray  # (n,): each line's (T+1)-th largest entry, no less than any left out


def _candidates(b: np.ndarray) -> _Candidates:
    """Candidates of the rows of ``b``, for n > T."""
    n = b.shape[0]
    part = np.argpartition(b, n - _CANDIDATES - 1, axis=1)
    line = np.arange(n)
    top = part[:, n - _CANDIDATES :].T.copy()  # a view would keep the n x n partition alive
    return _Candidates(top, b[line, top], b[line, part[:, n - _CANDIDATES - 1]])


def _line_max(op, dense: np.ndarray, cand: _Candidates | None, w: np.ndarray, lim, buf) -> np.ndarray:
    """``_full_max(op, dense, w)``, from the candidates where they are
    certified.

    ``dense`` is (n, n), with line i's t-th entry at [t, i]; ``w`` is the
    (k, n) weight stack and ``lim`` its per-trajectory extreme weight, the
    one that makes ``op`` largest. Rounding is monotone and the entries are
    nonnegative, so no entry left out of line i can round above
    ``op(rest_i, lim_k)``. A line whose candidate maximum is at least that
    bound therefore has the full pass's exact bits; a NaN bound fails the
    test. A zero entry left out stays zero unless ``op(0, lim_k)`` is NaN
    (0 / 0 or 0 * inf), which the full pass would propagate. Every trajectory
    with a failing line takes the full pass instead. ``buf`` holds at least
    k x T x n gathered weights. Without candidates, every line takes the full
    pass.
    """
    if cand is None:
        return _full_max(op, dense, w)
    g = np.take(w, cand.idx, axis=1, out=buf[: w.shape[0]], mode="clip")
    m = op(cand.vals, g, out=g).max(axis=1)
    ok = (op(cand.rest, lim[:, None]) <= m).all(axis=1) & (op(0.0, lim) == 0)
    if not ok.all():
        m[~ok] = _full_max(op, dense, w[~ok])
    return m


def _full_max(op, dense: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each line's maximum over all n of its weighted entries.

    ``dense`` is one n x n matrix shared by the trajectories or, at n <= T,
    a (k, n, n) stack with one matrix per trajectory. Above n = T the
    trajectories take turns in one n x n buffer, so that a fallback holds no
    (k, n, n) stack; the maxima have the same bits.
    """
    if dense.shape[-1] <= _CANDIDATES:
        return op(dense, w[:, :, None]).max(axis=1)
    tmp = np.empty_like(dense)
    m = np.empty(w.shape)
    for wj, mj in zip(w, m):
        op(dense, wj[:, None], out=tmp).max(axis=0, out=mj)
    return m


def _balance_runs(
    a: np.ndarray,
    thetas,
    max_iter: int,
    tol: float,
    history: list | None = None,
    *,
    until_crossing: bool = False,
) -> _Runs:
    """The iteration of ``heuristic_balance`` on ``a``, one trajectory per
    step parameter, all of them in one (K, n) update.

    ``a`` is one n x n matrix or, at n <= T, a stack of m of them; the
    m K trajectories then form one update, trajectory i K + k running
    thetas[k] on its own copy of a[i].
    A trajectory stops once its objective's relative change and its weights
    settle below ``tol`` without oscillating, or at ``max_iter`` updates.
    With ``until_crossing`` it stops instead at the first update whose
    relative change is at most ``tol``, which is all that the convergence
    study reads; ``converged`` then marks the trajectories that crossed, and
    oscillation is not tracked.
    A trajectory that stops leaves the stack. Every operation is elementwise
    or a max-reduction along one trajectory's row, so each trajectory has the
    bits it would have alone. ``history``, if given, receives the weights and
    objectives of the trajectories still running after each update.

    The update's row maxima max_j a_ij / d_j and column maxima
    max_i a_ij * dn_i are taken over candidates fixed once per matrix: the
    T = 16 largest off-diagonal entries of each row and each column (all of
    them at n <= 16). A candidate maximum is certified when it is at least
    the line's (T+1)-th largest entry divided by min(d), or times max(dn);
    it then equals the full pass bit for bit, and a trajectory with any
    uncertified line recomputes that side with the full n x n pass.
    """
    n = a.shape[-1]
    a0 = a.reshape(-1, n, n).copy()
    m = len(a0)
    k = m * len(thetas)
    diag = np.repeat(np.diagonal(a0, axis1=1, axis2=2), len(thetas), axis=0)
    prev = np.repeat(a0.reshape(-1, n * n).max(axis=1), len(thetas))
    a0[:, np.arange(n), np.arange(n)] = 0.0
    num = np.repeat(a0.max(axis=1), len(thetas), axis=0)
    a0t = a0.transpose(0, 2, 1).copy()
    rows = cols = buf = None
    if n > _CANDIDATES:
        (a0,), (a0t,) = a0, a0t  # one matrix (m = 1), shared by its trajectories
        rows, cols = _candidates(a0), _candidates(a0t)
        buf = np.empty((k, _CANDIDATES, n))  # shared: each side consumes it at once
    else:
        a0, a0t = np.repeat(a0, len(thetas), axis=0), np.repeat(a0t, len(thetas), axis=0)
    # doubled on demand: a generous max_iter must not reserve memory up front
    rel_all = np.empty((min(max_iter, 1024), k))
    updates = np.full(k, max_iter)
    objective = np.empty(k)
    converged = np.zeros(k, dtype=bool)
    oscillating = np.zeros(k, dtype=bool)
    final = np.empty((k, n))

    act = np.arange(k)
    theta = np.tile(np.asarray(thetas, dtype=float), m)[:, None]
    stay = 1.0 - theta
    d = np.ones((k, n))
    scale = np.ones(k)  # max(max(d), 1e-300) per trajectory
    osc = np.zeros(k, dtype=bool)
    back = back_scale = None  # the weights one update before d, and their scale
    for u in range(max_iter):
        lo = None if rows is None else d.min(axis=1)  # read only by the certificate
        den = _line_max(np.divide, a0t, rows, d, lo, buf)
        ratio = d.copy()
        np.divide(np.sqrt(num), np.sqrt(den), out=ratio, where=np.minimum(num, den) > 0)
        dn = stay * d + theta * ratio
        hi = dn.max(axis=1)
        # The objective max_ij a_ij dn_i / dn_j comes off the column maxima the
        # next update needs: rounding is monotone, so max_j num_j / dn_j and the
        # diagonal give the same bits as a pass over the whole scaled matrix.
        num = _line_max(np.multiply, a0, cols, dn, hi, buf)
        obj = np.maximum(num / dn, diag * dn / dn).max(axis=1)
        rel = np.abs(obj - prev) / np.maximum(prev, 1e-300)
        if u == rel_all.shape[0]:
            rel_all = np.concatenate((rel_all, np.empty_like(rel_all)))
        rel_all[u, act] = rel
        done = rel <= tol
        if not until_crossing:
            step = np.abs(dn - d).max(axis=1)
            if back is not None:
                close2 = np.abs(dn - back).max(axis=1) <= 1e-9 * back_scale
                osc |= close2 & ~(step <= 1e-9 * scale)
            done &= (step <= tol * scale) & ~osc
        if history is not None:
            history.append((dn, obj))
        back, back_scale = d, scale
        d, prev = dn, obj
        scale = np.maximum(hi, 1e-300)
        if done.any():
            idx = act[done]
            updates[idx] = u + 1
            objective[idx] = obj[done]
            converged[idx] = True
            final[idx] = d[done]
            keep = ~done
            act, theta, stay, osc = act[keep], theta[keep], stay[keep], osc[keep]
            d, scale, num, prev = d[keep], scale[keep], num[keep], prev[keep]
            back, back_scale, diag = back[keep], back_scale[keep], diag[keep]
            if rows is None:
                a0, a0t = a0[keep], a0t[keep]
            if not act.size:
                break
    objective[act] = prev
    oscillating[act] = osc
    final[act] = d
    return _Runs(rel_all, updates, objective, converged, oscillating, final)


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
    _check_params([theta], tol, max_iter)
    a = as_array(M)
    history: list = []
    runs = _balance_runs(a, [theta], max_iter, tol, history)
    steps = [BalanceStep(1, np.ones(a.shape[0]), float(a.max()), float("inf"))]
    for t, (d, obj) in enumerate(history, start=2):
        steps.append(BalanceStep(t, d[0], float(obj[0]), float(runs.rel[t - 2, 0])))
    return BalanceTrace(steps, bool(runs.converged[0]), bool(runs.oscillating[0]), runs.final[0])


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
    thetas: list[float],
    stop_tol: float,
    max_iter: int = 1000,
    seed: int = 0,
    dist: str = "uniform",
    density: float = 0.25,
) -> list[list[TrialRecord]]:
    """Balance ``trials`` seeded random matrices at every step parameter.

    Returns one list of trial records per entry of ``thetas``. All thetas of
    one trial matrix run together as one (len(thetas), n) iteration that
    shares the matrix; each trajectory has the bits it would have run alone.
    """
    _check_params(thetas, stop_tol, max_iter)
    records: list[list[TrialRecord]] = [[] for _ in thetas]
    for trial in range(trials):
        m = trial_matrix(n, seed, trial, dist, density)
        runs = _balance_runs(m, thetas, max_iter, stop_tol)
        for k, rec in enumerate(records):
            rel = runs.rel[: runs.updates[k], k].copy()
            rec.append(TrialRecord(trial, rel, float(runs.objective[k]), bool(runs.converged[k])))
    return records


# trajectories per stacked study run: bounds the run's (trajectories, n, n)
# matrix copies and its (updates, trajectories) record of changes
_STACK = 64


def _crossings(rel: np.ndarray, updates: np.ndarray, tols: np.ndarray, never: int) -> np.ndarray:
    """Updates until column j of ``rel`` first drops to each of ``tols``
    within its first ``updates[j]`` rows, as a (tolerances, columns) array;
    ``never`` for a tolerance it does not reach. A NaN change reaches none."""
    u = updates.max()
    # fmin skips NaN, so the running minimum passes over NaN changes and over
    # the rows past each column's end; below the first number it is non-increasing
    low = np.where(np.arange(u)[:, None] < updates, rel[:u], np.nan)
    np.fmin.accumulate(low, axis=0, out=low)
    reached = np.empty((tols.size, low.shape[1]), dtype=np.int64)
    for r, tol in zip(reached, tols):
        np.sum(low <= tol, axis=0, out=r)  # a suffix of the column
    return np.where(reached > 0, u - reached + 1, never)


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

    For every n the same seeded matrices are balanced with all thetas of one
    matrix in one stacked run; a size repeated in ``ns`` is balanced once,
    and its rows are emitted for each entry. At n <= 16, where every update
    takes full passes, the trials of all such sizes share runs of up to 64
    trajectories, in order of size, each matrix zero-padded to the largest n
    of its run.
    A padded node has an all-zero row and column, so it only adds zero terms
    to maxima that already hold the zero diagonal, and its weight, which
    stays finite, is read by no real node. Above n = 16 each matrix has a
    run of its own. Each trajectory has the bits it has alone, and stops at
    its first crossing of the tightest tolerance (or at ``max_iter``): every
    looser tolerance is crossed no later, so its count is read off the
    recorded changes. Padding keeps those bits in this crossing-stop mode
    only; ``run_trials`` runs the same trajectories, unpadded, on to
    convergence.
    ``max_iters``/``median_iters`` are -1 when no trial reaches the
    tolerance; ``median_iters`` rounds a half down, like ``int(np.median)``.
    """
    if trials < 1 or not ns or not thetas or not tol_grid:
        raise ValidationError("study needs at least one n, theta, tolerance and trial")
    if not all(math.isfinite(t) and t > 0 for t in tol_grid):
        raise ValidationError("tolerances must be positive and finite")
    if any(n < 1 for n in ns):
        raise ValidationError(f"matrix sizes must be at least 1, got {ns}")
    stop_tol = min(tol_grid)
    _check_params(thetas, stop_tol, max_iter)
    tols = np.asarray(tol_grid, dtype=float)
    never = max_iter + 1
    sizes = sorted(set(ns))
    # jobs of (index into sizes, trial), in order of size, so that a stack
    # pads its matrices little
    jobs = [(i, trial) for i in range(len(sizes)) for trial in range(trials)]
    small = [job for job in jobs if sizes[job[0]] <= _CANDIDATES]
    per = max(1, _STACK // len(thetas))
    stacks = [small[j : j + per] for j in range(0, len(small), per)]
    # above n = T each trajectory of a stack would gather its own matrix's
    # candidates: a bit-identical stacked run measured 6% slower on the
    # n = 128 tolerance study and 15% slower on the sizes past 16 of the size
    # study, since it lasts until its slowest trajectory stops (1,055 updates
    # against 1,319 unstacked) while each update's gathers double
    stacks += [[job] for job in jobs if sizes[job[0]] > _CANDIDATES]
    # counts[i, k, t, trial]: updates until theta k's trajectory on sizes[i] reaches tols[t]
    counts = np.empty((len(sizes), len(thetas), tols.size, trials), dtype=np.int64)
    for stack in stacks:
        size = max(sizes[i] for i, _ in stack)
        ms = np.zeros((len(stack), size, size))
        for m, (i, trial) in zip(ms, stack):
            m[: sizes[i], : sizes[i]] = trial_matrix(sizes[i], seed, trial, dist, density)
        runs = _balance_runs(ms, thetas, max_iter, stop_tol, until_crossing=True)
        hit = _crossings(runs.rel, runs.updates, tols, never).reshape(tols.size, len(stack), len(thetas))
        i, trial = np.array(stack).T
        counts[i, :, :, trial] = hit.transpose(1, 2, 0)
    counts = counts[np.searchsorted(sizes, ns)]  # one block per entry of ns
    counts.sort(axis=3)  # trials that never cross come last
    hits = (counts < never).sum(axis=3)
    # positions of the largest hit and of the two middle ones
    pos = np.maximum(np.stack((hits - 1, (hits - 1) // 2, hits // 2)), 0)
    top, lo, hi = (np.take_along_axis(counts, p[..., None], axis=3)[..., 0] for p in pos)
    max_iters = np.where(hits > 0, top, -1).tolist()
    median_iters = np.where(hits > 0, lo + (hi - lo) // 2, -1).tolist()
    failures = (trials - hits).tolist()
    return [
        StudyRow(
            n=int(n),
            theta=float(theta),
            tol=float(tol),
            max_iters=max_iters[i][k][t],
            median_iters=median_iters[i][k][t],
            failures=failures[i][k][t],
        )
        for i, n in enumerate(ns)
        for k, theta in enumerate(thetas)
        for t, tol in enumerate(tol_grid)
    ]
