"""Exact values of the sparsity-aware robustness measure for small systems.

The measure is the reciprocal of the smallest total diagonal gain that makes
I - diag(delta) M singular. For nonnegative matrices that happens first on
the surface where the Perron root of diag(delta) M reaches one, so the
search reduces to maximizing that root over gain directions on the simplex.
A closed form covers two-by-two matrices and pure rings of any size; a
grid-plus-refinement oracle covers everything up to dimension four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ValidationError
from .magnitude import MagnitudeMatrix, as_array
from .spectral import _perron_roots

METHOD_CLOSED_FORM_2X2 = "closed_form_2x2"
METHOD_RING = "ring"
METHOD_ORACLE = "oracle"


@dataclass(frozen=True)
class NuResult:
    value: float
    witness_delta: np.ndarray
    method: str


def nu_2x2(M) -> NuResult:
    """Closed form for two-by-two matrices.

    A diagonal entry at least the geometric mean of the off-diagonal pair
    (always so without a two cycle) is destabilized alone. Otherwise, after
    normalizing the off-diagonal pair to ones by scaling and diagonal
    similarity, the cheapest singularity splits the gain across both
    channels. The formula runs on M divided by the power of two that brings
    its largest entry into [0.5, 1), so the off-diagonal product does not
    underflow; the value and the witness are scaled back exactly. A lone
    self-loop's are read off its unscaled entry, which that can underflow.
    """
    m = as_array(M)
    if m.shape[0] != 2:
        raise ValidationError(f"closed form requires a 2x2 matrix, got {m.shape[0]}x{m.shape[0]}")
    e = math.frexp(m.max())[1]
    a = np.ldexp(m, -e)
    s = math.sqrt(a[0, 1] * a[1, 0])
    if max(a[0, 0], a[1, 1]) >= s:
        k = int(np.argmax(np.diag(m)))
        value = float(m[k, k])
        witness = np.zeros(2)
        if value > 0:
            witness[k] = 1.0 / value
        return NuResult(value, witness, METHOD_CLOSED_FORM_2X2)
    x, y = a[0, 0] / s, a[1, 1] / s
    det = x * y - 1.0  # negative here
    d1 = (y - 1.0) / det
    d2 = (x - 1.0) / det
    value = float(s * det / (x + y - 2.0))
    witness = np.array([d1 / s, d2 / s])
    return NuResult(math.ldexp(value, e), np.ldexp(witness, -e), METHOD_CLOSED_FORM_2X2)


def _ring_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ValidationError("ring weights must be a nonempty vector")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValidationError("ring weights must be positive and finite")
    return w


def ring_matrix(weights) -> MagnitudeMatrix:
    """Cycle interconnection: node k driven by node k+1 (wrapping) with the
    given arc gains."""
    w = _ring_weights(weights)
    n = w.shape[0]
    m = np.zeros((n, n))
    for k in range(n):
        m[k, (k + 1) % n] = w[k]
    return MagnitudeMatrix(m)


def nu_ring(weights) -> NuResult:
    """Exact value for a ring: destabilization needs the gains' product around
    the cycle to reach one, and the cheapest split is even."""
    w = _ring_weights(weights)
    n = w.shape[0]
    log_gain = float(np.log(w).sum())
    root = math.exp(log_gain / n)
    value = root / n
    witness = np.full(n, 1.0 / root)
    return NuResult(value, witness, METHOD_RING)


@cache
def _simplex_grid(n: int, grid: int) -> np.ndarray:
    """Every point of the simplex whose coordinates are multiples of 1/grid,
    one per row, in the order of the cut positions; read-only, since each
    dimension's grid is built once and shared."""
    parts = []
    for cuts in combinations_with_replacement(range(grid + 1), n - 1):
        bounds = (0, *cuts, grid)
        parts.append([hi - lo for lo, hi in zip(bounds, bounds[1:])])
    dirs = np.array(parts, dtype=float) / grid
    dirs.flags.writeable = False
    return dirs


# Divisions per axis of the oracle's coarse simplex grid, by dimension.
_ORACLE_GRID = {1: 1, 2: 64, 3: 24, 4: 14}
# Grid rows per eigvals stack; each stack after the first is pruned against
# the best root of the stacks before it.
_GRID_CHUNK = 64


def _coarse_search(a: np.ndarray, dirs: np.ndarray) -> tuple[float, np.ndarray]:
    """The one-at-a-time scan of the grid, in grid order: a direction
    replaces the incumbent only if its root beats the incumbent's by more
    than 1e-15, and the first such direction wins.

    The rows go to ``eigvals`` in chunks. Before each chunk after the first,
    a row is dropped when the Perron bound min(max row sum, max column sum)
    of diag(direction) M, times 1 + 1e-9, is not above the running best: the
    computed root exceeds the true one by about n^2 * 1e-16 relative at most,
    so it could not beat the incumbent, and the incumbent only grows.
    """
    bounds = np.minimum((dirs * a.sum(axis=1)).max(axis=1), (dirs @ a).max(axis=1))
    bounds *= 1.0 + 1e-9
    best, best_dir = -1.0, dirs[0]
    for start in range(0, dirs.shape[0], _GRID_CHUNK):
        rows = np.arange(start, min(start + _GRID_CHUNK, dirs.shape[0]))
        rows = rows[bounds[rows] > best]
        if not rows.size:
            continue
        roots = _perron_roots(dirs[rows, :, None] * a)
        for i, r in zip(rows.tolist(), roots.tolist()):
            if r > best + 1e-15:
                best, best_dir = r, dirs[i]
    return best, best_dir


def _vertex_contenders(a: np.ndarray, best: float, j: int, live: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Indices of the refinement rows ``live`` that may beat the vertex
    incumbent e_j, whose root is ``best``; row i varies coordinate ``ks[i]``.

    A row with live[:, j] == 1 is e_j itself, whose root is ``best`` bit for
    bit. Any other row is (1, c)/(1 + c) on the nodes {j, k}, and its Perron
    root is the larger root rho of the 2x2 block b of diag(row) M on them,
    taken through hypot so tiny entries do not underflow to a low rho. A row
    is dropped when rho * (1 + 1e-9) is not above ``best``. That is safe: the
    grid scored every vertex, so a_kk <= a_jj up to the tie margin and
    b22 <= c * b11, and a dropped row has b12 * b21 <= c * a_jj^2, so the
    root is simple and well separated, and ``eigvals``, which balances the
    block first, lands within a few ulps of rho.
    """
    xj = live[:, j]
    xk = live[np.arange(ks.size), ks]
    b11, b12 = xj * a[j, j], xj * a[j, ks]
    b21, b22 = xk * a[ks, j], xk * a[ks, ks]
    rho = 0.5 * (b11 + b22 + np.hypot(b11 - b22, 2.0 * np.sqrt(b12) * np.sqrt(b21)))
    return np.flatnonzero((xj < 1.0) & (rho * (1.0 + 1e-9) > best))


def _refine(a: np.ndarray, best: float, best_dir: np.ndarray, h: float) -> tuple[float, np.ndarray]:
    """Per-coordinate refinement with the window halved from ``h`` until it
    is below 1e-8, scored in stacks from a cursor.

    The cursor is a sweep and an offset k * 17 + j into it. Each stack holds
    every candidate from the cursor to the end of a run of sweeps, each
    trial built from the incumbent of the moment and each window centred on
    the incumbent its sweep started from. The first improving row is
    accepted and the cursor moves just past it, so the next run is the rest
    of its sweep; with no improving row the cursor moves to the end of the
    stack and the run doubles. A run spans several sweeps only from a sweep
    boundary, where every sweep in it starts from the incumbent of the moment.

    While the incumbent is a vertex e_j, every row is e_j or lies on two
    nodes {j, k}; only the rows whose closed-form 2x2 root, times 1 + 1e-9,
    beats the incumbent go to ``eigvals`` (``_vertex_contenders``), and the
    rest score -inf, so the first hit and the cursor are unchanged. From a
    sweep boundary with a vertex incumbent the run takes every remaining
    sweep at once: the screen makes the extra rows nearly free, and as only
    the rows up to the first hit count, a longer run leaves the value and
    the witness as they were.
    """
    n = a.shape[0]
    width = 17 * n
    steps = []
    while h >= 1e-8:
        steps.append(h)
        h *= 0.5
    i, off, run = 0, 0, 1
    while i < len(steps):
        vertex = np.flatnonzero(best_dir)
        if not off:
            start = best_dir
            if vertex.size == 1:
                run = len(steps) - i
        hs = np.array(steps[i:i + run])[:, None]
        # every window is at least h wide, so the stacked linspace takes the
        # same steps, bit for bit, as one call per window
        cands = np.linspace(np.maximum(start - hs, 0.0), start + hs, 17, axis=-1)
        trials = np.empty((hs.size, n, 17, n))
        trials[...] = best_dir
        for k in range(n):
            trials[:, k, :, k] = cands[:, k]
        trials = trials.reshape(-1, n)[off:]
        totals = trials.sum(axis=-1)
        rows = np.flatnonzero(totals > 0)
        live = trials[rows] / totals[rows, None]
        if vertex.size == 1:
            scored = _vertex_contenders(a, best, int(vertex[0]), live, (off + rows) // 17 % n)
            roots = np.full(rows.size, -np.inf)
            if scored.size:
                roots[scored] = _perron_roots(live[scored, :, None] * a)
        else:
            roots = _perron_roots(live[:, :, None] * a)
        hits = np.flatnonzero(roots > best + 1e-15)
        if not hits.size:
            i, off, run = i + hs.size, 0, 2 * run
            continue
        s, off = divmod(off + int(rows[hits[0]]) + 1, width)
        best, best_dir = float(roots[hits[0]]), live[hits[0]]
        i, run = i + s, 1
    return best, best_dir


def nu_oracle(M) -> NuResult:
    """Brute-force value for matrices up to dimension four.

    Maximizes the Perron root of diag(direction) M over the gain simplex:
    by homogeneity the cheapest destabilizing gain along a direction is its
    reciprocal root, so the best direction minimizes the total gain. A coarse
    deterministic grid is followed by per-coordinate refinement with a
    window halved from one grid step until it is below 1e-8: coordinate k of
    the incumbent takes 17 evenly spaced values across a window centred on
    the sweep's starting incumbent, each trial renormalized to sum one.

    One rule picks the incumbent: in search order, a direction replaces it
    only if its root beats the incumbent's by more than 1e-15, and the first
    such direction wins. The roots are taken in a few large stacks, one
    ``eigvals`` call per stack, with value and witness bit for bit those of
    a one-at-a-time search: each row's root is the same in any stack. Grid
    rows do not depend on the incumbent, so a chunk's roots are read in
    order, and a grid row whose Perron bound cannot beat the running best is
    dropped before ``eigvals`` (``_coarse_search``). A refinement stack runs
    from a cursor, and only its rows up to the first accepted one count, so
    every row that counts was built from the incumbent that search would
    hold (``_refine``). While that incumbent is a vertex e_j, as it usually
    is on dense inputs, a refinement row is e_j itself, which cannot beat
    it, or lies on two nodes {j, k}, and its root has a closed form; a row
    whose closed-form root, times 1 + 1e-9, is not above the incumbent's is
    dropped before ``eigvals``. The grid already scored every vertex, so
    a_kk <= a_jj and such a row's root is simple and well separated, and
    ``eigvals`` lands within a few ulps of the closed form
    (``_vertex_contenders``).

    The search runs on M divided by the power of two that brings its largest
    entry into [0.5, 1), so the 1e-15 margin is relative to the matrix's
    scale; the value and the witness are scaled back exactly.
    """
    a = as_array(M)
    n = a.shape[0]
    if n > 4:
        raise ValidationError(
            f"oracle supports n <= 4 (got n={n}); use the spectral and scaling bounds instead"
        )
    e = math.frexp(a.max())[1]
    a = np.ldexp(a, -e)
    grid = _ORACLE_GRID[n]
    best, best_dir = _coarse_search(a, _simplex_grid(n, grid))
    best, best_dir = _refine(a, best, best_dir, 1.0 / grid)
    if best <= 0.0:
        return NuResult(0.0, np.zeros(n), METHOD_ORACLE)
    witness = np.ldexp(best_dir / best, -e)
    return NuResult(math.ldexp(best, e), witness, METHOD_ORACLE)
