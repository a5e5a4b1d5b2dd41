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

    After normalizing the off-diagonal pair to ones by scaling and diagonal
    similarity, a dominant diagonal entry is destabilized alone; otherwise
    the cheapest singularity splits the gain across both channels.
    """
    a = as_array(M)
    if a.shape[0] != 2:
        raise ValidationError(f"closed form requires a 2x2 matrix, got {a.shape[0]}x{a.shape[0]}")
    b, c = a[0, 1], a[1, 0]
    if b == 0.0 or c == 0.0:
        # no two cycle: only self loops can destabilize
        value = float(max(a[0, 0], a[1, 1]))
        witness = np.zeros(2)
        if value > 0:
            k = int(np.argmax(np.diag(a)))
            witness[k] = 1.0 / value
        return NuResult(value, witness, METHOD_CLOSED_FORM_2X2)
    s = math.sqrt(b * c)
    x, y = a[0, 0] / s, a[1, 1] / s
    if max(x, y) >= 1.0:
        value = float(max(a[0, 0], a[1, 1]))
        witness = np.zeros(2)
        k = int(np.argmax(np.diag(a)))
        witness[k] = 1.0 / value
        return NuResult(value, witness, METHOD_CLOSED_FORM_2X2)
    det = x * y - 1.0  # negative here
    d1 = (y - 1.0) / det
    d2 = (x - 1.0) / det
    value = s * det / (x + y - 2.0)
    witness = np.array([d1 / s, d2 / s])
    return NuResult(float(value), witness, METHOD_CLOSED_FORM_2X2)


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


def nu_ring_from_matrix(M) -> NuResult:
    """Validate a cyclic-permutation support and evaluate the ring formula,
    relabeling the channels along the cycle."""
    a = as_array(M)
    n = a.shape[0]
    pos = a > 0
    if not (np.all(pos.sum(axis=1) == 1) and np.all(pos.sum(axis=0) == 1)):
        raise ValidationError("not a ring: every channel needs exactly one driver and one listener")
    succ = np.argmax(pos, axis=1)
    order = [0]
    for _ in range(n - 1):
        order.append(int(succ[order[-1]]))
    if len(set(order)) != n or int(succ[order[-1]]) != 0:
        raise ValidationError("not a ring: support splits into shorter cycles")
    weights = [a[u, succ[u]] for u in order]
    return nu_ring(np.array(weights))


def _simplex_grid(n: int, grid: int):
    for cuts in combinations_with_replacement(range(grid + 1), n - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(grid - prev)
        yield np.array(parts, dtype=float) / grid


# Divisions per axis of the oracle's coarse simplex grid, by dimension.
_ORACLE_GRID = {1: 1, 2: 64, 3: 24, 4: 14}


def nu_oracle(M) -> NuResult:
    """Brute-force value for matrices up to dimension four.

    Maximizes the Perron root of diag(direction) M over the gain simplex:
    by homogeneity the cheapest destabilizing gain along a direction is its
    reciprocal root, so the best direction minimizes the total gain. A coarse
    deterministic grid is followed by per-coordinate refinement with a
    window halved from one grid step until it is below 1e-8.
    """
    a = as_array(M)
    n = a.shape[0]
    if n > 4:
        raise ValidationError(
            f"oracle supports n <= 4 (got n={n}); use the spectral and scaling bounds instead"
        )
    grid = _ORACLE_GRID[n]
    best_dir = None
    best = -1.0
    for direction in _simplex_grid(n, grid):
        r = float(_perron_roots(direction[:, None] * a))
        if r > best + 1e-15:
            best, best_dir = r, direction
    h = 1.0 / grid
    while h >= 1e-8:
        improved_dir = best_dir
        for k in range(n):
            lo = max(0.0, best_dir[k] - h)
            hi = best_dir[k] + h
            for cand in np.linspace(lo, hi, 17):
                trial = improved_dir.copy()
                trial[k] = cand
                total = trial.sum()
                if total <= 0:
                    continue
                trial = trial / total
                r = float(_perron_roots(trial[:, None] * a))
                if r > best + 1e-15:
                    best, improved_dir = r, trial
        best_dir = improved_dir
        h *= 0.5
    if best <= 0.0:
        return NuResult(0.0, np.zeros(n), METHOD_ORACLE)
    witness = best_dir / best
    return NuResult(float(best), witness, METHOD_ORACLE)
