"""Nonnegative-matrix spectral analysis.

The spectral radius of the magnitude matrix is the classical robustness
measure against diagonal uncertainty bounded in peak gain; principal
submatrices give lower bounds for the sparsity-aware measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._graph import has_cycle, support_adjacency
from .errors import ValidationError
from .magnitude import as_array
from .nubar import _nubar_normalized

# Relative width of the band below the top screened bound inside which
# subsets are confirmed with spectral_radius. The screen's eigvals call is
# backward stable: on the nubar-normalized submatrices (entries at most one)
# it perturbs each entry by about k * 1e-16, while the best bound there is at
# least 1/n whenever the witness cycle fits in the subset size limit. A
# well-conditioned Perron root therefore lands within about 1e-13 of the top
# value, seven orders of magnitude inside this window.
_SCREEN_WINDOW = 1e-6


@dataclass(frozen=True)
class SpectralResult:
    rho: float
    right_vector: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SubsetBound:
    """Lower bound rho(M_I)/|I| obtained from a principal submatrix."""

    indices: tuple[int, ...]  # 1-based, sorted
    rho_sub: float
    bound: float
    exhaustive: bool


def spectral_radius(M, tol: float = 1e-10, max_iter: int | None = None) -> SpectralResult:
    """Perron root of a nonnegative matrix by shifted power iteration.

    Iterates on ``M + shift*I`` (exact: the Perron root shifts by exactly
    ``shift``) and brackets the root with the min/max ratios of consecutive
    iterates. A tiny shift keeps the fast path undisturbed; if the bracket
    stalls, e.g. for periodic support graphs where the tiny shift leaves no
    usable spectral gap, the iteration restarts once with a shift on the
    scale of the largest entry.
    """
    a = as_array(M)
    if not tol > 0:
        raise ValidationError(f"tolerance must be positive, got {tol!r}")
    n = a.shape[0]
    if max_iter is None:
        max_iter = 100 * n + 1000

    max_entry = float(a.max())
    ones = np.ones(n)
    if max_entry == 0.0:
        return SpectralResult(0.0, ones, 0, True)
    if not has_cycle(n, support_adjacency(a)):
        # nilpotent support: every eigenvalue is zero
        return SpectralResult(0.0, ones, 0, True)

    shift = 1e-12 * max_entry
    b = a + shift * np.eye(n)
    switch_at = min(150, max(1, max_iter // 2))
    x = ones.copy()
    hi = prev_hi = float("inf")
    lo = 0.0
    rho = 0.0
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        y = b @ x
        ratios = y / x
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= tol * hi:
            rho = 0.5 * (lo + hi) - shift
            converged = True
            break
        # floor keeps decaying components positive; a component that
        # underflows to zero would otherwise turn the ratios into 0/0
        xn = np.maximum(y / y.max(), 1e-300)
        if (
            np.abs(xn - x).max() <= 0.5 * tol
            and np.isfinite(prev_hi)
            and abs(hi - prev_hi) <= tol * hi
        ):
            # reducible case: direction settled even though the lower ratio
            # is pinned by a subdominant block
            rho = hi - shift
            converged = True
            break
        x = xn
        prev_hi = hi
        if it == switch_at:
            shift = max_entry
            b = a + shift * np.eye(n)
            prev_hi = float("inf")
    else:
        rho = hi - shift  # budget exhausted: upper ratio is the best estimate

    rho = max(rho, 0.0)
    return SpectralResult(rho, x / x.max(), it, converged)


def mu(M, tol: float = 1e-10, max_iter: int | None = None) -> float:
    """Robustness measure against diagonal peak-bounded uncertainty.

    Equals the spectral radius; 1/mu is the smallest uncertainty gain that
    can destabilize the interconnection.
    """
    return spectral_radius(M, tol=tol, max_iter=max_iter).rho


def scaled_inf_norm(M, d) -> float:
    """Maximum row sum after the diagonal similarity with weights ``d``."""
    a = as_array(M)
    dv = np.asarray(getattr(d, "d", d), dtype=float)
    if dv.shape != (a.shape[0],):
        raise ValidationError(f"scaling vector has wrong length {dv.shape} for n={a.shape[0]}")
    if not np.all(np.isfinite(dv)) or np.any(dv <= 0):
        raise ValidationError("scaling vector must be strictly positive and finite")
    return float((a * dv[:, None] / dv[None, :]).sum(axis=1).max())


def _subset_rho(a: np.ndarray, idx: tuple[int, ...], tol: float) -> float:
    sub = a[np.ix_(idx, idx)]
    return spectral_radius(sub, tol=tol).rho


def _screen(a: np.ndarray, max_size: int) -> list[tuple[int, ...]]:
    """Subsets whose batched-eigvals bound is within _SCREEN_WINDOW of the
    top one, in enumeration order: by size, then lexicographic."""
    scaled = _nubar_normalized(a)
    if scaled is None:
        return []  # acyclic support: every principal submatrix is nilpotent
    n = a.shape[0]
    screened = []
    for size in range(1, max_size + 1):
        idx = np.array(list(combinations(range(n), size)), dtype=np.intp)
        stack = scaled[idx[:, :, None], idx[:, None, :]]
        est = np.abs(np.linalg.eigvals(stack)).max(axis=1) / size
        screened.append((idx, est))
    top = max(float(est.max()) for _, est in screened)
    if top == 0.0:
        return []  # no subset induces a cycle, so none beats the incumbent
    cut = top * (1.0 - _SCREEN_WINDOW)
    return [tuple(int(i) for i in row) for idx, est in screened for row in idx[est >= cut]]


def nu_lower_bound(
    M,
    max_subset_size: int | None = None,
    exhaustive_limit: int = 16,
    tol: float = 1e-10,
) -> SubsetBound:
    """Best submatrix lower bound rho(M_I)/|I| over index subsets.

    Up to ``exhaustive_limit`` nodes every subset of at most
    ``max_subset_size`` nodes is covered, in two passes. The screen takes
    the Perron roots of all subsets of one size from a single batched
    ``np.linalg.eigvals`` call on the stack of principal submatrices. It runs
    on the matrix scaled by the ``nubar`` potentials and divided by
    ``nubar``, formed in the log domain: a diagonal similarity leaves every
    rho(M_I) unchanged, the scaled entries are at most one, and the witness
    cycle's submatrix has Perron root at least one. So, whenever the size
    limit admits the witness cycle, the eigensolver's error stays far below
    the best value even on entries spanning many orders of magnitude. The confirm pass then runs ``spectral_radius`` on
    the unscaled submatrix of each subset screened within
    ``_SCREEN_WINDOW`` of the top, and the bound and ``rho_sub`` come from
    those calls alone.

    Beyond ``exhaustive_limit`` a greedy descent from the full index set is
    used and the result is marked non-exhaustive. Ties prefer smaller
    subsets, then lexicographic order.
    """
    a = as_array(M)
    n = a.shape[0]
    if max_subset_size is None:
        max_subset_size = n
    if not (1 <= max_subset_size <= n):
        raise ValidationError(
            f"max_subset_size must be in [1, {n}], got {max_subset_size}"
        )

    best_idx: tuple[int, ...] = (0,)
    best_rho = _subset_rho(a, (0,), tol)
    best = best_rho / 1.0

    if n <= exhaustive_limit:
        for idx in _screen(a, max_subset_size):
            if idx == (0,):
                continue
            rho = _subset_rho(a, idx, tol)
            bound = rho / len(idx)
            if bound > best + 1e-12 * max(1.0, best):
                best, best_rho, best_idx = bound, rho, idx
        exhaustive = True
    else:
        current = tuple(range(n))
        rho = _subset_rho(a, current, tol)
        if len(current) <= max_subset_size:
            best, best_rho, best_idx = rho / len(current), rho, current
        while len(current) > 1:
            step_best = None
            for drop in current:
                cand = tuple(i for i in current if i != drop)
                rho = _subset_rho(a, cand, tol)
                bound = rho / len(cand)
                if step_best is None or bound > step_best[0] + 1e-12 * max(1.0, step_best[0]):
                    step_best = (bound, rho, cand)
            bound, rho, current = step_best
            if len(current) <= max_subset_size and bound > best + 1e-12 * max(1.0, best):
                best, best_rho, best_idx = bound, rho, current
        exhaustive = False

    indices = tuple(i + 1 for i in best_idx)
    return SubsetBound(indices=indices, rho_sub=best_rho, bound=best, exhaustive=exhaustive)
