"""Nonnegative-matrix spectral analysis.

The spectral radius of the magnitude matrix is the classical robustness
measure against diagonal uncertainty bounded in peak gain; principal
submatrices give lower bounds for the sparsity-aware measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._graph import cyclic_components
from .errors import ValidationError
from .magnitude import as_array
from .nubar import _nubar_normalized, _scaling_for

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


@dataclass(frozen=True)
class SubsetBound:
    """Lower bound rho(M_I)/|I| obtained from a principal submatrix."""

    indices: tuple[int, ...]  # 1-based, sorted
    rho_sub: float
    bound: float
    exhaustive: bool


def _perron_roots(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix along the last two axes: the
    Perron root of a nonnegative matrix."""
    return np.abs(np.linalg.eigvals(stack)).max(axis=-1)


def spectral_radius(M) -> SpectralResult:
    """Perron root of a nonnegative matrix, one component at a time.

    Ordered by the strongly connected components of the support graph, the
    matrix is block triangular, so its spectrum is the union of the spectra
    of the components' diagonal blocks. Only components with a cycle (more
    than one node, or a self-loop) have a nonzero block. Each block is
    solved with a direct eigensolve. Solving the blocks apart matters when
    the same Perron root recurs in several of them: on the whole matrix that
    root is defective, and the eigensolver misses it by about the square
    root of the rounding error.
    """
    a = as_array(M)
    rho = 0.0
    for comp in cyclic_components(a):
        rho = max(rho, float(_perron_roots(a[np.ix_(comp, comp)])))
    return SpectralResult(rho)


def mu(M) -> float:
    """Robustness measure against diagonal peak-bounded uncertainty.

    Equals the spectral radius; 1/mu is the smallest uncertainty gain that
    can destabilize the interconnection.
    """
    return spectral_radius(M).rho


def scaled_inf_norm(M, d) -> float:
    """Maximum row sum after the diagonal similarity with weights ``d``."""
    a = as_array(M)
    sv = _scaling_for(a, d)
    if not sv.strictly_positive:
        raise ValidationError("scaling vector must be strictly positive and finite")
    dv = sv.d
    return float((a * dv[:, None] / dv[None, :]).sum(axis=1).max())


def _subset_rho(a: np.ndarray, idx: tuple[int, ...]) -> float:
    return spectral_radius(a[np.ix_(idx, idx)]).rho


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
        est = _perron_roots(stack) / size
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
    best_rho = _subset_rho(a, (0,))
    best = best_rho / 1.0

    if n <= exhaustive_limit:
        for idx in _screen(a, max_subset_size):
            if idx == (0,):
                continue
            rho = _subset_rho(a, idx)
            bound = rho / len(idx)
            if bound > best + 1e-12 * max(1.0, best):
                best, best_rho, best_idx = bound, rho, idx
        exhaustive = True
    else:
        current = tuple(range(n))
        rho = _subset_rho(a, current)
        if len(current) <= max_subset_size:
            best, best_rho, best_idx = rho / len(current), rho, current
        while len(current) > 1:
            step_best = None
            for drop in current:
                cand = tuple(i for i in current if i != drop)
                rho = _subset_rho(a, cand)
                bound = rho / len(cand)
                if step_best is None or bound > step_best[0] + 1e-12 * max(1.0, step_best[0]):
                    step_best = (bound, rho, cand)
            bound, rho, current = step_best
            if len(current) <= max_subset_size and bound > best + 1e-12 * max(1.0, best):
                best, best_rho, best_idx = bound, rho, current
        exhaustive = False

    indices = tuple(i + 1 for i in best_idx)
    return SubsetBound(indices=indices, rho_sub=best_rho, bound=best, exhaustive=exhaustive)
