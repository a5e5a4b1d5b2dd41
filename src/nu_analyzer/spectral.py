"""Nonnegative-matrix spectral analysis.

The spectral radius of the magnitude matrix is the classical robustness
measure against diagonal uncertainty bounded in peak gain; principal
submatrices give lower bounds for the sparsity-aware measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, exp

import numpy as np

from ._graph import cyclic_components
from .errors import ValidationError
from .magnitude import as_array
from .nubar import _cycle_mean_potentials, _Front, _nubar_normalized

# Most subsets screened by one nu_lower_bound call.
_SCREEN_BUDGET = 1 << 16

# Most subsets whose submatrices are stacked for one eigvals call; at
# dimension 14 or less every subset size fits in one chunk.
_SCREEN_CHUNK = 1 << 12


@dataclass(frozen=True)
class SpectralResult:
    rho: float


@dataclass(frozen=True)
class SubsetBound:
    """Lower bound rho(M_I)/|I| obtained from a principal submatrix;
    ``rho_sub`` is rho(M_I), read as nubar rho(N_I) off the
    nubar-normalized matrix N, or the diagonal entry itself when |I| = 1."""

    indices: tuple[int, ...]  # 1-based, sorted
    rho_sub: float
    bound: float
    exhaustive: bool


def _perron_roots(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix along the last two axes: the
    Perron root of a nonnegative matrix.

    LAPACK's eigensolver can fail to converge on a nearly nilpotent matrix
    whose entries span hundreds of orders of magnitude. When a stack fails,
    each matrix is solved alone, which gives the bits it gets in the stack,
    and a matrix that still fails is solved on its transpose, which has the
    same spectrum.
    """
    try:
        return np.abs(np.linalg.eigvals(stack)).max(axis=-1)
    except np.linalg.LinAlgError:
        if stack.ndim > 2:
            return np.array([_perron_roots(m) for m in stack])
        return np.abs(np.linalg.eigvals(stack.T)).max(axis=-1)


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
    return SpectralResult(_rho(a, cyclic_components(a)))


def _rho(a: np.ndarray, comps: list[list[int]]) -> float:
    """Perron root of the validated array ``a`` over ``comps``, the strongly
    connected components of a graph holding every arc of ``a``.

    A one-node component's Perron root is its diagonal entry, 0 without a
    self-loop; taking the entry itself keeps it exact where LAPACK's
    eigensolver rescales entries outside about [6.7e-139, 1.5e138] and
    misses by an ulp.
    """
    rho = 0.0
    for comp in comps:
        if len(comp) == 1:
            rho = max(rho, float(a[comp[0], comp[0]]))
        else:
            rho = max(rho, float(_perron_roots(a[np.ix_(comp, comp)])))
    return rho


def mu(M) -> float:
    """Robustness measure against diagonal peak-bounded uncertainty.

    Equals the spectral radius; 1/mu is the smallest uncertainty gain that
    can destabilize the interconnection.
    """
    return spectral_radius(M).rho


def _reachable_estimates(
    scaled: np.ndarray, rows: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """The subsets in ``rows`` whose batched-eigvals Perron root on
    ``scaled``, over |I|, can exceed ``level``, and those roots.

    rho(M_I) <= min(max row sum, max column sum), and the computed root
    exceeds that by about |I|^2 * 1e-16 relative at most, far inside the
    1e-9 margin; a subset whose row/column-sum bound over |I|, raised by
    the margin, is at most ``level`` cannot exceed it and is dropped before
    ``eigvals``.
    """
    size = rows.shape[1]
    sub = scaled[rows[:, :, None], rows[:, None, :]]
    ub = np.minimum(sub.sum(axis=2).max(axis=1), sub.sum(axis=1).max(axis=1)) / size
    live = ub * (1.0 + 1e-9) > level
    return rows[live], _perron_roots(sub[live]) if live.any() else np.empty(0)


def _line_sum_caps(scaled: np.ndarray, max_size: int) -> np.ndarray:
    """c_k = min(max_i R_i(k), max_j C_j(k)) / k for k = 1..``max_size``,
    where R_i(k) is the sum of the k largest entries of row i of ``scaled``
    and C_j(k) the same for column j.

    Each line is partitioned to its ``max_size`` largest entries before
    those are sorted, so a large matrix costs O(n^2) and not O(n^2 log n).
    """
    n = scaled.shape[0]
    lines = np.stack([scaled, scaled.T])
    top = np.sort(np.partition(lines, n - max_size, axis=2)[:, :, n - max_size:], axis=2)
    sums = np.cumsum(top[:, :, ::-1], axis=2).max(axis=1)
    return np.minimum(sums[0], sums[1]) / np.arange(1, max_size + 1)


def _screen(
    a: np.ndarray, max_size: int, front: _Front | None
) -> tuple[tuple[int, ...], float, bool, float]:
    """The subset I of at most ``max_size`` nodes with the best bound
    rho(N_I)/|I| on the nubar-normalized matrix N, and rho(N_I); whether the
    screen ended short of the budget; and rho(a) = exp(lam) rho(N), with
    rho(N) the size cap's root, one cyclic component at a time, which N's
    bounded entries keep accurate (``nu_lower_bound``). ``front`` is the
    nubar front half of ``a``.

    A subset replaces the incumbent only if its bound is above the replace
    level, the best bound so far times 1 + 1e-12. Singletons are ranked so
    on the diagonal of ``a``, where N's can underflow to 0.0 and tie, and
    count against the budget; from the winner's N entry the walk runs by
    size from 2 and then lexicographic order, and then offers the witness
    cycle when the screen ended before its size.

    Three prunes test against the replace level, which only grows, so a
    subset they drop could not replace the incumbent when its turn came, and
    the winner is the one the walk would pick without them:
    ``_reachable_estimates`` drops single subsets, the size cap ends the
    walk, and a size k whose line-sum cap c_k (``_line_sum_caps``), raised
    by a relative margin of 1e-9, is at most the replace level is not
    enumerated, gathered or solved. For |I| = k, every row of
    ``scaled[I, I]`` holds k entries of a row of ``scaled``, so its sum is
    at most that row's R_i(k), and likewise for columns: the row/column-sum
    bound ``_reachable_estimates`` would compute for any k-subset is at most
    c_k. The two sums add at most k nonnegative terms in different orders,
    so they differ by about 2k * 1e-16 relative, and a computed root exceeds
    its row/column-sum bound by about k^2 * 1e-16 relative at most, both far
    inside the margin. A skipped size still counts its C(n, k) subsets
    against the budget, so the budget, ``exhaustive`` and the witness rule
    are those of the unpruned walk.
    """
    if front is None:
        return (0,), 0.0, True, 0.0  # acyclic support: every principal submatrix is nilpotent
    scaled = _nubar_normalized(front)
    n = a.shape[0]
    rho_norm = _rho(scaled, front.comps)
    caps = _line_sum_caps(scaled, max_size)
    diag, k = np.diag(a).tolist(), 0
    for i in range(1, n):
        if diag[i] > diag[k] * (1.0 + 1e-12):
            k = i
    best_idx, best_root = (k,), float(scaled[k, k])
    best, total, walked, exhaustive = best_root, n, 1, True

    def offer(rows: np.ndarray) -> None:
        nonlocal best_idx, best_root, best
        size = rows.shape[1]
        rows, roots = _reachable_estimates(scaled, rows, best * (1.0 + 1e-12))
        est = roots / size
        # the replace level only grows, so only subsets above it now can replace
        for i in np.flatnonzero(est > best * (1.0 + 1e-12)).tolist():
            if est[i] > best * (1.0 + 1e-12):
                best_idx, best_root, best = tuple(rows[i].tolist()), float(roots[i]), float(est[i])

    for size in range(2, max_size + 1):
        if best > 0.0 and size > rho_norm / (best * (1.0 + 1e-12)) * (1.0 + 1e-9):
            break  # rho(N_I) <= rho(N): no subset of this size is above the replace level
        count = comb(n, size)
        total += count
        if total > _SCREEN_BUDGET:
            exhaustive = False
            break
        walked = size
        if caps[size - 1] * (1.0 + 1e-9) <= best * (1.0 + 1e-12):
            continue
        flat = chain.from_iterable(combinations(range(n), size))
        idx = np.fromiter(flat, np.intp, count=count * size).reshape(count, size)
        for rows in np.split(idx, range(_SCREEN_CHUNK, count, _SCREEN_CHUNK)):
            offer(rows)
    if walked < len(front.cycle) <= max_size:
        offer(np.array([sorted(front.cycle)]))
    return best_idx, best_root, exhaustive, exp(front.lam) * rho_norm


def nu_lower_bound(M, max_subset_size: int | None = None) -> SubsetBound:
    """Best submatrix lower bound rho(M_I)/|I| over subsets of at most
    ``max_subset_size`` nodes.

    The screen (``_screen``) walks the subsets on the nubar-normalized
    matrix N: M scaled by the ``nubar`` potentials and divided by ``nubar``,
    formed in the log domain. A diagonal similarity leaves every rho(M_I)
    unchanged, so rho(M_I) = nubar rho(N_I); N's entries are at most one,
    and the witness cycle's submatrix has Perron root at least one. So,
    whenever the size limit admits the witness cycle, the eigensolver's
    error stays far below the best value even on entries spanning many
    orders of magnitude, where the roots of the unscaled blocks can come out
    as 0.0. The Perron roots of all subsets of one size come from batched
    ``np.linalg.eigvals`` calls of at most ``_SCREEN_CHUNK`` subsets each;
    each matrix of a stack is solved on its own, so every root keeps the bits
    it gets alone. No subset is solved twice: the winner's bound is
    nubar rho(N_I)/|I|, and a singleton's, ranked on the diagonal of M, is
    its diagonal entry itself. A subset replaces the incumbent only if its
    bound is above the incumbent's by more than 1e-12 relative, so ties
    prefer smaller subsets, then lexicographic order, at any scale of M.

    Only subsets that can pass that replace level go to ``eigvals``. The
    Perron root of a nonnegative matrix is at most its largest row sum and
    its largest column sum, so a subset whose bound min(row, column)/|I|,
    raised by a relative margin of 1e-9, is at most the replace level is
    dropped. This is exact: ``eigvals`` is backward stable, so a computed
    root exceeds that bound by about |I|^2 * 1e-16 relative at most, and the
    replace level only grows, so a dropped subset could not have replaced
    the incumbent when its turn came.

    Whole sizes are dropped by the same argument before they are even
    enumerated, through the per-size line-sum caps (``_line_sum_caps``,
    ``_screen``); their C(n, k) subsets still count against the budget
    below. On ``default_rng(n).random((n, n))`` with a size limit of 12,
    this leaves no subset to gather at n = 12, and 14,876 of the 65,535
    subsets at n = 16, none of which reaches ``eigvals``.

    Sizes run upwards from one. Since rho(M_I) <= rho(M), no subset of more
    than rho(M)/b nodes beats the best bound b; past that cap the
    result is ``exhaustive``. A size that would take the subset count past
    ``_SCREEN_BUDGET`` = 2^16 ends the screen short, not exhaustive; the sum
    of C(16, k) over k = 1..16 is 65535, so this never happens at n <= 16.
    """
    a = as_array(M)
    return _subset_bound(a, max_subset_size, _cycle_mean_potentials(a))[0]


def _subset_bound(
    a: np.ndarray, max_subset_size: int | None, front: _Front | None
) -> tuple[SubsetBound, float]:
    """``nu_lower_bound`` of ``a``, whose nubar front half is ``front``, and
    rho(a): the screen's winner mapped back to the scale of ``a``, with no
    further eigensolve."""
    n = a.shape[0]
    if max_subset_size is None:
        max_subset_size = n
    if not (1 <= max_subset_size <= n):
        raise ValidationError(
            f"max_subset_size must be in [1, {n}], got {max_subset_size}"
        )

    idx, root, exhaustive, rho_a = _screen(a, max_subset_size, front)
    if len(idx) == 1:
        rho_sub = bound = max(0.0, float(a[idx[0], idx[0]]))  # a self-loop's root is its entry
    else:
        rho_sub, bound = exp(front.lam) * root, exp(front.lam) * (root / len(idx))
    indices = tuple(i + 1 for i in idx)
    return SubsetBound(indices=indices, rho_sub=rho_sub, bound=bound, exhaustive=exhaustive), rho_a
