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

# Relative width of the band below the top screened bound inside which
# subsets are confirmed with spectral_radius. The screen's eigvals call is
# backward stable: on the nubar-normalized submatrices (entries at most one)
# it perturbs each entry by about k * 1e-16, while the best bound there is at
# least 1/n whenever the witness cycle fits in the subset size limit. A
# well-conditioned Perron root therefore lands within about 1e-13 of the top
# value, seven orders of magnitude inside this window.
_SCREEN_WINDOW = 1e-6

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
    """Lower bound rho(M_I)/|I| obtained from a principal submatrix."""

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
    return SpectralResult(_rho(as_array(M)))


def _rho(a: np.ndarray, comps: list[list[int]] | None = None) -> float:
    """``spectral_radius`` of the validated array ``a``, over ``comps`` when
    given: the strongly connected components of a graph holding every arc of
    ``a`` (the nubar front half's), and over its own cyclic components
    otherwise.

    A one-node component's Perron root is its diagonal entry, 0 without a
    self-loop; taking the entry itself keeps it exact where LAPACK's
    eigensolver rescales entries outside about [6.7e-139, 1.5e138] and
    misses by an ulp. A 1x1 array skips the component search.
    """
    if a.shape[0] == 1:
        return max(0.0, float(a[0, 0]))
    rho = 0.0
    for comp in cyclic_components(a) if comps is None else comps:
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
    scaled: np.ndarray, rows: np.ndarray, top: float
) -> tuple[np.ndarray, np.ndarray]:
    """The subsets in ``rows`` whose batched-eigvals bound on ``scaled`` can
    reach the window under ``top``, and those bounds.

    rho(M_I) <= min(max row sum, max column sum), and the computed root
    exceeds that by about |I|^2 * 1e-16 relative at most, far inside the
    1e-9 margin; the other subsets are dropped before ``eigvals``.
    """
    size = rows.shape[1]
    sub = scaled[rows[:, :, None], rows[:, None, :]]
    ub = np.minimum(sub.sum(axis=2).max(axis=1), sub.sum(axis=1).max(axis=1)) / size
    live = ub * (1.0 + 1e-9) >= top * (1.0 - _SCREEN_WINDOW)
    if not live.any():
        return np.empty((0, size), np.intp), np.empty(0)
    return rows[live], _perron_roots(sub[live]) / size


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
) -> tuple[list[tuple[int, ...]], bool, float]:
    """Subsets whose batched-eigvals bound is within _SCREEN_WINDOW of the
    top one, by size and then lexicographic, then the witness cycle when it
    was not screened; whether the screen ended short of the budget; and
    rho(a) = exp(lam) rho(N), with rho(N) the size cap's root of the
    nubar-normalized matrix N, one cyclic component at a time, which N's
    bounded entries keep accurate (``nu_lower_bound``). ``front`` is the
    nubar front half of ``a``.

    A size k whose line-sum cap c_k (``_line_sum_caps``) is, with a relative
    margin of 1e-9, below the window under the best estimate so far is not
    enumerated, gathered or solved. For |I| = k, every row of
    ``scaled[I, I]`` holds k entries of a row of ``scaled``, so its sum is
    at most that row's R_i(k), and likewise for columns: the row/column-sum
    bound ``_reachable_estimates`` would compute for any k-subset is at most
    c_k. The two sums add at most k nonnegative terms in different orders,
    so they differ by about 2k * 1e-16 relative, far inside the margin.
    Were rounding ever to lift a subset's bound back into the window, its
    estimate, which exceeds that bound by about k^2 * 1e-16 relative at
    most, would still fall below it, and that is all the skip needs: the
    best estimate only grows, so a skipped subset can neither raise it nor
    be kept. A skipped size still counts its C(n, k) subsets against the
    budget and is screened with no survivors, so the budget, ``exhaustive``
    and the witness rule are those of the full screen.
    """
    if front is None:
        return [], True, 0.0  # acyclic support: every principal submatrix is nilpotent
    scaled = _nubar_normalized(front)
    n = a.shape[0]
    rho_norm = _rho(scaled, front.comps)
    caps = _line_sum_caps(scaled, max_size)
    witness = tuple(sorted(front.cycle)) if len(front.cycle) <= max_size else ()
    screened, top, total, exhaustive = [], 0.0, 0, True
    for size in range(1, max_size + 1):
        if top > 0.0 and size > rho_norm / top * (1.0 + 1e-9):
            break  # rho(M_I) <= rho(M): no subset of this size beats top
        count = comb(n, size)
        total += count
        if total > _SCREEN_BUDGET:
            exhaustive = False
            break
        if caps[size - 1] * (1.0 + 1e-9) < top * (1.0 - _SCREEN_WINDOW):
            screened.append((np.empty((0, size), np.intp), np.empty(0)))
            continue
        flat = chain.from_iterable(combinations(range(n), size))
        idx = np.fromiter(flat, np.intp, count=count * size).reshape(count, size)
        kept = []
        for rows in np.split(idx, range(_SCREEN_CHUNK, count, _SCREEN_CHUNK)):
            kept.append(_reachable_estimates(scaled, rows, top))
            top = max(top, float(kept[-1][1].max(initial=0.0)))
        screened.append(tuple(np.concatenate(part) for part in zip(*kept)))
    # est > 0: a subset that induces no cycle never beats the incumbent
    keep = [idx[(est >= top * (1.0 - _SCREEN_WINDOW)) & (est > 0.0)] for idx, est in screened]
    near = [tuple(int(i) for i in row) for rows in keep for row in rows]
    if len(witness) > len(screened):
        near.append(witness)
    return near, exhaustive, exp(front.lam) * rho_norm


def nu_lower_bound(M, max_subset_size: int | None = None) -> SubsetBound:
    """Best submatrix lower bound rho(M_I)/|I| over subsets of at most
    ``max_subset_size`` nodes.

    The screen takes the Perron roots of all subsets of one size from
    batched ``np.linalg.eigvals`` calls of at most ``_SCREEN_CHUNK`` subsets
    each, on the matrix scaled by the ``nubar`` potentials and divided by
    ``nubar``, formed in the log domain:
    a diagonal similarity leaves every rho(M_I) unchanged, the scaled entries
    are at most one, and the witness cycle's submatrix has Perron root at
    least one. So, whenever the size limit admits the witness cycle, the
    eigensolver's error stays far below the best value even on entries
    spanning many orders of magnitude. The confirm pass then runs
    ``spectral_radius`` on the unscaled submatrix of each subset screened
    within ``_SCREEN_WINDOW`` of the top, and of the witness cycle if it was
    not screened; the bound and ``rho_sub`` come from those calls alone.
    A subset replaces the incumbent only if its bound is above the
    incumbent's by more than 1e-12 relative, so ties prefer smaller
    subsets, then lexicographic order, at any scale of M.

    Only subsets that can reach the window go to ``eigvals``. The Perron root
    of a nonnegative matrix is at most its largest row sum and its largest
    column sum, so a subset whose bound min(row, column)/|I| is, with a
    relative margin of 1e-9, below the window under the best estimate
    screened so far is dropped. This is exact: ``eigvals`` is backward
    stable, so a computed root exceeds that bound by about |I|^2 * 1e-16
    relative at most, and the best estimate only grows, so a dropped subset
    would have failed the final window; it cannot have raised the best
    estimate either, so the size cap sees the same values. Each matrix of a
    stack is solved on its own, so the estimates that remain keep their
    bits.

    Whole sizes are dropped by the same argument before they are even
    enumerated, through the per-size line-sum caps (``_line_sum_caps``,
    ``_screen``); their C(n, k) subsets still count against the budget
    below. On ``default_rng(n).random((n, n))`` with a size limit of 12,
    this leaves only the 12 singletons to gather at n = 12, and 14,892 of
    the 65,535 subsets at n = 16, of which 16 reach ``eigvals``.

    Sizes run upwards from one. Since rho(M_I) <= rho(M), no subset of more
    than rho(M)/b nodes beats the best screened bound b; past that cap the
    result is ``exhaustive``. A size that would take the subset count past
    ``_SCREEN_BUDGET`` = 2^16 ends the screen short, not exhaustive; the sum
    of C(16, k) over k = 1..16 is 65535, so this never happens at n <= 16.
    """
    a = as_array(M)
    return _subset_bound(a, max_subset_size, _cycle_mean_potentials(a))[0]


def _subset_bound(
    a: np.ndarray, max_subset_size: int | None, front: _Front | None
) -> tuple[SubsetBound, float]:
    """``nu_lower_bound`` of ``a``, whose nubar front half is ``front``, and rho(a)."""
    n = a.shape[0]
    if max_subset_size is None:
        max_subset_size = n
    if not (1 <= max_subset_size <= n):
        raise ValidationError(
            f"max_subset_size must be in [1, {n}], got {max_subset_size}"
        )

    best_idx: tuple[int, ...] = (0,)
    best = best_rho = _rho(a[:1, :1])
    candidates, exhaustive, rho_a = _screen(a, max_subset_size, front)
    for idx in candidates:
        if idx == (0,):
            continue
        rho = _rho(a[np.ix_(idx, idx)])
        bound = rho / len(idx)
        if bound > best * (1.0 + 1e-12):
            best, best_rho, best_idx = bound, rho, idx

    indices = tuple(i + 1 for i in best_idx)
    return SubsetBound(indices=indices, rho_sub=best_rho, bound=best, exhaustive=exhaustive), rho_a
