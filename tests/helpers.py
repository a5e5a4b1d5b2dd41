"""Independent oracles and corpus generators shared by the tests.

These deliberately avoid the production code paths: cycle enumeration is
plain itertools search, the spectral oracle goes through characteristic
polynomial roots, the subset-bound oracle runs ``spectral_radius`` on every
subset where the library screens them with batched eigenvalues, and the
scaling-bound oracle bisects with Bellman-Ford where the library runs Karp's
mean-cycle recursion. The balancing oracle takes every update's row and
column maxima and its objective with full n x n passes, where the library
takes the maxima over per-line candidates certified against the next
largest entry, and reads the objective off the column maxima; the study
oracle runs it once per (trial, theta) until it converges, where the
library runs all thetas of a trial in one stack and stops each trajectory
at its first crossing of the tightest tolerance.
The critical-class contraction reference carries its graph as arc tuples and
per-node offset dicts, where the library contracts weight arrays. The
exact-value reference scores every gain direction, one per eigvals call,
where the library drops grid directions whose row/column-sum bound cannot
beat the running best and scores the refinement in stacks that run from a
cursor to the end of a run of sweeps.
The subset-screen reference sends every subset to eigvals, where the library
first drops those whose row/column-sum bound cannot reach the top.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain, combinations, combinations_with_replacement, permutations
from math import comb

import numpy as np

from nu_analyzer import (
    NubarResult,
    ScalingVector,
    SubsetBound,
    balance_residuals,
    certify_optimality,
    nubar_exact,
    spectral_radius,
)
from nu_analyzer._graph import cyclic_components, support_adjacency
from nu_analyzer.balancer import BalanceStep, BalanceTrace, StudyRow, TrialRecord, trial_matrix
from nu_analyzer.magnitude import as_array
from nu_analyzer.nu_exact import _ORACLE_GRID, METHOD_ORACLE, NuResult
from nu_analyzer.nubar import (
    NEG,
    _acyclic_scaling,
    _cycle_in_tight_graph,
    _cycle_mean_potentials,
    _karp,
    _log_weights,
    _nubar_normalized,
    _tight_arcs,
)
from nu_analyzer.spectral import _SCREEN_BUDGET, _SCREEN_CHUNK, _SCREEN_WINDOW, _perron_roots


def enum_max_cycle_mean(a: np.ndarray) -> float:
    """Maximum geometric mean over all simple cycles, by brute enumeration.

    Products are taken directly (not in logs) so this is an independent
    arithmetic path from the production solver. Returns 0.0 for acyclic
    support. Exponential cost; intended for n <= 7.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    best = 0.0
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            first = subset[0]
            rest = subset[1:]
            for order in permutations(rest):
                cycle = (first,) + order
                prod = 1.0
                ok = True
                for i in range(k):
                    entry = a[cycle[i], cycle[(i + 1) % k]]
                    if entry <= 0.0:
                        ok = False
                        break
                    prod *= entry
                if ok:
                    best = max(best, prod ** (1.0 / k))
    return best


def char_poly_rho(a: np.ndarray) -> float:
    """Spectral radius via characteristic polynomial roots (companion-matrix
    eigensolve through numpy.roots), on the whole matrix where the library
    solves each strongly connected component directly."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.eye(n)
    for k in range(1, n + 1):
        mk = a @ mk
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        mk = mk + ck * np.eye(n)
    roots = np.roots(coeffs)
    return float(np.abs(roots).max()) if roots.size else 0.0


def enum_subset_bound(a: np.ndarray, max_subset_size: int | None = None) -> SubsetBound:
    """Exhaustive subset lower bound with spectral_radius on every subset.

    Same enumeration order, tie margin and (1,) incumbent as the production
    search, which confirms its screened subsets with the same
    ``spectral_radius``, so the two agree field for field. Exponential cost;
    intended for n <= 9.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if max_subset_size is None:
        max_subset_size = n
    best_idx = (0,)
    best_rho = spectral_radius(a[:1, :1]).rho
    best = best_rho
    for size in range(1, max_subset_size + 1):
        for idx in combinations(range(n), size):
            if idx == (0,):
                continue
            rho = spectral_radius(a[np.ix_(idx, idx)]).rho
            bound = rho / size
            if bound > best * (1.0 + 1e-12):
                best, best_rho, best_idx = bound, rho, idx
    return SubsetBound(tuple(i + 1 for i in best_idx), best_rho, best, True)


def nubar_lp(M, tol_log: float = 1e-10) -> NubarResult:
    """Independent solver for the scaling bound ``nubar``.

    Bisects the objective level; a level is feasible exactly when the graph
    with arc costs level - log(M_ij) has no negative cycle, which n rounds of
    Bellman-Ford relaxation detect. Kept free of the mean-cycle machinery on
    purpose.
    """
    a = as_array(M)
    n = a.shape[0]
    if not cyclic_components(a):
        d = _acyclic_scaling(a)
        sv = ScalingVector(d)
        return NubarResult(0.0, sv, (), certify_optimality(a, d), bool(balance_residuals(a, d).max() <= 1e-8))
    w = _log_weights(a)
    arcs = w > NEG

    def feasible(level: float) -> np.ndarray | None:
        cost = np.where(arcs, level - w, np.inf)
        dist = np.zeros(n)
        for _ in range(n):
            dist = np.minimum(dist, (dist[:, None] + cost).min(axis=0))
        if ((dist[:, None] + cost).min(axis=0) < dist - 1e-15).any():
            return None
        return dist

    lo = float(w[arcs].min()) - 1.0
    hi = float(w[arcs].max()) + 1.0
    while hi - lo > tol_log:
        mid = 0.5 * (lo + hi)
        if feasible(mid) is not None:
            hi = mid
        else:
            lo = mid
    dist = feasible(hi)
    beta = -dist
    d = np.exp(beta - beta.max())
    gamma = 0.5 * (lo + hi)
    value = math.exp(gamma)
    cycle = ()
    for tol in (max(1e-8, 100 * n * tol_log), 1e-6, 1e-4):
        cycle = _cycle_in_tight_graph(_tight_arcs(w, gamma, beta, tol))
        if cycle:
            break
    sv = ScalingVector(d)
    return NubarResult(
        value,
        sv,
        tuple(i + 1 for i in cycle),
        certify_optimality(a, d),
        bool(balance_residuals(a, d).max() <= 1e-8),
    )


def ref_max_balance_strong(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Critical-class contraction of a strongly connected log-weighted
    digraph, on arc tuples and per-node offset dicts.

    Same levels, tight classes and BFS offsets as ``nubar._max_balance_strong``,
    so its log scalings and absorption levels agree bit for bit.
    """
    m0 = w.shape[0]
    members: list[dict[int, float]] = [{u: 0.0} for u in range(m0)]
    cur_arcs = [(int(u), int(v), w[u, v]) for u, v in zip(*np.nonzero(w > NEG))]
    level_of: dict[int, float] = {}

    while cur_arcs:
        m = len(members)
        W = np.full((m, m), NEG)
        for u, v, wt in cur_arcs:
            if wt > W[u, v]:
                W[u, v] = wt
        lam, p = _karp(W)
        tight = _tight_arcs(W, lam, p, 1e-9)
        tadj = support_adjacency(tight)
        classes = cyclic_components(tight)
        delta = np.zeros(m)
        class_of = np.full(m, -1)
        for ci, comp in enumerate(classes):
            cs = set(comp)
            class_of[comp] = ci
            root = comp[0]
            seen = {root}
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for v in tadj[u]:
                    if v in cs and v not in seen:
                        delta[v] = delta[u] + W[u, v] - lam
                        seen.add(v)
                        queue.append(v)
        for comp in classes:
            for i in comp:
                for orig in members[i]:
                    level_of.setdefault(orig, lam)
        new_ids = {}
        new_members: list[dict[int, float]] = []
        for comp in classes:
            nid = len(new_members)
            merged: dict[int, float] = {}
            for i in comp:
                for orig, off in members[i].items():
                    merged[orig] = off + delta[i]
            new_members.append(merged)
            for i in comp:
                new_ids[i] = nid
        for i in range(m):
            if class_of[i] == -1:
                new_ids[i] = len(new_members)
                new_members.append(members[i])
        next_arcs: dict[tuple[int, int], float] = {}
        for u, v, wt in cur_arcs:
            if class_of[u] != -1 and class_of[u] == class_of[v]:
                continue  # pinned inside a class (critical arcs and chords)
            key = (new_ids[u], new_ids[v])
            wn = wt + delta[u] - delta[v]
            if key not in next_arcs or wn > next_arcs[key]:
                next_arcs[key] = wn
        members = new_members
        cur_arcs = [(u, v, wt) for (u, v), wt in next_arcs.items()]

    pi = np.zeros(m0)
    for mem in members:
        for orig, off in mem.items():
            pi[orig] = off
    level = np.array([level_of.get(u, NEG) for u in range(m0)])
    return pi, level


def nubar_scaled(a: np.ndarray) -> np.ndarray:
    """The matrix under nubar_exact's optimal scaling, formed in logs.

    The scaling weights may be tiny on wide-range inputs; summing their logs
    with the entries' keeps every scaled entry representable.
    """
    a = np.asarray(a, dtype=float)
    logd = np.log(nubar_exact(a).scaling.d)
    with np.errstate(divide="ignore"):
        return np.exp(np.log(a) + logd[:, None] - logd[None, :])


def eig_subset_value(scaled: np.ndarray, idx) -> float:
    """Largest |eigvals| of the principal submatrix on 0-based ``idx``, over |I|."""
    idx = list(idx)
    return float(np.abs(np.linalg.eigvals(scaled[np.ix_(idx, idx)])).max()) / len(idx)


def eig_subset_max(scaled: np.ndarray, max_subset_size: int) -> float:
    """Brute-force maximum of eig_subset_value over all subsets up to the size limit."""
    n = scaled.shape[0]
    best = 0.0
    for size in range(1, max_subset_size + 1):
        idx = np.array(list(combinations(range(n), size)))
        ev = np.linalg.eigvals(scaled[idx[:, :, None], idx[:, None, :]])
        best = max(best, float(np.abs(ev).max()) / size)
    return best


def ref_screen(a: np.ndarray, max_size: int) -> tuple[list[tuple[int, ...]], bool]:
    """spectral._screen without the row/column-sum prune: every enumerated
    subset goes to eigvals."""
    front = _cycle_mean_potentials(a)
    if front is None:
        return [], True  # acyclic support: every principal submatrix is nilpotent
    scaled, cycle, comps = _nubar_normalized(front), front.cycle, cyclic_components(a)
    n = a.shape[0]
    rho_norm = max(float(_perron_roots(scaled[np.ix_(c, c)])) for c in comps)
    witness = tuple(sorted(cycle)) if len(cycle) <= max_size else ()
    screened, top, total, exhaustive = [], 0.0, 0, True
    for size in range(1, max_size + 1):
        if top > 0.0 and size > rho_norm / top * (1.0 + 1e-9):
            break  # rho(M_I) <= rho(M): no subset of this size beats top
        count = comb(n, size)
        total += count
        if total > _SCREEN_BUDGET:
            exhaustive = False
            break
        flat = chain.from_iterable(combinations(range(n), size))
        idx = np.fromiter(flat, np.intp, count=count * size).reshape(count, size)
        est = np.concatenate([
            _perron_roots(scaled[rows[:, :, None], rows[:, None, :]])
            for rows in np.split(idx, range(_SCREEN_CHUNK, count, _SCREEN_CHUNK))
        ]) / size
        screened.append((idx, est))
        top = max(top, float(est.max()))
    # est > 0: a subset that induces no cycle never beats the incumbent
    keep = [idx[(est >= top * (1.0 - _SCREEN_WINDOW)) & (est > 0.0)] for idx, est in screened]
    near = [tuple(int(i) for i in row) for rows in keep for row in rows]
    if len(witness) > len(screened):
        near.append(witness)
    return near, exhaustive


def _objective(a: np.ndarray, d: np.ndarray) -> float:
    return float((a * d[:, None] / d[None, :]).max())


def ref_heuristic_balance(
    a: np.ndarray, theta: float, max_iter: int, tol: float
) -> BalanceTrace:
    """heuristic_balance with the objective taken over the whole scaled matrix."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    a0 = a.copy()
    np.fill_diagonal(a0, 0.0)

    d = np.ones(n)
    steps = [BalanceStep(1, d.copy(), _objective(a, d), float("inf"))]
    converged = False
    oscillating = False
    for t in range(2, max_iter + 2):
        prev = steps[-1]
        num = (a0 * d[:, None]).max(axis=0)
        den = (a0 / d[None, :]).max(axis=1)
        ok = (num > 0) & (den > 0)
        ratio = np.where(ok, np.sqrt(np.where(ok, num, 1.0)) / np.sqrt(np.where(ok, den, 1.0)), d)
        dn = (1.0 - theta) * d + theta * ratio
        obj = _objective(a, dn)
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


def ref_convergence_study(
    ns: list[int],
    trials: int,
    thetas: list[float],
    tol_grid: list[float],
    seed: int = 0,
    max_iter: int = 1000,
    dist: str = "uniform",
    density: float = 0.25,
) -> list[StudyRow]:
    """convergence_study with one ref_heuristic_balance run per (trial, theta)."""
    rows = []
    stop_tol = min(tol_grid)
    for n in ns:
        for theta in thetas:
            records = []
            for trial in range(trials):
                m = trial_matrix(n, seed, trial, dist, density)
                trace = ref_heuristic_balance(m, theta, max_iter, stop_tol)
                rel = np.array([s.rel_change for s in trace.iterations[1:]])
                records.append(TrialRecord(trial, rel, trace.objective, trace.converged))
            for tol in tol_grid:
                hits = [c for c in (r.iterations_to(tol) for r in records) if c is not None]
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


def _ref_simplex_grid(n: int, grid: int):
    for cuts in combinations_with_replacement(range(grid + 1), n - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(grid - prev)
        yield np.array(parts, dtype=float) / grid


def ref_coarse_search(a: np.ndarray, grid: int) -> tuple[float, np.ndarray]:
    """The oracle's grid stage scoring every direction, one eigvals call
    each, in grid order."""
    best_dir = None
    best = -1.0
    for direction in _ref_simplex_grid(a.shape[0], grid):
        r = float(_perron_roots(direction[:, None] * a))
        if r > best + 1e-15:
            best, best_dir = r, direction
    return best, best_dir


def ref_nu_oracle(M) -> NuResult:
    """nu_oracle with one eigvals call per direction, in search order, on M
    divided by the power of two that brings its largest entry into [0.5, 1)."""
    a = as_array(M)
    n = a.shape[0]
    e = math.frexp(a.max())[1]
    a = np.ldexp(a, -e)
    grid = _ORACLE_GRID[n]
    best, best_dir = ref_coarse_search(a, grid)
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
    witness = np.ldexp(best_dir / best, -e)
    return NuResult(math.ldexp(best, e), witness, METHOD_ORACLE)


def dense_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.random((n, n))


def sparse_matrix(rng: np.random.Generator, n: int, density: float = 0.4) -> np.ndarray:
    return rng.random((n, n)) * (rng.random((n, n)) < density)


def mixed_corpus(seed: int, count: int, n_min: int = 2, n_max: int = 6) -> list[np.ndarray]:
    """Seeded corpus of dense and sparse nonnegative matrices."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        if k % 2 == 0:
            out.append(dense_matrix(rng, n))
        else:
            out.append(sparse_matrix(rng, n, density=float(rng.uniform(0.2, 0.8))))
    return out


def positive_diagonal(rng: np.random.Generator, n: int, low: float = 0.5, high: float = 2.0) -> np.ndarray:
    return np.exp(rng.uniform(np.log(low), np.log(high), size=n))
