"""Convex upper bound on the sparsity-aware robustness measure.

The bound is the infimum over positive diagonal similarities of the largest
scaled entry. Its combinatorial value is the maximum over directed cycles of
the geometric mean of the entries along the cycle, computed here with one
Karp maximum mean-cycle recursion on log weights from a zero-weight
super-source, whose table also gives the longest-path potentials.
An exact balancing routine produces an optimal scaling whose largest incoming
and outgoing scaled entries agree at every node wherever that is structurally
possible.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._graph import condensation_topological_order, cyclic_components, support_adjacency
from .errors import ValidationError
from .magnitude import as_array

NEG = float("-inf")


@dataclass(frozen=True)
class ScalingVector:
    """Nonnegative diagonal-similarity weights."""

    d: np.ndarray
    strictly_positive: bool = field(init=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.d, dtype=float)
        if a.ndim != 1 or a.shape[0] < 1:
            raise ValidationError(f"scaling vector must be one-dimensional, got shape {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValidationError("scaling weights must be finite and nonnegative")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "d", a)
        object.__setattr__(self, "strictly_positive", bool(np.all(a > 0)))


@dataclass(frozen=True)
class NubarResult:
    value: float
    scaling: ScalingVector
    witness_cycle: tuple[int, ...]  # 1-based node sequence of a maximizing cycle
    certified: bool
    balanced: bool


@dataclass(frozen=True)
class PhiView:
    """Scaled entries M_ij * d_i / d_j under the zero conventions.

    Entries with M_ij = 0 are 0. Entries with d_i = 0 are 0 regardless of
    d_j. Entries with M_ij > 0, d_i > 0 and d_j = 0 are +inf and mark the
    scaling infeasible.
    """

    matrix: np.ndarray
    feasible: bool


def phi_view(M, d) -> PhiView:
    a = as_array(M)
    sv = d if isinstance(d, ScalingVector) else ScalingVector(d)
    if sv.d.shape != (a.shape[0],):
        raise ValidationError(f"scaling vector has wrong length {sv.d.shape} for n={a.shape[0]}")
    return _phi(a, sv.d)


def _phi(a: np.ndarray, dv: np.ndarray) -> PhiView:
    """``phi_view`` of the validated array ``a`` under the checked weights ``dv``."""
    pos = a > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = a * dv[:, None] / dv[None, :]
    phi = np.where(pos & (dv[:, None] > 0), raw, 0.0)
    return PhiView(matrix=phi, feasible=not np.isinf(phi).any())


def _log_weights(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), NEG)


def _karp(w: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Maximum cycle mean ``lam`` of a log-weighted digraph and potentials.

    ``w[u, v]`` is the arc weight, -inf where there is no arc. ``D[k, v]`` is
    the heaviest walk of exactly k arcs ending at v; ``D[0] = 0`` is a
    zero-weight super-source that reaches every node, so Karp's min-max
    ratio over the nodes with a finite ``D[n]`` is ``lam`` on any digraph.
    The potentials ``p = max_{k<n} D[k] - k * lam`` are the longest walks
    under ``w - lam``: ``w[u, v] + p[u] - p[v] <= lam`` on every arc, with
    equality along maximizing cycles. ``(-inf, None)`` on acyclic support.
    """
    n = w.shape[0]
    D = np.empty((n + 1, n))
    D[0] = 0.0
    for k in range(n):
        D[k + 1] = (D[k][:, None] + w).max(axis=0)
    DL = D[n]
    valid = DL > NEG
    if not valid.any():
        return NEG, None
    ks = np.arange(n, dtype=float)[:, None]
    with np.errstate(invalid="ignore"):
        ratios = np.where(D[:n] > NEG, (DL[None, :] - D[:n]) / (n - ks), np.inf)
    lam = float(ratios.min(axis=0)[valid].max())
    return lam, (D[:n] - lam * ks).max(axis=0)


class _Front(NamedTuple):
    """The nubar front half: the maximum cycle mean ``lam`` of the log
    weights ``w``, the potentials ``p`` and the witness cycle."""

    lam: float
    w: np.ndarray
    p: np.ndarray
    cycle: tuple[int, ...]


def _cycle_mean_potentials(a: np.ndarray) -> _Front | None:
    """The front half that ``nubar_exact``, ``balanced_solution`` and the
    subset screen share; None on acyclic support."""
    w = _log_weights(a)
    lam, p = _karp(w)
    if p is None:
        return None
    return _Front(lam, w, p, _witness_cycle(w, lam, p))


def _nubar_normalized(front: _Front) -> np.ndarray:
    """The matrix under the optimal diagonal similarity, divided by nubar.

    Entries are exp(log a_ij + p_i - p_j - lam) with p the longest-path
    potentials and lam the maximum cycle mean, formed in the log domain so
    that no entry underflows through the scaling weights. Every entry is at
    most one up to rounding, those along the witness cycle are one within the
    tightness tolerance, and every principal submatrix keeps its spectral
    radius up to the common factor exp(-lam).
    """
    return np.exp(front.w + front.p[:, None] - front.p[None, :] - front.lam)


def _tight_arcs(w: np.ndarray, lam: float, p: np.ndarray, tol: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        slack = p[:, None] + w - lam - p[None, :]
    return (w > NEG) & (np.abs(slack) <= tol * max(1.0, abs(lam)))


def _cycle_in_tight_graph(tight: np.ndarray) -> tuple[int, ...]:
    """Deterministic cycle extraction: walk the tight subgraph restricted to
    its strongly connected parts, from the smallest node, always taking the
    smallest successor."""
    adj = support_adjacency(tight)
    comp_sets: dict[int, set[int]] = {}
    eligible: list[int] = []
    for comp in cyclic_components(tight, adj):
        cs = set(comp)
        for u in comp:
            comp_sets[u] = cs
        eligible.extend(comp)
    for start in sorted(eligible):
        cs = comp_sets[start]
        pos = {start: 0}
        seq = [start]
        u = start
        while True:
            nxt = next((v for v in adj[u] if v in cs), None)
            if nxt is None:
                break
            if nxt in pos:
                cycle = [int(v) for v in seq[pos[nxt]:]]
                i = cycle.index(min(cycle))
                return tuple(cycle[i:] + cycle[:i])
            pos[nxt] = len(seq)
            seq.append(nxt)
            u = nxt
    return ()


def _witness_cycle(w: np.ndarray, lam: float, p: np.ndarray, tol: float = 1e-9) -> tuple[int, ...]:
    cycle = _cycle_in_tight_graph(_tight_arcs(w, lam, p, tol))
    if not cycle:
        # loosen the tightness tolerance; only needed when potentials carry
        # more rounding than usual
        for factor in (1e2, 1e4, 1e6):
            cycle = _cycle_in_tight_graph(_tight_arcs(w, lam, p, tol * factor))
            if cycle:
                break
    return cycle


def _cycle_geometric_mean(a: np.ndarray, cycle: tuple[int, ...]) -> float:
    if not cycle:
        return 0.0
    total = 0.0
    L = len(cycle)
    for i in range(L):
        total += math.log(a[cycle[i], cycle[(i + 1) % L]])
    return math.exp(total / L)


def _acyclic_scaling(a: np.ndarray) -> np.ndarray:
    """Limit scaling attaining value 0 on acyclic support: zero on every node
    with an outgoing arc, one on sinks and isolated nodes."""
    out_degree = (a > 0).sum(axis=1)
    return np.where(out_degree > 0, 0.0, 1.0)


def certify_optimality(M, d, tol: float = 1e-9) -> bool:
    """Sufficient optimality test for a scaling.

    True when every maximizing scaled entry (k, l) is continued by an equal
    maximizing entry out of l, i.e. the maximizing set chains into loops.
    True implies the scaling is optimal; False is inconclusive.
    """
    return _certified(phi_view(M, d), tol)


def _certified(view: PhiView, tol: float) -> bool:
    """``certify_optimality`` read off the scaled entries ``view``."""
    if not view.feasible:
        return False
    phi = view.matrix
    vmax = float(phi.max())
    if vmax == 0.0:
        return True
    ks, ls = np.nonzero(phi >= vmax * (1.0 - tol))
    for k, l in zip(ks, ls):
        if abs(phi[k, l] - phi[l].max()) > tol * vmax:
            return False
    return True


def balance_residuals(M, d) -> np.ndarray:
    """Per-node gap between the largest incoming and outgoing scaled entries.

    The diagonal is excluded from both maxima. Residuals are normalized by
    the attained objective so a tolerance reads as a value-relative bound.
    An infeasible scaling yields +inf residuals.
    """
    return _residuals(phi_view(M, d))


def _residuals(view: PhiView) -> np.ndarray:
    """``balance_residuals`` read off the scaled entries ``view``."""
    if not view.feasible:
        return np.full(view.matrix.shape[0], np.inf)
    phi = view.matrix.copy()
    np.fill_diagonal(phi, 0.0)
    in_max = phi.max(axis=0)
    out_max = phi.max(axis=1)
    scale = max(float(view.matrix.max()), 1e-300)
    return np.abs(in_max - out_max) / scale


def nubar_exact(M) -> NubarResult:
    """Exact value of the scaling bound with an optimal scaling and witness.

    The value is the maximum cycle geometric mean of the support graph; the
    scaling comes from longest-path potentials, which make every scaled entry
    at most the value and the witness cycle tight. On acyclic support the
    value is 0, which no strictly positive scaling attains; the scaling is
    then the limit one, zero on every node with an outgoing arc and one on
    the rest, and ``scaling.strictly_positive`` is False.
    """
    a = as_array(M)
    return _nubar_result(a, lambda a, lam, p: np.exp(p - p.max()), _cycle_mean_potentials(a))


def _nubar_result(a: np.ndarray, scaling, front: _Front | None) -> NubarResult:
    """The result for the scaling ``scaling(a, lam, p)`` picks from the
    front half ``front`` of ``a``, with the value taken along the witness
    cycle. Acyclic support gets the limit scaling, value 0 and no witness.
    """
    if front is None:
        cycle, d = (), _acyclic_scaling(a)
    else:
        cycle, d = front.cycle, scaling(a, front.lam, front.p)
    sv = ScalingVector(d)
    view = _phi(a, sv.d)
    return NubarResult(
        _cycle_geometric_mean(a, cycle),
        sv,
        tuple(i + 1 for i in cycle),
        _certified(view, 1e-9),
        bool(_residuals(view).max() <= 1e-8),
    )


def _max_balance_strong(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact max-balancing of a strongly connected log-weighted digraph.

    ``w[u, v]`` is the arc weight, -inf where there is no arc. Repeatedly
    pins the maximizing cycles: compute the maximum cycle mean, fix relative
    scalings along the tight strongly connected classes, contract each class
    to a single node and recurse on the contracted graph (the next level's
    mean is strictly smaller). Returns per-node log scalings and the level
    value at which each node was absorbed.
    """
    owner = np.arange(w.shape[0])  # contracted node that holds each input node
    pi = np.zeros(w.shape[0])
    level = np.full(w.shape[0], NEG)
    W = w
    while (W > NEG).any():
        lam, p = _karp(W)
        tight = _tight_arcs(W, lam, p, 1e-9)
        tadj = support_adjacency(tight)
        classes = cyclic_components(tight, tadj)
        delta = np.zeros(W.shape[0])
        new_id = np.full(W.shape[0], -1)
        for ci, comp in enumerate(classes):
            cs = set(comp)
            new_id[comp] = ci
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
        level[(level == NEG) & (new_id[owner] >= 0)] = lam
        rest = np.flatnonzero(new_id < 0)
        new_id[rest] = len(classes) + np.arange(len(rest))
        pi += delta[owner]
        owner = new_id[owner]
        u, v = np.nonzero(W > NEG)
        keep = new_id[u] != new_id[v]  # pinned inside a class: critical arcs and chords
        u, v = u[keep], v[keep]
        m = len(classes) + len(rest)
        W_next = np.full((m, m), NEG)
        np.maximum.at(W_next, (new_id[u], new_id[v]), W[u, v] + delta[u] - delta[v])
        W = W_next
    return pi, level


def balanced_solution(M) -> NubarResult:
    """Optimal scaling whose in/out maxima agree at every node.

    Within each strongly connected part the balance is exact (critical-class
    contraction). Across parts the condensation is a directed acyclic graph;
    cross arcs are pushed strictly below the balanced levels of their
    endpoints, and chain nodes are equalized by coordinate sweeps. Nodes from
    which no cycle is reachable take scaling zero so their arcs vanish, which
    is the only way their outgoing maxima can match an empty incoming side.
    Acyclic support gets the limit scaling of ``nubar_exact``.
    """
    a = as_array(M)
    return _nubar_result(a, _balanced_scaling, _cycle_mean_potentials(a))


def _balanced_scaling(a: np.ndarray, lam_all: float, _p: np.ndarray) -> np.ndarray:
    """Scaling weights of ``balanced_solution`` on cyclic support, whose
    maximum cycle mean is ``lam_all``."""
    n = a.shape[0]
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    adj = support_adjacency(off)
    w_off = _log_weights(off)
    comps, comp_of = condensation_topological_order(n, adj)
    nblocks = len(comps)
    nontrivial = [len(c) > 1 for c in comps]

    pi = np.zeros(n)
    level = np.full(n, NEG)
    for bi, comp in enumerate(comps):
        if nontrivial[bi]:
            pi[comp], level[comp] = _max_balance_strong(w_off[np.ix_(comp, comp)])

    # cross-arc bookkeeping over the condensation
    cross: list[tuple[int, int, int, int]] = []
    succ_blocks: list[set[int]] = [set() for _ in range(nblocks)]
    for u in range(n):
        for v in adj[u]:
            if comp_of[u] != comp_of[v]:
                cross.append((comp_of[u], comp_of[v], u, v))
                succ_blocks[comp_of[u]].add(comp_of[v])
    live = list(nontrivial)
    for bi in range(nblocks):  # topological: arcs only go forward
        if live[bi]:
            for bj in succ_blocks[bi]:
                live[bj] = True

    margin = math.log(0.9)
    tau = lam_all + math.log(1e-10)  # suppression target for unmatchable sides
    in_arcs: list[list[tuple[int, float, float]]] = [[] for _ in range(nblocks)]
    out_arcs: list[list[tuple[int, float, float]]] = [[] for _ in range(nblocks)]
    for bs, bt, u, v in cross:
        if not (live[bs] and live[bt]):
            continue  # arcs from zero-scaled nodes contribute nothing
        c = w_off[u, v] + (pi[u] if nontrivial[bs] else 0.0) - (pi[v] if nontrivial[bt] else 0.0)
        cap = math.inf
        if nontrivial[bs]:
            cap = min(cap, level[u] + margin)
        if nontrivial[bt]:
            cap = min(cap, level[v] + margin)
        in_arcs[bt].append((bs, c, cap))
        out_arcs[bs].append((bt, c, cap))

    # Sweep the block offsets until every cross arc sits at or below its
    # endpoints' balanced levels and every chain node's incoming and outgoing
    # maxima agree. A chain node publishes the balance level it can achieve
    # (its incoming caps may pin it); successors treat a predecessor's level
    # as an additional bound on the connecting arc, so equalization pressure
    # propagates through the condensation instead of stalling at tight caps.
    x = np.zeros(nblocks)
    demand = np.full(nblocks, math.inf)
    order = [bi for bi in range(nblocks) if live[bi]]
    for sweep in range(200 + 10 * nblocks):
        sweep_order = order if sweep % 2 == 0 else order[::-1]
        max_delta = 0.0
        for bi in sweep_order:
            lo, hi = NEG, math.inf
            for bs, c, cap in in_arcs[bi]:
                bound = min(cap, demand[bs])
                if math.isfinite(bound):
                    lo = max(lo, c + x[bs] - bound)
            for bt, c, cap in out_arcs[bi]:
                if math.isfinite(cap):
                    hi = min(hi, cap - c + x[bt])
            if nontrivial[bi]:
                xn = lo if lo > hi else min(max(x[bi], lo), hi)
            else:
                p_in = max((c + x[bs] for bs, c, _ in in_arcs[bi]), default=None)
                q_out = max((c - x[bt] for bt, c, _ in out_arcs[bi]), default=None)
                if p_in is None:
                    xn = 0.0  # unreachable for live chain nodes
                else:
                    half = 0.5 * (p_in + q_out) if q_out is not None else NEG
                    level_u = max(min(half, p_in - lo), tau)
                    demand[bi] = level_u
                    xn = p_in - level_u
            max_delta = max(max_delta, abs(xn - x[bi]))
            x[bi] = xn
        if max_delta <= 1e-14:
            break

    d_log = np.full(n, NEG)
    for bi, comp in enumerate(comps):
        for u in comp:
            if live[bi]:
                d_log[u] = (pi[u] if nontrivial[bi] else 0.0) + x[bi]
            elif not adj[u]:
                d_log[u] = 0.0  # sinks and isolated nodes: any positive weight
    top = d_log[np.isfinite(d_log)].max()
    # NEG entries give exp(-inf) = 0 exactly, with no overflow warning
    return np.exp(d_log - top)
