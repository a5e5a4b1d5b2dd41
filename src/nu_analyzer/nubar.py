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
from functools import cached_property

import numpy as np

from ._graph import cyclic_components, strongly_connected_components, support_adjacency
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

    Entries with M_ij = 0 are 0. Off-diagonal entries with d_i = 0 are 0
    regardless of d_j. A diagonal entry with d_i = 0 is M_ii: a self-loop is
    invariant under diagonal similarity, so that is its limit as d_i -> 0.
    Entries with M_ij > 0, d_i > 0 and d_j = 0 are +inf and mark the
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
    zero = np.flatnonzero(dv == 0)
    phi[zero, zero] = a[zero, zero]
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


@dataclass(frozen=True)
class _Front:
    """The nubar front half: the maximum cycle mean ``lam`` of the log
    weights ``w``, the potentials ``p`` and the witness cycle."""

    lam: float
    w: np.ndarray
    p: np.ndarray
    cycle: tuple[int, ...]

    @cached_property
    def comps(self) -> list[list[int]]:
        """The support's strongly connected components in Tarjan order, which
        the screen's size cap, and so ``mu``, and the balanced scaling read;
        found on first read, so ``nubar_exact`` never searches for them."""
        return strongly_connected_components(self.w.shape[0], support_adjacency(self.w > NEG))


def _cycle_mean_potentials(a: np.ndarray) -> _Front | None:
    """The front half that ``nubar_exact``, ``balanced_solution`` and the
    subset screen share; None on acyclic support. The witness is a cycle of
    the arcs tight within 1e-9 under the potentials, where every maximizing
    cycle lies up to rounding; a tight graph without a cycle is a solver
    fault and raises ``RuntimeError``."""
    w = _log_weights(a)
    lam, p = _karp(w)
    if p is None:
        return None
    cycle = _cycle_in_tight_graph(_tight_arcs(w, lam, p, 1e-9))
    if not cycle:
        raise RuntimeError(f"no tight cycle at the maximum cycle mean {lam!r}")
    return _Front(lam, w, p, cycle)


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
    """Arcs whose slack ``p[u] + w[u, v] - lam - p[v]`` is within ``tol``
    relative to ``max(1, |lam|)``. ``lam`` and ``p`` must be finite, so a
    missing arc's slack is -inf and never tight."""
    return np.abs(p[:, None] + w - lam - p[None, :]) <= tol * max(1.0, abs(lam))


def _cycle_in_tight_graph(tight: np.ndarray) -> tuple[int, ...]:
    """Deterministic cycle extraction: walk from the smallest node of the
    tight graph's cyclic components, always taking the smallest successor
    inside its component, to the first repeated node; () without a cycle.
    Every node of a cyclic component has a successor inside it, so the walk
    never stops short and, on finitely many nodes, closes a cycle."""
    adj = support_adjacency(tight)
    comps = cyclic_components(tight, adj)
    if not comps:
        return ()
    comp = min(comps)  # components are disjoint sorted lists
    start, cs = comp[0], set(comp)
    pos = {start: 0}
    seq = [start]
    u = start
    while True:
        u = next(v for v in adj[u] if v in cs)
        if u in pos:
            cycle = seq[pos[u]:]
            i = cycle.index(min(cycle))
            return tuple(cycle[i:] + cycle[:i])
        pos[u] = len(seq)
        seq.append(u)


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


def certify_optimality(M, d) -> bool:
    """Sufficient optimality test for a scaling.

    True when every maximizing scaled entry (k, l) is continued by an equal
    maximizing entry out of l, i.e. the maximizing set chains into loops.
    True implies the scaling is optimal; False is inconclusive.
    """
    return _certified(phi_view(M, d), 1e-9)


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
    return _nubar_result(a, lambda a, f: np.exp(f.p - f.p.max()), _cycle_mean_potentials(a))


def _nubar_result(a: np.ndarray, scaling, front: _Front | None) -> NubarResult:
    """The result for the scaling ``scaling(a, front)`` picks from the
    front half ``front`` of ``a``, with the value taken along the witness
    cycle. Acyclic support gets the limit scaling, value 0 and no witness.
    Both flags also need the largest scaled entry to be the value within
    1e-9 relative, which a scaling whose witness weights underflow to 0,
    leaving the scaled matrix almost all zero, fails.
    """
    if front is None:
        cycle, d = (), _acyclic_scaling(a)
    else:
        cycle, d = front.cycle, scaling(a, front)
    sv = ScalingVector(d)
    view = _phi(a, sv.d)
    value = _cycle_geometric_mean(a, cycle)
    attained = value * (1.0 - 1e-9) <= float(view.matrix.max()) <= value * (1.0 + 1e-9)
    return NubarResult(
        value,
        sv,
        tuple(i + 1 for i in cycle),
        attained and _certified(view, 1e-9),
        attained and bool(_residuals(view).max() <= 1e-8),
    )


def _max_balance_strong(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact max-balancing of a strongly connected log-weighted digraph.

    ``w[u, v]`` is the arc weight, -inf where there is no arc and on the
    diagonal. Repeatedly pins the maximizing cycles: compute the maximum
    cycle mean, fix relative scalings along the tight strongly connected
    classes, contract each class to a single node and recurse on the
    contracted graph (the next level's mean is strictly smaller). Returns
    per-node log scalings and the level value at which each node was
    absorbed.

    ``w`` must be strongly connected. Contracting classes keeps it so, and
    no level has a self-loop, so a level of more than one node has arcs,
    a tight cycle and a class of more than one node; the levels run until
    one node is left. The contracted weight of an arc between two classes
    is the largest of its arcs shifted by the class offsets.
    """
    n = w.shape[0]
    owner = list(range(n))  # contracted node that holds each input node
    pi = [0.0] * n
    level = [NEG] * n
    W = w
    while (m := W.shape[0]) > 1:
        lam, p = _karp(W)
        us, vs = np.nonzero(_tight_arcs(W, lam, p, 1e-9))
        tadj: list[list[int]] = [[] for _ in range(m)]
        for u, v in zip(us.tolist(), vs.tolist()):
            tadj[u].append(v)  # row-major, so each list is sorted
        classes = [comp for comp in strongly_connected_components(m, tadj) if len(comp) > 1]
        delta = _class_offsets(W, lam, tadj, classes)
        new_id = [-1] * m
        for ci, comp in enumerate(classes):
            for u in comp:
                new_id[u] = ci
        k = m_next = len(classes)
        for u in range(m):
            if new_id[u] < 0:
                new_id[u] = m_next
                m_next += 1
        for i, o in enumerate(owner):
            if level[i] == NEG and new_id[o] < k:
                level[i] = lam
            pi[i] += delta[o]
            owner[i] = new_id[o]
        if m_next == 1:
            break  # the last level leaves one node and nothing to contract
        ids = np.array(new_id)
        d = np.array(delta)
        W_next = np.full((m_next, m_next), NEG)
        np.maximum.at(W_next, (ids[:, None], ids), W + d[:, None] - d)
        np.fill_diagonal(W_next, NEG)  # pinned inside a class: critical arcs and chords
        W = W_next
    return np.array(pi), np.array(level)


def _class_offsets(
    W: np.ndarray, lam: float, tadj: list[list[int]], classes: list[list[int]]
) -> list[float]:
    """Each class node's tight-walk offset from its class's first node, zero
    off the classes: a breadth-first search over the sorted tight adjacency
    lists ``tadj``, taking ``W[u, v] - lam`` along each tree arc."""
    delta = [0.0] * len(tadj)
    for comp in classes:
        cs = set(comp)
        root = comp[0]
        seen = {root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in tadj[u]:
                if v in cs and v not in seen:
                    delta[v] = delta[u] + W.item(u, v) - lam
                    seen.add(v)
                    queue.append(v)
    return delta


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


def _balanced_scaling(a: np.ndarray, front: _Front) -> np.ndarray:
    """Scaling weights of ``balanced_solution`` on cyclic support with front
    half ``front``. Self-loops neither join nor split components, so the
    off-diagonal graph's condensation is ``front.comps`` reversed."""
    n = a.shape[0]
    w_off = front.w.copy()
    np.fill_diagonal(w_off, NEG)
    comps = front.comps[::-1]
    comp_of = np.empty(n, np.intp)
    for ci, comp in enumerate(comps):
        comp_of[comp] = ci
    nblocks = len(comps)
    nontrivial = [len(c) > 1 for c in comps]

    pi = np.zeros(n)  # stays zero on trivial blocks
    level = np.full(n, NEG)
    for bi, comp in enumerate(comps):
        if nontrivial[bi]:
            pi[comp], level[comp] = _max_balance_strong(w_off[np.ix_(comp, comp)])

    # cross arcs over the condensation, in row-major order
    us, vs = np.nonzero(w_off > NEG)
    keep = comp_of[us] != comp_of[vs]
    us, vs = us[keep], vs[keep]
    cross = list(zip(comp_of[us].tolist(), comp_of[vs].tolist(), us.tolist(), vs.tolist()))
    live = list(nontrivial)
    for bs, bt, _, _ in sorted(cross):  # topological: arcs only go forward
        if live[bs]:
            live[bt] = True

    margin = math.log(0.9)
    tau = front.lam + math.log(1e-10)  # suppression target for unmatchable sides
    in_arcs: list[list[tuple[int, float, float]]] = [[] for _ in range(nblocks)]
    out_arcs: list[list[tuple[int, float, float]]] = [[] for _ in range(nblocks)]
    for bs, bt, u, v in cross:
        if not (live[bs] and live[bt]):
            continue  # arcs from zero-scaled nodes contribute nothing
        c = w_off[u, v] + pi[u] - pi[v]
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
                # a live chain node became live along a live cross arc
                p_in = max(c + x[bs] for bs, c, _ in in_arcs[bi])
                q_out = max((c - x[bt] for bt, c, _ in out_arcs[bi]), default=None)
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
                d_log[u] = pi[u] + x[bi]
            elif not (w_off[u] > NEG).any():
                d_log[u] = 0.0  # sinks and isolated nodes: any positive weight
    top = d_log[np.isfinite(d_log)].max()
    # NEG entries give exp(-inf) = 0 exactly, with no overflow warning
    return np.exp(d_log - top)
