"""Directed-graph utilities shared by the analysis modules.

The graph of a matrix is its support graph: an arc i -> j wherever entry
(i, j) is positive. Tarjan's search takes adjacency lists over nodes
0..n-1; ``cyclic_components`` takes the matrix and is the one place that
decides which components carry a cycle. A caller that already holds the
matrix's ``support_adjacency`` passes it as ``adj`` so the lists are built
once.
Everything here is deterministic: neighbor lists are processed in sorted
order and strongly connected components come out in a fixed order.
"""

from __future__ import annotations

import numpy as np


def support_adjacency(a: np.ndarray) -> list[list[int]]:
    """Adjacency lists of the support graph: an arc i -> j wherever a[i, j] > 0.

    One nonzero pass over the whole matrix, split at the row ends: cheaper
    than a pass per row, and the lists hold Python ints, which Tarjan's
    search indexes faster than NumPy scalars.
    """
    pos = a > 0
    cols = np.nonzero(pos)[1].tolist()
    ends = np.cumsum(pos.sum(axis=1)).tolist()
    return [cols[s:e] for s, e in zip([0, *ends], ends)]


def strongly_connected_components(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative.

    Returns components as sorted node lists, in reverse topological order of
    the condensation (components with no outgoing cross arcs first).
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = adj[v]
            while ei < len(neighbors):
                w = neighbors[ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def cyclic_components(a: np.ndarray, adj: list[list[int]] | None = None) -> list[list[int]]:
    """Strongly connected components of the support graph that carry a cycle:
    more than one node, or a self-loop. In the order of
    ``strongly_connected_components``. ``adj``, when given, must be
    ``support_adjacency(a)``."""
    if adj is None:
        adj = support_adjacency(a)
    return [
        comp
        for comp in strongly_connected_components(a.shape[0], adj)
        if len(comp) > 1 or a[comp[0], comp[0]] > 0
    ]
