import numpy as np

from nu_analyzer._graph import (
    cyclic_components,
    strongly_connected_components,
    support_adjacency,
)


class TestCyclicComponents:
    def test_dag_has_none(self):
        assert cyclic_components(np.triu(np.ones((4, 4)), 1)) == []

    def test_isolated_self_loop(self):
        assert cyclic_components(np.diag([0.0, 0.5, 0.0])) == [[1]]

    def test_two_cycle_with_tail_node(self):
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 1.0
        m[2, 0] = 0.5  # node 2 feeds the cycle but lies on none
        assert cyclic_components(m) == [[0, 1]]

    def test_components_in_tarjan_order(self):
        # 0 <-> 1 -> 2 <-> 3, plus a self-loop on 4: the sink component
        # {2, 3} comes out first, as strongly_connected_components gives it
        m = np.zeros((5, 5))
        m[0, 1] = m[1, 0] = 1.0
        m[2, 3] = m[3, 2] = 1.0
        m[1, 2] = 0.3
        m[4, 4] = 0.2
        comps = cyclic_components(m)
        assert comps == [[2, 3], [0, 1], [4]]
        assert comps == strongly_connected_components(5, support_adjacency(m))


class TestSupportAdjacency:
    def test_matches_per_row_nonzero(self):
        # reference: one nonzero pass per row
        rng = np.random.default_rng(24)
        cases = [np.zeros((3, 3)), np.eye(1), rng.random((6, 6)) > 0.5]
        for n in range(1, 30):
            m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 1.0))
            m[rng.integers(n)] = 0.0  # an empty row
            cases.append(m)
        for a in cases:
            expected = [list(np.nonzero(a[i] > 0)[0]) for i in range(a.shape[0])]
            assert support_adjacency(a) == expected
            assert cyclic_components(a, support_adjacency(a)) == cyclic_components(a)
