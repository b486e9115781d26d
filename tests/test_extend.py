import copy

import numpy as np
import pytest

from expanderlab import extend, graphs
from expanderlab.errors import (BadParameter, ConnectFailed,
                                PreconditionViolated, ReserveTooSmall,
                                UnbalancedSides)


def test_build_connector_validation(paley101):
    with pytest.raises(UnbalancedSides):
        extend.build_connector(paley101, [0, 1], [2], range(50, 80), 8)
    with pytest.raises(PreconditionViolated) as exc:
        extend.build_connector(paley101, [0, 1], [1, 2], range(50, 80), 8)
    assert exc.value.hypothesis == "disjoint_regions"
    with pytest.raises(ReserveTooSmall):
        extend.build_connector(paley101, [0, 1, 2], [3, 4, 5], [50, 51], 8)
    with pytest.raises(BadParameter):
        extend.build_connector(paley101, [0], [3], range(50, 80), 0)


def test_connector_routes_disjoint_paths(paley101):
    x, y = [0, 1, 2], [3, 4, 5]
    reserve = list(range(50, 70))      # 20 of the 3 * 7 interior slots
    conn = extend.build_connector(paley101, x, y, reserve, l_max=8, seed=2)
    pairs = list(zip(x, y))
    paths = conn.connect_pairs(pairs)
    assert len(paths) == 3
    assert extend.verify_path_system(paley101, paths, pairs=pairs,
                                     reserve=reserve, l_max=8)


def test_connector_consume_all_partitions_reserve(paley101):
    x, y = [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]
    reserve = list(range(40, 60))
    conn = extend.build_connector(paley101, x, y, reserve, l_max=12, seed=0)
    pairs = list(zip(x, y))
    paths = conn.connect_pairs(pairs)
    assert extend.verify_path_system(paley101, paths, pairs=pairs,
                                     reserve=reserve, l_max=12)
    assert [(p[0], p[-1]) for p in paths] == pairs
    assert sorted(v for p in paths for v in p[1:-1]) == reserve


def test_connector_rejects_bad_pairing(paley101):
    conn = extend.build_connector(paley101, [0, 1], [2, 3],
                                  range(50, 70), l_max=8)
    with pytest.raises(PreconditionViolated) as exc:
        conn.connect_pairs([(0, 2), (0, 3)])
    assert exc.value.hypothesis == "distinct_endpoints"
    with pytest.raises(PreconditionViolated) as exc:
        conn.connect_pairs([(0, 2), (1, 99)])
    assert exc.value.hypothesis == "ports_only"


def test_connector_consume_all_impossible_budget(paley101):
    # 40 reserve vertices over 1 path cannot fit a length budget of 8
    conn = extend.build_connector(paley101, [0], [1], range(40, 80), l_max=8)
    with pytest.raises(ConnectFailed):
        conn.connect_pairs([(0, 1)])


def test_verify_path_system_rejects_tampering(paley101):
    x, y = [0, 1], [2, 3]
    reserve = list(range(50, 60))      # 10 of the 2 * 7 interior slots
    conn = extend.build_connector(paley101, x, y, reserve, l_max=8, seed=1)
    pairs = list(zip(x, y))
    paths = conn.connect_pairs(pairs)
    assert extend.verify_path_system(paley101, paths, pairs=pairs)
    # swapped pairing no longer matches
    assert not extend.verify_path_system(paley101, paths,
                                         pairs=[(0, 3), (1, 2)])
    # a path through a non-edge fails
    assert not paley101.has_edge(0, 2)
    assert not extend.verify_path_system(paley101, ((0, 2),))
    # a path repeating a vertex fails
    assert not extend.verify_path_system(paley101, ((0, 1, 0),))
    # two paths sharing a vertex fail, though each is a path of edges
    assert extend.verify_path_system(paley101, ((0, 1),))
    assert extend.verify_path_system(paley101, ((1, 2),))
    assert not extend.verify_path_system(paley101, ((0, 1), (1, 2)))
    # a path longer than the budget fails
    longest = max(len(p) - 1 for p in paths)
    assert extend.verify_path_system(paley101, paths, l_max=longest)
    assert not extend.verify_path_system(paley101, paths, l_max=longest - 1)
    # interiors escaping the reserve fail
    assert not extend.verify_path_system(paley101, paths, reserve=[99])


def test_verify_path_system_checks_ordered_ends(paley101):
    # Path i must run from pairs[i][0] to pairs[i][1], as close_cycle reads it
    x, y = [0, 1], [2, 3]
    conn = extend.build_connector(paley101, x, y, range(50, 60), l_max=8, seed=1)
    pairs = list(zip(x, y))
    paths = conn.connect_pairs(pairs)
    assert extend.verify_path_system(paley101, paths, pairs=pairs)
    reversed_paths = tuple(p[::-1] for p in paths)
    assert not extend.verify_path_system(paley101, reversed_paths, pairs=pairs)
    assert not extend.verify_path_system(paley101, paths[::-1], pairs=pairs)
    assert not extend.verify_path_system(paley101, paths[:1], pairs=pairs)


def test_connector_tears_down_and_reroutes(paley101, monkeypatch):
    # The last pair, (70, 63), finds no route at first; the path of
    # (60, 7) is torn down and re-routed, and then (70, 63) is routed
    routes = []
    route = extend.Connector._route_shortest

    def recorded(self, *args):
        routes.append(route(self, *args))
        return routes[-1]
    monkeypatch.setattr(extend.Connector, "_route_shortest", recorded)
    x, y = [38, 56, 60, 70, 75, 78, 94], [7, 43, 63, 82, 87, 88, 90]
    reserve = [3, 18, 20, 23, 39, 48, 55, 79, 97]
    pairs = [(38, 82), (78, 88), (75, 87), (56, 43), (94, 90), (60, 7), (70, 63)]
    conn = extend.build_connector(paley101, x, y, reserve, l_max=3, seed=10,
                                  min_reserve_ratio=1.0)
    paths = conn.connect_pairs(pairs)
    assert routes.count(None) == 1 and len(routes) == len(pairs) + 2
    assert extend.verify_path_system(paley101, paths, pairs=pairs,
                                     reserve=reserve, l_max=3)
    assert sorted(v for p in paths for v in p[1:-1]) == reserve


def test_connector_gives_up_at_the_teardown_cap(paley101):
    conn = extend.build_connector(paley101, [21, 71], [4, 78], [29, 86],
                                  l_max=2, min_reserve_ratio=1.0)
    with pytest.raises(ConnectFailed,
                       match=f"after {extend.TEARDOWN_CAP} teardowns"):
        conn.connect_pairs([(21, 4), (71, 78)])


def test_connector_fails_without_a_splice_point(paley101):
    conn = extend.build_connector(paley101, [45, 89], [19, 75],
                                  [22, 33, 34, 60, 70, 93], l_max=4)
    with pytest.raises(ConnectFailed, match=r"no splice point .* \[22, 60, 93\]"):
        conn.connect_pairs([(45, 19), (89, 75)])


def test_connector_fails_on_an_isolated_reserve_vertex(paley101):
    # Paley 101 with a vertex 101 that has no neighbour, so no slot takes it
    g = graphs.Graph(102, np.argwhere(np.triu(paley101.adjacency_dense(), k=1)))
    conn = extend.build_connector(g, [0, 1], [2, 3], [*range(50, 60), 101], l_max=8)
    with pytest.raises(ConnectFailed, match=r"no splice point .* \[101\]"):
        conn.connect_pairs([(0, 2), (1, 3)])


class _OneVertexAtATime(extend.Connector):
    """The connector as it spliced and routed before: a neighbour mask set
    and cleared for each leftover vertex, the paths sorted by length for
    each, and a BFS that copies a path for every vertex it reaches."""

    def _absorb(self, routed, free):
        rng = extend.generator(self.seed, "connector-absorb")
        near = np.zeros(self.g.n, dtype=bool)
        while free.any():
            left = np.flatnonzero(free).tolist()
            rng.shuffle(left)
            for w in left:
                nbrs = self.g.neighbors(w)
                near[nbrs] = True
                for path in sorted(routed, key=len):
                    if len(path) > self.budget:
                        break
                    hits = near[path]
                    slots = np.flatnonzero(hits[:-1] & hits[1:])
                    if slots.size:
                        path.insert(int(slots[0]) + 1, w)
                        free[w] = False
                        break
                near[nbrs] = False
            if free[left].all():
                raise ConnectFailed(None, len(left),
                                    "no splice point for leftover reserve "
                                    f"vertices {sorted(left)[:10]}")

    def _route_shortest(self, u, v, free, rng):
        open_ = free.copy()
        open_[v] = True
        frontier = [[u]]
        while frontier and len(frontier[0]) <= self.budget:
            nxt = []
            for path in frontier:
                nbrs = self.g.neighbors(path[-1])
                nbrs = nbrs[open_[nbrs]].tolist()
                open_[nbrs] = False
                rng.shuffle(nbrs)
                for x in nbrs:
                    if x == v:
                        return path + [x]
                    nxt.append(path + [x])
            frontier = nxt
        return None


def _gnp(n, p, seed):
    rng = np.random.default_rng(seed)
    return graphs.Graph(n, np.argwhere(np.triu(rng.random((n, n)) < p, k=1)))


def _outcome(call):
    try:
        return call()
    except ConnectFailed as exc:
        return str(exc)


def _connector_cases():
    """(graph, X, Y, reserve, l_max, seed, pairs): seeded draws on graphs
    on both sides of the set-read rule (G(300, 0.5) unpacks bit rows,
    G(400, 0.1) and G(120, 0.3) do not) and on Paley 401, and a reserve
    with no splice point on Paley 101."""
    for g in (_gnp(300, 0.5, 1), _gnp(400, 0.1, 2), _gnp(120, 0.3, 3), graphs.gen_paley(401)):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(3, 12))
            perm = rng.permutation(g.n)
            x, y = perm[:k], perm[k:2 * k]
            reserve = perm[2 * k:2 * k + int(rng.integers(2 * k, 6 * k))]
            pairs = list(zip(x.tolist(), rng.permutation(y).tolist()))
            yield g, x, y, reserve, int(rng.integers(6, 14)), seed, pairs
    yield (graphs.gen_paley(101), [45, 89], [19, 75], [22, 33, 34, 60, 70, 93], 4, 0,
           [(45, 19), (89, 75)])


def test_splicing_and_routing_match_the_vertex_by_vertex_loops():
    splice_failures = 0
    for g, x, y, reserve, l_max, seed, pairs in _connector_cases():
        states = []     # (routed, free) as each connect_pairs call reached its splice

        class Recorded(extend.Connector):
            def _absorb(self, routed, free):
                states.append(copy.deepcopy((routed, free)))
                return super()._absorb(routed, free)

        args = (g, np.concatenate([x, y]), graphs.vertex_array(reserve, g.n), l_max, seed)
        now, before = (_outcome(lambda c=cls(*args): c.connect_pairs(pairs))
                       for cls in (Recorded, _OneVertexAtATime))
        assert now == before
        for state in states:    # the same paths and free mask after every splice
            after = [copy.deepcopy(state) for _ in range(2)]
            outcomes = [_outcome(lambda c=cls(*args), s=s: c._absorb(*s)) for cls, s in
                        zip((extend.Connector, _OneVertexAtATime), after)]
            assert outcomes[0] == outcomes[1]
            assert after[0][0] == after[1][0]
            assert np.array_equal(after[0][1], after[1][1])
            splice_failures += isinstance(outcomes[0], str)
    assert splice_failures and "no splice point" in now
