import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import extend, graphs
from expanderlab.errors import (BadParameter, ConnectFailed, DegreeCap,
                                PreconditionViolated, ReserveTooSmall,
                                TooLarge, UnbalancedSides)
from expanderlab.rng import generator


def _violates(g, s, d_par, u_set):
    """Recompute the extendability inequality for a candidate witness."""
    vs = set(s.vertices)
    closed = set(u_set)
    for u in u_set:
        closed.update(g.neighbors(u).tolist())
    lhs = len(closed - vs)
    rhs = (d_par - 1) * len(u_set) - sum(s.degree(u) - 1
                                         for u in u_set if u in vs)
    return lhs < rhs


def test_subgraph_basics():
    s = extend.Subgraph(vertices=frozenset({0, 1, 2}),
                        edges=frozenset({(0, 1), (1, 2)}))
    assert s.degree(1) == 2 and s.degree(0) == 1 and s.degree(5) == 0
    assert s.max_degree() == 2
    e = extend.Subgraph.edgeless([4, 5])
    assert e.max_degree() == 0 and set(e.vertices) == {4, 5}


def test_edgeless_subgraph_negative_degree_sum():
    # isolated S-vertices contribute d_S(u) - 1 = -1 each, which RAISES
    # the requirement rather than being clamped at zero: in K6 with
    # S = edgeless {0, 1} and U = {0, 1}, the closed neighborhood
    # outside S has 4 vertices but the literal right side is
    # 2*2 - (-2) = 6, so the check reports a violation
    k6 = graphs.gen_named("complete", 6)
    s = extend.Subgraph.edgeless([0, 1])
    verdict = extend.is_extendable_exact(k6, s, d_par=3, m=1)
    assert not verdict.holds
    assert _violates(k6, s, 3, verdict.witness)
    # with only one isolated S-vertex the slack is back and K6 passes
    verdict = extend.is_extendable_exact(k6, extend.Subgraph.edgeless([0]),
                                         d_par=3, m=1)
    assert verdict.holds and verdict.method == "exact"


def test_exact_finds_violation_on_path():
    p3 = graphs.Graph(3, [(0, 1), (1, 2)])
    s = extend.Subgraph.edgeless([0, 1, 2])
    verdict = extend.is_extendable_exact(p3, s, d_par=3, m=1)
    assert not verdict.holds
    assert _violates(p3, s, 3, verdict.witness)


def test_exact_parameter_guards(k4, paley101):
    star = extend.Subgraph(vertices=frozenset(range(5)),
                           edges=frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}))
    host = graphs.gen_named("complete", 8)
    with pytest.raises(DegreeCap):
        extend.is_extendable_exact(host, star, d_par=3, m=1)
    with pytest.raises(BadParameter):
        extend.is_extendable_exact(k4, extend.Subgraph.edgeless([0]),
                                   d_par=2, m=1)
    with pytest.raises(BadParameter):
        extend.is_extendable_exact(k4, extend.Subgraph.edgeless([9]),
                                   d_par=3, m=1)
    with pytest.raises(TooLarge):
        extend.is_extendable_exact(paley101,
                                   extend.Subgraph.edgeless([0]),
                                   d_par=3, m=1)
    with pytest.raises(TooLarge):
        extend.is_extendable_exact(k4, extend.Subgraph.edgeless([0]),
                                   d_par=3, m=4)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sufficient_agrees_with_exact(data):
    n = data.draw(st.integers(4, 8))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(possible), min_size=n,
                              max_size=len(possible)))
    g = graphs.Graph(n, sorted(edges))
    sv = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
    s = extend.Subgraph.edgeless(sv)
    m = data.draw(st.integers(1, 3))
    exact = extend.is_extendable_exact(g, s, d_par=3, m=m)
    suff = extend.extendable_sufficient(g, s, d_par=3, m=m, budget=500)
    if not suff.holds:
        # any witness returned by the sufficient-path check must be a
        # genuine violation of the defining inequality
        assert not exact.holds
        assert _violates(g, s, 3, suff.witness)
    if suff.holds and suff.method == "sufficient":
        assert exact.holds


def test_sufficient_method_degrades():
    # C6 with an edgeless S: singletons have only 2 outside neighbors,
    # failing the sufficient condition without violating the definition
    c6 = graphs.gen_named("cycle", 6)
    s = extend.Subgraph.edgeless([])
    verdict = extend.extendable_sufficient(c6, s, d_par=3, m=1)
    assert verdict.holds and verdict.method == "sampled"


def test_path_system_json_and_interiors():
    ps = extend.PathSystem(paths=((0, 5, 6, 1), (2, 7, 3)))
    assert ps.interior_vertices() == {5, 6, 7}
    assert json.loads(ps.to_json()) == [[0, 5, 6, 1], [2, 7, 3]]


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
    reserve = list(range(50, 90))
    conn = extend.build_connector(paley101, x, y, reserve, l_max=8, seed=2)
    pairs = list(zip(x, y))
    system = conn.connect_pairs(pairs)
    assert len(system.paths) == 3
    assert extend.verify_path_system(paley101, system, pairs=pairs,
                                     reserve=reserve, l_max=8)


def test_connector_consume_all_partitions_reserve(paley101):
    x, y = [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]
    reserve = list(range(40, 60))
    conn = extend.build_connector(paley101, x, y, reserve, l_max=12,
                                  seed=0, consume_all=True)
    pairs = list(zip(x, y))
    system = conn.connect_pairs(pairs)
    assert extend.verify_path_system(paley101, system, pairs=pairs,
                                     reserve=reserve, l_max=12)
    assert system.interior_vertices() == set(reserve)


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
    conn = extend.build_connector(paley101, [0], [1], range(40, 80),
                                  l_max=8, consume_all=True)
    with pytest.raises(ConnectFailed):
        conn.connect_pairs([(0, 1)])


def test_verify_path_system_rejects_tampering(paley101):
    x, y = [0, 1], [2, 3]
    reserve = list(range(50, 70))
    conn = extend.build_connector(paley101, x, y, reserve, l_max=8, seed=1)
    pairs = list(zip(x, y))
    system = conn.connect_pairs(pairs)
    assert extend.verify_path_system(paley101, system, pairs=pairs)
    # swapped pairing no longer matches
    assert not extend.verify_path_system(paley101, system,
                                         pairs=[(0, 3), (1, 2)])
    # a path through a non-edge fails
    broken = extend.PathSystem(paths=((0, 6, 2),)) \
        if not paley101.has_edge(0, 6) else extend.PathSystem(paths=((0, 0, 2),))
    assert not extend.verify_path_system(paley101, broken)
    # interiors escaping the reserve fail
    assert not extend.verify_path_system(paley101, system, reserve=[99])
