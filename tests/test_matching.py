import itertools
import math
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import graphs, linalg, matching, mixing
from expanderlab.errors import (CertificateMismatch, NoEdgeFound,
                                PerfectMatchingFailed, PreconditionViolated,
                                UnbalancedSides)
from expanderlab.rng import generator


def _brute_max_matching(edges, left):
    """Largest matching by exhaustive search over edge subsets."""
    best = 0
    edges = list(edges)
    for r in range(len(left), 0, -1):
        for combo in itertools.combinations(edges, r):
            us = {u for u, _ in combo}
            vs = {v for _, v in combo}
            if len(us) == r and len(vs) == r:
                return r
    return best


def _view_from_edges(n, edges, left, right):
    g = graphs.Graph(n, edges)
    return graphs.BipartiteView(parent=g, left=left, right=right)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_max_matching_matches_brute_force(data):
    nl = data.draw(st.integers(1, 5))
    nr = data.draw(st.integers(1, 5))
    left = list(range(nl))
    right = list(range(nl, nl + nr))
    possible = [(u, v) for u in left for v in right]
    edges = data.draw(st.sets(st.sampled_from(possible),
                              max_size=len(possible)))
    view = _view_from_edges(nl + nr, sorted(edges), left, right)
    m = matching.max_matching(view)
    assert matching.verify_matching(m, view.parent, left, right)
    assert m.size == _brute_max_matching(edges, left)


def test_verify_matching_rejects_frauds(paley13):
    good = matching.Matching.from_edges([(0, 1)])
    assert matching.verify_matching(good, paley13, [0], [1])
    non_edge = matching.Matching.from_edges([(0, 6)])   # 6 is a non-residue
    assert not matching.verify_matching(non_edge, paley13, [0], [6])
    repeated = matching.Matching.from_edges([(0, 1), (0, 3)])
    assert not matching.verify_matching(repeated, paley13, [0], [1, 3])
    outside = matching.Matching.from_edges([(0, 1)])
    assert not matching.verify_matching(outside, paley13, [2], [1])
    assert not matching.verify_matching(outside, paley13, [0], [3])


def test_hall_violator_is_genuine():
    # left vertices {0,1,2} all point at the single right vertex {3}
    view = _view_from_edges(5, [(0, 3), (1, 3), (2, 3)],
                            left=[0, 1, 2], right=[3, 4])
    violator = matching.hall_violator(view)
    assert violator is not None
    nbrs = set()
    for u in violator:
        nbrs.update(v for v in view.parent.neighbors(u).tolist() if v in view.right)
    assert len(nbrs) < len(violator)


def test_hall_violator_none_when_perfect():
    view = _view_from_edges(4, [(0, 2), (1, 3)], left=[0, 1], right=[2, 3])
    assert matching.hall_violator(view) is None


def _networkx_koenig_set(g, own, other):
    """Vertices of `own` that alternating paths reach from the ones that
    networkx's Hopcroft-Karp leaves unmatched in the cross edges of
    (own, other); None if it matches all of `own`."""
    cross = nx.Graph()
    cross.add_nodes_from(own + other)
    cross.add_edges_from((u, v) for u in own for v in other if g.has_edge(u, v))
    mate = nx.bipartite.hopcroft_karp_matching(cross, top_nodes=own)
    reached = {u for u in own if u not in mate}
    if not reached:
        return None
    queue = list(reached)
    while queue:
        for v in cross[queue.pop()]:
            if mate[v] not in reached:      # v is matched: mate is maximum
                reached.add(mate[v])
                queue.append(mate[v])
    return frozenset(reached)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_hall_violator_is_the_koenig_set_of_any_maximum_matching(n, p, seed, data):
    rng = np.random.default_rng(seed)
    g = graphs.Graph(n, np.argwhere(np.triu(rng.random((n, n)) < p, k=1)))
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n - a))
    perm = rng.permutation(n).tolist()
    left, right = sorted(perm[:a]), sorted(perm[a:a + b])   # either may be empty
    view = graphs.BipartiteView(parent=g, left=left, right=right)
    swapped = graphs.BipartiteView(parent=g, left=right, right=left)   # R's violator
    for pair, own, other in ((view, left, right), (swapped, right, left)):
        assert matching.hall_violator(pair) == _networkx_koenig_set(g, own, other)
    if a == b:
        want = _networkx_koenig_set(g, left, right)
        try:    # caps that admit every pair of a graph with edges
            m = matching.perfect_matching_expander(view, 0.0, gamma_cap=math.inf,
                                                   ratio_cap=0.0)
        except PreconditionViolated as exc:
            assert not g.edge_count and exc.hypothesis == "mean_degree"
        except PerfectMatchingFailed as exc:
            assert want is not None and exc.violator == want
        else:
            assert want is None and m.size == a


def test_perfect_matching_expander_on_paley(paley1009, cert1009):
    rng = generator(0, "pm-test")
    perm = rng.permutation(1009)
    left, right = perm[:150], perm[150:300]
    view = graphs.BipartiteView(parent=paley1009, left=left, right=right)
    union, _ = paley1009.induced(list(left) + list(right))
    lam = linalg.singular_values_array(union.adjacency_sparse(), 2,
                                       seed=0, symmetric=True).values[1]
    m = matching.perfect_matching_expander(view, lam, gamma_cap=1.2, ratio_cap=0.2)
    assert m.size == 150
    assert matching.verify_matching(m, paley1009, left, right)


def test_perfect_matching_preconditions(paley13):
    caps = {"gamma_cap": 1.2, "ratio_cap": 0.2}     # the pipeline's defaults
    view = graphs.BipartiteView(parent=paley13, left=(0, 1), right=(2, 3, 4))
    with pytest.raises(UnbalancedSides):
        matching.perfect_matching_expander(view, view.s2(seed=0), **caps)
    # In a 10-cycle the cross degrees of the edge {0, 1} are 1, against a
    # target of d / n = 0.2, so gamma is 4.0; its s2, 1.0, is above
    # 0.2 * d = 0.4 as well, but gamma is checked first
    edge = graphs.BipartiteView(parent=graphs.gen_named("cycle", 10), left=(0,), right=(1,))
    with pytest.raises(PreconditionViolated, match=r"gamma=4\.0 > 1\.2") as exc:
        matching.perfect_matching_expander(edge, edge.s2(seed=0), **caps)
    assert exc.value.hypothesis == "gamma_cap"
    # s2 of G[{0, ..., 5}] in Paley 13 is 2.247, above 0.2 * d = 1.2, and
    # its gamma, 1.167, is under the cap
    six = graphs.BipartiteView(parent=paley13, left=(0, 1, 2), right=(3, 4, 5))
    assert six.observed_gamma() <= caps["gamma_cap"]
    with pytest.raises(PreconditionViolated, match=r"lambda=2\.24") as exc:
        matching.perfect_matching_expander(six, six.s2(seed=0), **caps)
    assert exc.value.hypothesis == "lambda_cap"
    edgeless = graphs.BipartiteView(parent=graphs.Graph(4, []), left=(0,), right=(1,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolated) as exc:
            matching.perfect_matching_expander(edgeless, 0.0, **caps)
    assert exc.value.hypothesis == "mean_degree"


def test_perfect_matching_failure_carries_violator():
    # The star 3 - {0, 1, 2} has gamma 5.0 and s2 sqrt(3) with d = 1; the
    # caps admit both, and {0, 1, 2} has the one neighbour 3
    view = _view_from_edges(6, [(0, 3), (1, 3), (2, 3)],
                            left=[0, 1, 2], right=[3, 4, 5])
    with pytest.raises(PerfectMatchingFailed) as exc:
        matching.perfect_matching_expander(view, view.s2(seed=0), gamma_cap=5.0,
                                           ratio_cap=2.0)
    assert exc.value.violator == {0, 1, 2}


def test_greedy_matching_complete_graph(k4):
    cert = graphs.certify_expander(k4, seed=0)
    m = matching.greedy_matching_avoiding(k4, cert, [0, 1], [2, 3])
    assert m.size == 2


def test_greedy_matching_floor_paley(paley101, cert101):
    theta = mixing.one_edge_threshold(cert101)
    rng = generator(1, "greedy-test")
    for trial in range(20):
        perm = rng.permutation(101)
        v1, v2 = perm[:40], perm[40:80]
        s1, s2 = v1[:5], v2[:5]
        m = matching.greedy_matching_avoiding(paley101, cert101, v1, v2,
                                              s1, s2)
        floor = min(35, 35) - theta
        assert m.size >= floor
        assert not (set(m.edges[:, 0].tolist()) & set(int(x) for x in s1))
        assert not (set(m.edges[:, 1].tolist()) & set(int(x) for x in s2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(12, 50), st.integers(12, 50),
       st.data())
def test_greedy_matching_takes_the_smallest_edge_each_step(paley101, cert101,
                                                           seed, a, b, data):
    perm = np.random.default_rng(seed).permutation(101)
    v1, v2 = perm[:a], perm[a:a + b]
    s1 = v1[:data.draw(st.integers(0, a - 12))]
    s2 = v2[:data.draw(st.integers(0, b - 12))]
    m = matching.greedy_matching_avoiding(paley101, cert101, v1, v2, s1, s2)
    adj = paley101.adjacency_dense() > 0
    left, right = sorted(set(v1) - set(s1)), sorted(set(v2) - set(s2))
    want = []
    while (hits := np.argwhere(adj[np.ix_(left, right)])).size:
        i, j = hits[0]                  # row-major: the smallest edge
        want.append([int(left.pop(i)), int(right.pop(j))])
    assert m.edges.tolist() == want


def test_greedy_matching_preconditions(paley13, paley101, cert101):
    with pytest.raises(PreconditionViolated) as exc:
        matching.greedy_matching_avoiding(paley101, cert101,
                                          [0, 1, 2], [2, 3, 4])
    assert exc.value.hypothesis == "disjoint_sides"
    with pytest.raises(PreconditionViolated) as exc:
        matching.greedy_matching_avoiding(paley101, cert101,
                                          [0, 1], [2, 3], s1=[5])
    assert exc.value.hypothesis == "avoid_subset"
    # theta is about 11.2 on Paley 101: 12 - 11.2 leaves no room for |S_1| = 1
    assert 11 < mixing.one_edge_threshold(cert101) < 12
    with pytest.raises(PreconditionViolated) as exc:
        matching.greedy_matching_avoiding(paley101, cert101, range(12),
                                          range(20, 40), s1=[0])
    assert exc.value.hypothesis == "avoid_size"
    with pytest.raises(CertificateMismatch):
        matching.greedy_matching_avoiding(paley13, cert101, [0, 1], [2, 3])


def test_greedy_matching_with_a_false_certificate_raises_no_edge_found():
    # lambda-hat = 0.01 claims theta = 0.75 on C_150, but no edge joins
    # 0..9 and 50..59, so both residual sides stay at 10
    c150 = graphs.gen_named("cycle", 150)
    cert = graphs.SpectralCertificate(n=150, d=2.0, gamma_hat=0.0,
                                      lambda_hat=0.01, residual=0.0, seed=0)
    assert mixing.one_edge_threshold(cert) == 0.75
    with pytest.raises(NoEdgeFound, match="sizes 10, 10 > theta=0.75"):
        matching.greedy_matching_avoiding(c150, cert, range(10), range(50, 60))


def test_matching_json_roundtrip():
    m = matching.Matching.from_edges([(3, 9), (1, 7)])
    assert m.edges.tolist() == [[1, 7], [3, 9]]
    assert m.edges.dtype == np.int64 and not m.edges.flags.writeable
    import json
    assert json.loads(m.to_json()) == [[1, 7], [3, 9]]
