import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import graphs, linalg
from expanderlab.errors import (BadResidueClass, NotPrime, ParityViolation,
                                UnknownName)


def test_paley_13_shape(paley13):
    assert paley13.n == 13
    assert paley13.edge_count == 39
    assert all(paley13.degree(v) == 6 for v in range(13))


def test_paley_second_singular_value_closed_form(paley13):
    spec = linalg.singular_values_array(paley13.adjacency_sparse(), 2, seed=0)
    assert abs(spec.values[1] - (1 + math.sqrt(13)) / 2) < 1e-8


def test_paley_rejects_bad_modulus():
    with pytest.raises(BadResidueClass):
        graphs.gen_paley(7)          # 7 ≡ 3 (mod 4)
    with pytest.raises(NotPrime):
        graphs.gen_paley(25)


def test_random_regular_is_regular():
    g = graphs.gen_random_regular(30, 4, seed=3)
    assert all(g.degree(v) == 4 for v in range(30))
    assert g.edge_count == 30 * 4 // 2


def test_random_regular_parity():
    with pytest.raises(ParityViolation):
        graphs.gen_random_regular(7, 3, seed=0)


def test_named_families(petersen):
    assert petersen.n == 10 and petersen.edge_count == 15
    c6 = graphs.gen_named("cycle", 6)
    assert all(c6.degree(v) == 2 for v in range(6))
    k5 = graphs.gen_named("complete", 5)
    assert k5.edge_count == 10
    kb = graphs.gen_named("complete_bipartite", 8)
    assert kb.n == 8 and kb.edge_count == 16
    with pytest.raises(UnknownName):
        graphs.gen_named("hypercube", 8)


def test_certificate_roundtrip(paley13, cert13):
    assert cert13.n == 13 and cert13.d == 6 and cert13.gamma_hat == 0
    assert abs(cert13.lambda_hat - (1 + math.sqrt(13)) / 2) < 1e-6
    assert graphs.check_certificate(paley13, cert13)
    text = graphs.certificate_to_json(cert13)
    assert graphs.certificate_from_json(text) == cert13


def test_check_certificate_rejects_other_graph(cert13):
    other = graphs.gen_named("cycle", 13)
    assert not graphs.check_certificate(other, cert13)


def test_graph_io_roundtrip(tmp_path, petersen):
    path = tmp_path / "g.txt"
    graphs.write_graph(petersen, path)
    back = graphs.read_graph(path)
    assert back == petersen


def test_induced_subgraph_mapping(paley13):
    verts = [2, 5, 7, 11]
    sub, mapping = paley13.induced(verts)
    assert sub.n == 4
    for i, u in enumerate(mapping):
        for j, v in enumerate(mapping):
            if i < j:
                assert sub.has_edge(i, j) == paley13.has_edge(u, v)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_edge_counts_match_brute_force(petersen, data):
    s = data.draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
    t = data.draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
    brute = len({tuple(sorted((u, v))) for u in s for v in t
                 if u != v and petersen.has_edge(u, v)})
    assert petersen.count_edges_between(s, t) == brute
    v0 = next(iter(s))
    assert petersen.cross_degree(v0, t) == sum(
        1 for w in t if petersen.has_edge(v0, w))


def test_bipartite_view_validation(paley13):
    with pytest.raises(ValueError):
        graphs.BipartiteView(parent=paley13, left=(0, 1), right=(1, 2))
    view = graphs.BipartiteView(parent=paley13, left=(0, 1), right=(3, 4))
    assert all(u in (0, 1) and v in (3, 4) for u, v in view.cross_edges())


def test_adjacency_dense_matches_sparse(paley13):
    assert np.array_equal(paley13.adjacency_dense(),
                          paley13.adjacency_sparse().toarray())
