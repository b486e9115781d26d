import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from expanderlab import graphs, linalg, mixing
from expanderlab.errors import (CertificateMismatch, DegenerateGamma,
                                EmptySubset)

nonneg = st.floats(min_value=0, max_value=5, allow_nan=False,
                   allow_infinity=False, width=32)


def _s2_bar(a):
    """The dense oracle's s2 of the normalized matrix of a."""
    return linalg.dense_singular_values(linalg.normalize_array(a)[0])[1]


def test_matrix_audit_complete_graph_tight():
    a = np.ones((4, 4)) - np.eye(4)
    audit = mixing.eml_matrix_audit(a, [0, 1], [2, 3], _s2_bar(a))
    # s2 of the normalized K4 adjacency is 1/3; deviation hits the bound.
    assert abs(audit.s2_used - 1 / 3) < 1e-8
    assert audit.holds
    assert abs(audit.lhs_deviation - audit.rhs_bound) < 1e-8


def test_matrix_audit_holds_is_a_json_bool():
    # The dense oracle's s2 is a numpy float; the audit still holds a
    # plain bool, which an artifact's json.dumps takes.
    a = np.ones((4, 4)) - np.eye(4)
    s2_bar = _s2_bar(a)
    assert isinstance(s2_bar, np.floating)
    audit = mixing.eml_matrix_audit(a, [0, 1], [2, 3], s2_bar)
    assert type(audit.holds) is bool
    assert json.loads(json.dumps(dataclasses.asdict(audit)))["holds"] is True


def test_matrix_audit_empty_subset():
    a = np.ones((3, 3))
    with pytest.raises(EmptySubset):
        mixing.eml_matrix_audit(a, [], [0], _s2_bar(a))


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (8, 8), elements=nonneg), st.data())
def test_matrix_audit_never_violated_fuzz(a, data):
    a = a + 0.05          # keep all line sums positive
    s = data.draw(st.sets(st.integers(0, 7), min_size=1, max_size=4))
    t = data.draw(st.sets(st.integers(0, 7), min_size=1, max_size=4))
    audit = mixing.eml_matrix_audit(a, s, t, _s2_bar(a))
    assert audit.holds


def test_graph_audit_counts_and_window(petersen):
    cert = graphs.certify_expander(petersen, seed=0)
    audit = mixing.eml_graph_audit(cert, petersen, [0, 1, 2], [1, 2, 3])
    # edge (1,2) sits inside the overlap, so the ordered (entry-sum)
    # count exceeds the unordered edge count by exactly one
    assert not audit.disjoint
    assert audit.ordered_count == audit.unordered_count + 1
    assert audit.holds
    # Python scalars, which json.dumps takes (a numpy bool it refuses)
    assert type(audit.holds) is bool and type(audit.unordered_holds) is bool
    assert all(type(x) is float for x in (audit.lower, audit.upper, audit.epsilon))
    disjoint = mixing.eml_graph_audit(cert, petersen, [0, 1], [5, 6])
    assert disjoint.disjoint
    assert disjoint.ordered_count == disjoint.unordered_count


def test_graph_audit_sweep_paley(paley101, cert101):
    rng = np.random.default_rng(1)
    for _ in range(50):
        perm = rng.permutation(101)
        a, b = rng.integers(1, 50, size=2)
        audit = mixing.eml_graph_audit(cert101, paley101,
                                       perm[:a], perm[a:a + b])
        assert audit.holds and audit.unordered_holds


def test_graph_audit_rejects_other_graphs_certificate(paley101, cert13):
    with pytest.raises(CertificateMismatch, match="n=13 vs graph n=101"):
        mixing.eml_graph_audit(cert13, paley101, [0], [1])


def test_graph_audit_empty_subset(paley101, cert101):
    with pytest.raises(EmptySubset):
        mixing.eml_graph_audit(cert101, paley101, [], [1])


def test_one_edge_threshold(cert101):
    theta = mixing.one_edge_threshold(cert101)
    assert abs(theta - cert101.lambda_hat * 101 / 50) < 1e-9
    bad = graphs.SpectralCertificate(n=10, d=5.0, gamma_hat=1.0,
                                     lambda_hat=1.0, residual=0.0, seed=0)
    with pytest.raises(DegenerateGamma):
        mixing.one_edge_threshold(bad)

