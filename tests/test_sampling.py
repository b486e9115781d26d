import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import graphs, sampling
from expanderlab.errors import (AsymmetricInput, BadParameter, BadRange,
                                CertificateMismatch)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.data())
def test_exact_hypergeometric_below_chernoff(big_n, data):
    k = data.draw(st.integers(0, big_n))
    n = data.draw(st.integers(0, big_n))
    a = data.draw(st.floats(0.05, 1.45))
    for side in ("lower", "upper"):
        bound = sampling.hypergeometric_tail(big_n, k, n, a, side)
        exact = sampling.exact_hypergeometric_tail(big_n, k, n, a, side)
        assert exact <= bound + 1e-12


def test_hypergeometric_tail_validation():
    with pytest.raises(BadRange):
        sampling.hypergeometric_tail(10, 12, 3, 0.5, "lower")
    with pytest.raises(BadRange):
        sampling.hypergeometric_tail(10, 5, 3, -0.1, "lower")
    with pytest.raises(BadRange):
        sampling.hypergeometric_tail(10, 5, 3, 1.6, "upper")
    with pytest.raises(BadRange, match="side must be 'lower' or 'upper'"):
        sampling.hypergeometric_tail(10, 5, 3, 0.5, "middle")
    with pytest.raises(BadRange, match="need 0 <= K <= N"):
        sampling.exact_hypergeometric_tail(10, 12, 3, 0.5, "lower")


def test_exact_hypergeometric_pmf_total():
    # summing both strict tails plus the middle slab over a fine a-grid
    # can never exceed 1; spot-check a few crossing points instead
    lo = sampling.exact_hypergeometric_tail(20, 8, 10, 1e-9, "lower")
    hi = sampling.exact_hypergeometric_tail(20, 8, 10, 1e-9, "upper")
    assert lo + hi <= 1.0 + 1e-12


def test_submatrix_experiment_identity_holds():
    b = np.eye(40)
    est = sampling.submatrix_norm_experiment(b, "two_sided_bernoulli",
                                             sigma=0.3, trials=50, seed=0)
    assert est.holds and est.empirical_lp <= 1.0 + 1e-9
    est2 = sampling.submatrix_norm_experiment(b, "symmetric_uniform",
                                              m=12, trials=50, seed=0)
    assert est2.holds


def test_submatrix_experiment_validation():
    b = np.eye(5)
    with pytest.raises(BadParameter):
        sampling.submatrix_norm_experiment(b, "two_sided_bernoulli",
                                           sigma=1.2, trials=5)
    with pytest.raises(BadParameter):
        sampling.submatrix_norm_experiment(b, "two_sided_bernoulli",
                                           sigma=0.3, p=1.0, trials=5)
    skew = np.triu(np.ones((5, 5)))
    with pytest.raises(AsymmetricInput):
        sampling.submatrix_norm_experiment(skew, "symmetric_uniform",
                                           m=2, trials=5)
    with pytest.raises(BadParameter, match="needs 1 <= m <= n, got 6"):
        sampling.submatrix_norm_experiment(b, "symmetric_uniform", m=6, trials=5)
    with pytest.raises(BadParameter, match="unknown mode 'diagonal'"):
        sampling.submatrix_norm_experiment(b, "diagonal", trials=5)


def test_submatrix_experiment_deterministic():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(30, 30))
    b = (a + a.T) / 2
    e1 = sampling.submatrix_norm_experiment(b, "symmetric_uniform", m=10,
                                            trials=30, seed=9)
    e2 = sampling.submatrix_norm_experiment(b, "symmetric_uniform", m=10,
                                            trials=30, seed=9)
    assert e1 == e2


def test_induced_subgraph_experiment_paley(paley101, cert101):
    gamma = math.sqrt(math.log(101) / (0.5 * 50))
    exp = sampling.induced_subgraph_experiment(paley101, cert101, 0.5,
                                               trials=20, seed=0,
                                               gamma_target=gamma)
    assert exp.trials == 20 and len(exp.per_trial) == 20
    assert exp.gamma_used == gamma       # certificate gamma_hat is 0
    assert abs(exp.lambda_bound - 6 * 0.5 * cert101.lambda_hat) < 1e-9
    assert exp.success_fraction == 1.0
    floor = 1 - 101 ** (-1 / 6)
    summary = exp.summary(floor)
    assert summary["pass"] and summary["floor"] == floor
    rows = exp.csv_rows()
    assert [r["trial"] for r in rows] == list(range(20))


def test_induced_subgraph_experiment_deterministic(paley101, cert101):
    a = sampling.induced_subgraph_experiment(paley101, cert101, 0.4,
                                             trials=5, seed=3,
                                             gamma_target=0.3)
    b = sampling.induced_subgraph_experiment(paley101, cert101, 0.4,
                                             trials=5, seed=3,
                                             gamma_target=0.3)
    assert a == b


@pytest.mark.parametrize("call, error, match", [
    (lambda g, c13, c: sampling.induced_subgraph_experiment(g, c13, 0.5),
     CertificateMismatch, "does not match"),
    (lambda g, c13, c: sampling.induced_subgraph_experiment(g, c, 0.004),
     BadParameter, "< 1"),
    (lambda g, c13, c: sampling.induced_subgraph_experiment(g, c, 1.5),
     BadParameter, "> n"),
    (lambda g, c13, c: sampling.bipartite_induced_experiment(g, c13, 0.3, 0.3),
     CertificateMismatch, "does not match"),
    (lambda g, c13, c: sampling.bipartite_induced_experiment(g, c, 0.3, 0.004),
     BadParameter, "at least 1"),
    (lambda g, c13, c: sampling.bipartite_induced_experiment(g, c, 0.6, 0.5),
     BadParameter, "> 1"),
], ids=["induced-certificate", "induced-empty", "induced-above-n",
        "bipartite-certificate", "bipartite-empty-side", "bipartite-above-n"])
def test_subgraph_experiments_reject_bad_inputs(paley101, cert13, cert101,
                                                call, error, match):
    with pytest.raises(error, match=match):
        call(paley101, cert13, cert101)


def _no_draw(*args):
    raise AssertionError("a trial was drawn")


@pytest.mark.parametrize("name, call", [
    ("sigma", lambda g, c: sampling.induced_subgraph_experiment(g, c, math.inf)),
    ("sigma", lambda g, c: sampling.induced_subgraph_experiment(g, c, math.nan)),
    ("gamma_target", lambda g, c: sampling.induced_subgraph_experiment(
        g, c, 0.5, gamma_target=math.nan)),
    ("sigma1", lambda g, c: sampling.bipartite_induced_experiment(g, c, math.nan, 0.3)),
    ("sigma2", lambda g, c: sampling.bipartite_induced_experiment(g, c, 0.3, -math.inf)),
    ("gamma_target", lambda g, c: sampling.bipartite_induced_experiment(
        g, c, 0.3, 0.3, gamma_target=math.inf)),
    ("p", lambda g, c: sampling.submatrix_norm_experiment(
        np.eye(5), "two_sided_bernoulli", sigma=0.5, p=math.inf)),
    ("sigma", lambda g, c: sampling.submatrix_norm_experiment(
        np.eye(5), "two_sided_bernoulli", sigma=math.nan)),
    ("p", lambda g, c: sampling.submatrix_norm_experiment(
        np.eye(5), "symmetric_uniform", m=2, p=math.nan)),
])
def test_experiments_refuse_non_finite_parameters(paley101, cert101, monkeypatch,
                                                  name, call):
    monkeypatch.setattr(sampling, "generator", _no_draw)
    with pytest.raises(BadParameter, match=f"^{name}=.* is not finite"):
        call(paley101, cert101)


# A 5-cycle with one chord: gamma_hat > 0, so gamma_target goes unused.
IRREGULAR = graphs.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


@pytest.mark.parametrize("gamma_target", [0, -1.0])
@pytest.mark.parametrize("regular", [True, False], ids=["regular", "irregular"])
@pytest.mark.parametrize("call", [
    lambda g, c, gt: sampling.induced_subgraph_experiment(g, c, 0.6, gamma_target=gt),
    lambda g, c, gt: sampling.bipartite_induced_experiment(g, c, 0.4, 0.4,
                                                           gamma_target=gt),
], ids=["induced", "bipartite"])
def test_experiments_refuse_non_positive_gamma_target(paley101, cert101, monkeypatch,
                                                      call, regular, gamma_target):
    g = paley101 if regular else IRREGULAR
    cert = cert101 if regular else graphs.certify_expander(g, seed=0)
    assert (cert.gamma_hat == 0) == regular
    monkeypatch.setattr(sampling, "generator", _no_draw)
    with pytest.raises(BadParameter, match=f"^gamma_target={gamma_target} must be positive"):
        call(g, cert, gamma_target)


def test_bipartite_induced_experiment(paley101, cert101):
    gamma = math.sqrt(math.log(101) / (0.3 * 50))
    exp = sampling.bipartite_induced_experiment(paley101, cert101, 0.3, 0.3,
                                                trials=10, seed=0,
                                                gamma_target=gamma)
    assert exp.trials == 10
    assert exp.success_fraction >= 1 - 101 ** (-1 / 7)


def test_only_the_induced_record_checks_a_hypothesis(paley101, cert101):
    # The bipartite experiment states no hypothesis, so its record says
    # that none was checked rather than that one failed.
    plain = sampling.induced_subgraph_experiment(paley101, cert101, 0.5, trials=1,
                                                 gamma_target=0.1)
    bipartite = sampling.bipartite_induced_experiment(paley101, cert101, 0.25, 0.25,
                                                      trials=1, gamma_target=0.1)
    assert isinstance(plain.hypotheses_hold, bool)
    assert bipartite.hypotheses_hold is None
