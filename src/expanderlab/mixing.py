"""Mixing-lemma audits.

Checks the matrix mixing inequality, its specialization to almost
regular graphs, the one-edge threshold, the small-set expansion bound
and joinedness. Every audit recomputes what it needs from the concrete
input; "holds" must come out true whenever the statement is a theorem,
so a false result is evidence of a bug (or an invalid certificate),
never an acceptable outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (CertificateMismatch, DegenerateGamma, EmptySubset,
                     PreconditionViolated, TheoremFalsified)
from .graphs import Graph, SpectralCertificate, edge_counts, vertex_array
from .rng import generator

FRESH_S2_CAP = 4000  # side length up to which s2 is recomputed per audit
AUDIT_SLACK = 1e-9   # round-off allowed past an audited bound
# Hypotheses of the small-set expansion lemma, as in the paper.
EXPANSION_SIZE_CAP = 4.0        # |X| <= EXPANSION_SIZE_CAP * lambda * n / d
EXPANSION_MIN_DEGREE = 6.0      # deg(v,T) >= d / EXPANSION_MIN_DEGREE
EXPANSION_GAMMA_CAP = 1.0 / 20.0


@dataclass(frozen=True)
class MixingAudit:
    lhs_deviation: float
    rhs_bound: float
    holds: bool
    main_term: float
    s2_used: float


@dataclass(frozen=True)
class GraphMixingAudit:
    """Window audit of e(S,T) for an almost regular expander.

    The entry-sum count (ordered vertex pairs) is what the underlying
    matrix inequality controls for arbitrary S, T; the unordered edge
    count coincides with it exactly when S and T are disjoint, so both
    are reported rather than picking a convention.
    """

    ordered_count: float
    unordered_count: int
    lower: float
    upper: float
    epsilon: float
    disjoint: bool
    holds: bool               # window check on the ordered count
    unordered_holds: bool


@dataclass(frozen=True)
class ExpansionAudit:
    required: float
    actual: int
    holds: bool


@dataclass(frozen=True)
class JoinednessCertificate:
    m: int
    threshold: float
    degenerate: bool      # m-sets cannot even be disjoint (m > n/2)
    trials_run: int


def eml_matrix_audit(a: np.ndarray, s, t, s2_bar: float | None = None,
                     seed: int = 0) -> MixingAudit:
    """Audit the mixing inequality for a nonnegative matrix.

    `s2_bar`, when supplied, must be the second singular value of the
    normalized matrix of `a`; batch sweeps over one matrix pass it in
    to avoid re-solving the same spectrum per (S, T) pair.
    """
    rows = sorted(set(int(i) for i in s))
    cols = sorted(set(int(j) for j in t))
    if not rows or not cols:
        raise EmptySubset("S and T must be nonempty")
    arr = np.asarray(a, dtype=float)
    if s2_bar is None:
        if max(arr.shape) > FRESH_S2_CAP:
            raise ValueError(f"matrix too large to re-normalize (cap {FRESH_S2_CAP})")
        bar, _, _ = linalg.normalize_array(arr)
        k = min(2, min(bar.shape))
        spec = linalg.singular_values_array(bar, k, tol=1e-8, seed=seed)
        s2_bar = spec.values[1] if k == 2 else 0.0
    total = float(arr.sum())
    a_st = float(arr[np.ix_(rows, cols)].sum())
    a_sn = float(arr[rows, :].sum())
    a_mt = float(arr[:, cols].sum())
    main = a_sn * a_mt / total
    lhs = abs(a_st - main)
    inner = a_sn * (1 - a_sn / total) * a_mt * (1 - a_mt / total)
    rhs = s2_bar * np.sqrt(max(inner, 0.0))
    return MixingAudit(lhs_deviation=lhs, rhs_bound=float(rhs),
                       holds=lhs <= rhs + AUDIT_SLACK, main_term=main, s2_used=s2_bar)


def eml_graph_audit(cert: SpectralCertificate, g: Graph, s, t) -> GraphMixingAudit:
    """Audit the two-sided edge-count window for an almost regular expander."""
    if cert.n != g.n:
        raise CertificateMismatch(f"certificate n={cert.n} vs graph n={g.n}")
    sset, tset = vertex_array(s), vertex_array(t)
    if not sset.size or not tset.size:
        raise EmptySubset("S and T must be nonempty")
    gam, d, lam, n = cert.gamma_hat, cert.d, cert.lambda_hat, cert.n
    size_s, size_t = len(sset), len(tset)
    eps = (1 + gam) / (1 - gam) * lam * np.sqrt(size_s * size_t)
    lower = (1 - gam) ** 2 * d * size_s * size_t / ((1 + gam) * n) - eps
    upper = (1 + gam) ** 2 * d * size_s * size_t / ((1 - gam) * n) + eps

    ordered, unordered, both = edge_counts(g, sset, tset)
    lo, hi = lower - AUDIT_SLACK, upper + AUDIT_SLACK
    return GraphMixingAudit(
        ordered_count=float(ordered), unordered_count=unordered,
        lower=float(lower), upper=float(upper), epsilon=float(eps),
        disjoint=not both.size, holds=lo <= ordered <= hi,
        unordered_holds=lo <= unordered <= hi)


def regular_graph_bound(lam: float, n: int, size_s: int, size_t: int) -> float:
    """The classical d-regular mixing bound lambda*sqrt(|S|(1-|S|/n)|T|(1-|T|/n))."""
    return lam * np.sqrt(size_s * (1 - size_s / n) * size_t * (1 - size_t / n))


def one_edge_threshold(cert: SpectralCertificate) -> float:
    """Theta such that disjoint S, T with sqrt(|S||T|) > theta are joined."""
    gam = cert.gamma_hat
    if gam >= 1:
        raise DegenerateGamma(f"gamma_hat={gam} >= 1")
    return (1 + gam) ** 2 / (1 - gam) ** 3 * cert.lambda_hat * cert.n / cert.d


def expansion_audit(cert: SpectralCertificate, g: Graph, s, t, x,
                    divisor: float = 700.0) -> ExpansionAudit:
    """Audit |N(X, T)| >= (d / (divisor * lambda)) |X| under the lemma's
    hypotheses; the paper's divisor is 700."""
    if cert.n != g.n:
        raise CertificateMismatch("certificate does not match the graph")
    sset = set(int(v) for v in s)
    tset = set(int(v) for v in t)
    xset = set(int(v) for v in x)
    d, lam, gam, n = cert.d, cert.lambda_hat, cert.gamma_hat, cert.n
    if gam > EXPANSION_GAMMA_CAP:
        raise PreconditionViolated("gamma_cap",
                                   f"gamma_hat={gam} > {EXPANSION_GAMMA_CAP}")
    if lam > d / divisor:
        raise PreconditionViolated("lambda_cap",
                                   f"lambda={lam} > d/{divisor}={d / divisor}")
    if not xset <= sset:
        raise PreconditionViolated("x_subset_of_s", "X must lie inside S")
    if len(xset) > EXPANSION_SIZE_CAP * lam * n / d:
        raise PreconditionViolated(
            "x_size_cap",
            f"|X|={len(xset)} > {EXPANSION_SIZE_CAP}*lambda*n/d")
    min_deg = d / EXPANSION_MIN_DEGREE
    # The set's own iteration order picks which vertex the error names.
    svec = np.fromiter(sset, dtype=np.int64, count=len(sset))
    low = np.flatnonzero(g.cross_degree(svec, tset) < min_deg)
    if low.size:
        raise PreconditionViolated(
            "min_degree_into_t",
            f"deg({svec[low[0]]},T) < d/{EXPANSION_MIN_DEGREE}")
    outside_x = np.fromiter(tset - xset, dtype=np.int64)
    actual = int(np.count_nonzero(g.cross_degree(outside_x, xset)))
    required = d / (divisor * lam) * len(xset)
    return ExpansionAudit(required=float(required), actual=actual,
                          holds=actual >= required)


def joinedness_certify(cert: SpectralCertificate, g: Graph,
                       trials: int = 10_000, seed: int = 0) -> JoinednessCertificate:
    """m = floor(theta) + 1 plus a randomized falsifier over disjoint m-set pairs."""
    theta = one_edge_threshold(cert)
    m = int(np.floor(theta)) + 1
    if 2 * m > g.n:
        return JoinednessCertificate(m=m, threshold=float(theta),
                                     degenerate=True, trials_run=0)
    rng = generator(seed, "joinedness-falsifier")
    for trial in range(trials):
        perm = rng.permutation(g.n)
        s = perm[:m]
        t = perm[m:2 * m]
        if not g.cross_degree(s, t).any():
            raise TheoremFalsified(
                f"disjoint {m}-sets with no edge found at trial {trial}: "
                f"S={sorted(map(int, s))}, T={sorted(map(int, t))}")
    return JoinednessCertificate(m=m, threshold=float(theta),
                                 degenerate=False, trials_run=trials)
