"""Mixing-lemma audits.

Checks the matrix mixing inequality and its specialization to almost
regular graphs, and gives the one-edge threshold. Every audit counts on
the concrete input and takes its spectrum (s2_bar, or the certificate) as
given; "holds" must come out true whenever the statement is a theorem, so
a false result is evidence of a bug or of a wrong spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateMismatch, DegenerateGamma, EmptySubset
from .graphs import Graph, SpectralCertificate, vertex_array

AUDIT_SLACK = 1e-9   # round-off allowed past an audited bound


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


def eml_matrix_audit(a: np.ndarray, s, t, s2_bar: float) -> MixingAudit:
    """Audit the mixing inequality for a nonnegative matrix.

    `s2_bar` is the second singular value of the normalized matrix of
    `a`, solved once by the caller for every (S, T) pair it audits.
    """
    arr = np.asarray(a, dtype=float)
    rows, cols = vertex_array(s, arr.shape[0]), vertex_array(t, arr.shape[1])
    if not rows.size or not cols.size:
        raise EmptySubset("S and T must be nonempty")
    total = float(arr.sum())
    a_st = float(arr[np.ix_(rows, cols)].sum())
    a_sn = float(arr[rows, :].sum())
    a_mt = float(arr[:, cols].sum())
    main = a_sn * a_mt / total
    lhs = abs(a_st - main)
    inner = a_sn * (1 - a_sn / total) * a_mt * (1 - a_mt / total)
    rhs = s2_bar * np.sqrt(max(inner, 0.0))
    return MixingAudit(lhs_deviation=lhs, rhs_bound=float(rhs),
                       holds=bool(lhs <= rhs + AUDIT_SLACK), main_term=main, s2_used=s2_bar)


def eml_graph_audit(cert: SpectralCertificate, g: Graph, s, t) -> GraphMixingAudit:
    """Audit the two-sided edge-count window for an almost regular expander."""
    if cert.n != g.n:
        raise CertificateMismatch(f"certificate n={cert.n} vs graph n={g.n}")
    sset, tset = vertex_array(s, g.n), vertex_array(t, g.n)
    if not sset.size or not tset.size:
        raise EmptySubset("S and T must be nonempty")
    gam, d, lam, n = cert.gamma_hat, cert.d, cert.lambda_hat, cert.n
    size_s, size_t = len(sset), len(tset)
    eps = (1 + gam) / (1 - gam) * lam * math.sqrt(size_s * size_t)
    lower = (1 - gam) ** 2 * d * size_s * size_t / ((1 + gam) * n) - eps
    upper = (1 + gam) ** 2 * d * size_s * size_t / ((1 - gam) * n) + eps

    ordered, unordered, both = g._count_edges(sset, tset)
    lo, hi = lower - AUDIT_SLACK, upper + AUDIT_SLACK
    return GraphMixingAudit(
        ordered_count=float(ordered), unordered_count=unordered,
        lower=lower, upper=upper, epsilon=eps,
        disjoint=not both.size, holds=lo <= ordered <= hi,
        unordered_holds=lo <= unordered <= hi)


def one_edge_threshold(cert: SpectralCertificate) -> float:
    """Theta such that disjoint S, T with sqrt(|S||T|) > theta are joined."""
    gam = cert.gamma_hat
    if gam >= 1:
        raise DegenerateGamma(f"gamma_hat={gam} >= 1")
    return (1 + gam) ** 2 / (1 - gam) ** 3 * cert.lambda_hat * cert.n / cert.d
