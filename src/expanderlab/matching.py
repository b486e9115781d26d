"""Bipartite matchings: maximum matching, Hall violators, and the two
expander matching lemmas (perfect matching in a balanced bipartite
expander; greedy matching avoiding prescribed sets). All of them read
the CSR cross block A[L, R] of a `graphs.BipartiteView`, which the view
reads once from the parent graph's rows; the perfect-matching lemma
reads d and gamma off its pair.

Maximum matchings are scipy's Hopcroft-Karp, reached as
`sp.csgraph.maximum_bipartite_matching` so that scipy loads
`scipy.sparse.csgraph` on first use and workloads without a matching
never import it. A Hall violator is Koenig's set of the rows that
alternating paths reach from the unmatched ones, the same for every
maximum matching. A matching is a read-only (size, 2) int64 array of
its edges (u, v), u on the left side, sorted by (u, v).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import mixing
from .errors import (CertificateMismatch, NoEdgeFound, PerfectMatchingFailed,
                     PreconditionViolated, UnbalancedSides)
from .graphs import (BipartiteView, Graph, SpectralCertificate, edge_array,
                     vertex_array)


@dataclass(frozen=True, eq=False)
class Matching:
    edges: np.ndarray    # read-only (size, 2) int64 (u, v), u on the left, sorted

    @property
    def size(self) -> int:
        return len(self.edges)

    def to_json(self) -> str:
        return json.dumps(self.edges.tolist())

    @staticmethod
    def from_edges(edges) -> "Matching":
        """The matching of an array or any iterable of (u, v) pairs."""
        e = edge_array(edges)
        e = e[np.lexsort((e[:, 1], e[:, 0]))]
        e.setflags(write=False)
        return Matching(edges=e)


def _matching_of(view: BipartiteView, partner: np.ndarray) -> Matching:
    """Matching of each block row i with partner[i] >= 0 to column partner[i]."""
    rows = np.flatnonzero(partner >= 0)
    return Matching.from_edges(np.column_stack([view.left[rows],
                                                view.right[partner[rows]]]))


def verify_matching(m: Matching, g: Graph, left, right) -> bool:
    """Independent check: edges exist in g, are vertex-disjoint and lie
    between `left` and `right`."""
    lefts, rights = map(set, m.edges.T.tolist())
    if len(lefts) != m.size or len(rights) != m.size:
        return False
    if not (lefts <= set(left) and rights <= set(right)):
        return False
    return bool(g.has_edge(*m.edges.T).all())


def max_matching(view: BipartiteView) -> Matching:
    """Maximum-cardinality matching of the view's cross edges."""
    return _matching_of(view, sp.csgraph.maximum_bipartite_matching(
        view.block, perm_type="column"))


def hall_violator(view: BipartiteView):
    """A set S of left vertices with |N(S) n R| < |S|, or None if L is
    saturated; R's is the one of the swapped pair BipartiteView(parent, R, L).

    Koenig's construction: the left vertices that alternating paths reach
    from the ones a maximum matching leaves unmatched. Every reached right
    vertex is matched back into that set (else the matching would not be
    maximum), so |N(S)| = |S| - #unmatched < |S|. By Dulmage-Mendelsohn
    the set is the same for every maximum matching.
    """
    partner = sp.csgraph.maximum_bipartite_matching(view.block, perm_type="column")
    reached = partner < 0
    if not reached.any():
        return None
    matched = np.flatnonzero(~reached)
    row_of = np.full(len(view.right), -1)
    row_of[partner[matched]] = matched
    seen = np.zeros(len(view.right), dtype=bool)
    frontier = np.flatnonzero(reached)
    while frontier.size:
        cols = np.unique(view.block[frontier].indices)
        cols = cols[~seen[cols]]
        seen[cols] = True
        frontier = row_of[cols]     # a matched row is reached only here
        reached[frontier] = True
    return frozenset(view.left[reached].tolist())


def perfect_matching_expander(view: BipartiteView, lam: float, *, gamma_cap: float,
                              ratio_cap: float) -> Matching:
    """Perfect matching in a balanced bipartite expander with s2 at most
    `lam`, its gamma (`observed_gamma`, which refuses a parent without
    edges) and d (the parent's `mean_degree()`) read off the pair.

    Under the verified preconditions the matching must exist; a miss is
    reported as a theorem falsification carrying the Hall violator, which
    is the same for every maximum matching.
    """
    if len(view.left) != len(view.right):
        raise UnbalancedSides(
            f"|V1|={len(view.left)} != |V2|={len(view.right)}")
    if (gamma := view.observed_gamma()) > gamma_cap:
        raise PreconditionViolated("gamma_cap", f"gamma={gamma} > {gamma_cap}")
    d = view.parent.mean_degree()
    if lam > ratio_cap * d:
        raise PreconditionViolated(
            "lambda_cap", f"lambda={lam} > {ratio_cap}*d={ratio_cap * d}")
    m = max_matching(view)
    if m.size == len(view.left):
        return m
    raise PerfectMatchingFailed(violator=hall_violator(view))


def greedy_matching_avoiding(g: Graph, cert: SpectralCertificate,
                             v1, v2, s1=(), s2=()) -> Matching:
    """Greedy matching between V1\\S1 and V2\\S2 down to the one-edge threshold.

    While both residual sides exceed theta, the certificate guarantees
    an edge between them; the lexicographically smallest is taken. The
    size >= min(|V1|-|S1|-theta, |V2|-|S2|-theta) needs no check: unless
    NoEdgeFound is raised, a side, say V1\\S1, has |V1\\S1| - size <= theta
    unmatched, so the integer size is >= ceil(|V1\\S1| - theta), and
    rounding cannot break this: floating-point subtraction is monotone.
    """
    if cert.n != g.n:
        raise CertificateMismatch("certificate does not match the graph")
    v1, v2, s1, s2 = (vertex_array(region, g.n) for region in (v1, v2, s1, s2))
    if np.intersect1d(v1, v2, assume_unique=True).size:
        raise PreconditionViolated("disjoint_sides", "V1 and V2 must be disjoint")
    if not (np.isin(s1, v1).all() and np.isin(s2, v2).all()):
        raise PreconditionViolated("avoid_subset", "S_i must lie inside V_i")
    theta = mixing.one_edge_threshold(cert)
    if len(s1) > len(v1) - theta or len(s2) > len(v2) - theta:
        raise PreconditionViolated(
            "avoid_size", f"|S_i| must be <= |V_i| - theta (theta={theta})")
    view = BipartiteView(parent=g, left=np.setdiff1d(v1, s1, assume_unique=True),
                         right=np.setdiff1d(v2, s2, assume_unique=True))
    # The lexicographically smallest edge between the residual sides is
    # taken each step. A left vertex without a free neighbour never gets
    # one later, so one pass over the block's rows takes the same edges.
    partner, taken = np.full(len(view.left), -1), np.zeros(len(view.right), dtype=bool)
    for i, row in enumerate(np.split(view.block.indices, view.block.indptr[1:-1])):
        free = row[~taken[row]]
        if free.size:
            partner[i] = free[0]
            taken[free[0]] = True
    m = _matching_of(view, partner)
    unmatched, free = len(view.left) - m.size, len(view.right) - m.size
    if unmatched > theta and free > theta:
        raise NoEdgeFound(
            f"no edge between residual sides of sizes {unmatched}, "
            f"{free} > theta={theta}; the certificate must be invalid")
    return m
