"""Bipartite matchings: maximum matching, Hall violators, and the two
expander matching lemmas (perfect matching in a balanced bipartite
expander; greedy matching avoiding prescribed sets). All of them read
the CSR cross block A[L, R] of a `graphs.BipartiteView`, which the view
reads once from the parent graph's rows.

Maximum matchings are scipy's Hopcroft-Karp, reached as
`sp.csgraph.maximum_bipartite_matching` so that scipy loads
`scipy.sparse.csgraph` on first use and workloads without a matching
never import it. A Hall violator is Koenig's set of the rows that
alternating paths reach from the unmatched ones, the same for every
maximum matching.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import mixing
from .errors import (CertificateMismatch, MatchingFloorMissed, NoEdgeFound,
                     PerfectMatchingFailed, PreconditionViolated,
                     UnbalancedSides)
from .graphs import BipartiteView, Graph, SpectralCertificate, vertex_array


@dataclass(frozen=True)
class Matching:
    edges: tuple              # sorted (u, v) pairs, u on the left side

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def left_cover(self) -> frozenset:
        return frozenset(u for u, _ in self.edges)

    @property
    def right_cover(self) -> frozenset:
        return frozenset(v for _, v in self.edges)

    def to_json(self) -> str:
        return json.dumps([[int(u), int(v)] for u, v in self.edges])

    @staticmethod
    def from_edges(edges) -> "Matching":
        return Matching(edges=tuple(sorted((int(u), int(v)) for u, v in edges)))


def verify_matching(m: Matching, g: Graph, left=None, right=None) -> bool:
    """Independent check: edges exist in g, are vertex-disjoint and lie
    between `left` and `right` when those are given."""
    if len(m.left_cover) != m.size or len(m.right_cover) != m.size:
        return False
    if left is not None and not m.left_cover <= set(left):
        return False
    if right is not None and not m.right_cover <= set(right):
        return False
    return bool(g.has_edge(*np.reshape(m.edges, (-1, 2)).T).all())


def max_matching(view: BipartiteView) -> Matching:
    """Maximum-cardinality matching of the view's cross edges."""
    partner = sp.csgraph.maximum_bipartite_matching(view.block, perm_type="column")
    return Matching.from_edges((view.left[i], view.right[partner[i]])
                               for i in np.flatnonzero(partner >= 0))


def hall_violator(view: BipartiteView, side: str = "left"):
    """A set S on `side` with |N(S)| < |S|, or None if that side is saturated.

    Koenig's construction: the vertices of `side` that alternating paths
    reach from the ones a maximum matching leaves unmatched. Every
    reached vertex of the other side is matched back into that set (else
    the matching would not be maximum), so |N(S)| = |S| - #unmatched <
    |S|. By Dulmage-Mendelsohn the set is the same for every maximum
    matching.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    block, own = view.block, view.left
    if side == "right":
        block, own = block.T.tocsr(), view.right
    partner = sp.csgraph.maximum_bipartite_matching(block, perm_type="column")
    reached = partner < 0
    if not reached.any():
        return None
    matched = np.flatnonzero(~reached)
    row_of = np.full(block.shape[1], -1)
    row_of[partner[matched]] = matched
    seen = np.zeros(block.shape[1], dtype=bool)
    frontier = np.flatnonzero(reached)
    while frontier.size:
        cols = np.unique(block[frontier].indices)
        cols = cols[~seen[cols]]
        seen[cols] = True
        frontier = row_of[cols]     # a matched row is reached only here
        reached[frontier] = True
    return frozenset(np.asarray(own)[reached].tolist())


def perfect_matching_expander(view: BipartiteView, d: float, gamma: float,
                              lam: float, *, gamma_cap: float,
                              ratio_cap: float) -> Matching:
    """Perfect matching in a balanced certified bipartite expander.

    Under the verified preconditions the matching must exist; a miss is
    reported as a theorem falsification carrying the Hall violator, which
    is the same for every maximum matching.
    """
    if len(view.left) != len(view.right):
        raise UnbalancedSides(
            f"|V1|={len(view.left)} != |V2|={len(view.right)}")
    if gamma > gamma_cap:
        raise PreconditionViolated("gamma_cap", f"gamma={gamma} > {gamma_cap}")
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
    result must reach size >= min(|V1|-|S1|-theta, |V2|-|S2|-theta).
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
    edges, taken = [], np.zeros(len(view.right), dtype=bool)
    for u, row in zip(view.left, np.split(view.block.indices, view.block.indptr[1:-1])):
        free = row[~taken[row]]
        if free.size:
            edges.append((u, view.right[free[0]]))
            taken[free[0]] = True
    unmatched = len(view.left) - len(edges)
    free = len(view.right) - len(edges)
    if unmatched > theta and free > theta:
        raise NoEdgeFound(
            f"no edge between residual sides of sizes {unmatched}, "
            f"{free} > theta={theta}; the certificate must be invalid")
    floor = max(0, math.ceil(min(len(v1) - len(s1) - theta,
                                 len(v2) - len(s2) - theta)))
    if len(edges) < floor:
        raise MatchingFloorMissed(
            f"greedy matching of size {len(edges)} below floor {floor}")
    return Matching.from_edges(edges)
