"""Bipartite matchings: maximum matching, Hall violators, and the two
expander matching lemmas (perfect matching in a balanced bipartite
expander; greedy matching avoiding prescribed sets). All of them walk
the cross adjacency of a `graphs.BipartiteView`, which is read off the
subgraph the pair induces, never off the parent graph's rows.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import mixing
from .errors import (CertificateMismatch, MatchingFloorMissed, NoEdgeFound,
                     PerfectMatchingFailed, PreconditionViolated,
                     UnbalancedSides)
from .graphs import BipartiteView, Graph, SpectralCertificate


@dataclass(frozen=True)
class Matching:
    edges: tuple              # sorted (u, v) pairs, u on the left side
    left_cover: frozenset
    right_cover: frozenset

    @property
    def size(self) -> int:
        return len(self.edges)

    def to_json(self) -> str:
        return json.dumps([[int(u), int(v)] for u, v in self.edges])

    @staticmethod
    def from_edges(edges) -> "Matching":
        pairs = tuple(sorted((int(u), int(v)) for u, v in edges))
        return Matching(edges=pairs,
                        left_cover=frozenset(u for u, _ in pairs),
                        right_cover=frozenset(v for _, v in pairs))


def verify_matching(m: Matching, g: Graph, left=None, right=None) -> bool:
    """Independent check: edges exist in g, vertex-disjoint, covers consistent."""
    lefts = [u for u, _ in m.edges]
    rights = [v for _, v in m.edges]
    if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
        return False
    if frozenset(lefts) != m.left_cover or frozenset(rights) != m.right_cover:
        return False
    if left is not None and not m.left_cover <= set(left):
        return False
    if right is not None and not m.right_cover <= set(right):
        return False
    return bool(g.has_edge(*np.reshape(m.edges, (-1, 2)).T).all())


class _HopcroftKarp:
    """Shortest-augmenting-path phases; deterministic under sorted adjacency."""

    def __init__(self, left, adjacency):
        self.left = list(left)                   # sorted left vertices
        self.adj = adjacency                     # left vertex -> sorted right list
        self.match_left = {u: None for u in self.left}
        self.match_right = {}
        self.dist = {}

    def _bfs(self) -> bool:
        queue = deque()
        for u in self.left:
            if self.match_left[u] is None:
                self.dist[u] = 0
                queue.append(u)
            else:
                self.dist[u] = math.inf
        found = False
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                w = self.match_right.get(v)
                if w is None:
                    found = True
                elif self.dist[w] is math.inf:
                    self.dist[w] = self.dist[u] + 1
                    queue.append(w)
        return found

    def _dfs(self, u) -> bool:
        for v in self.adj[u]:
            w = self.match_right.get(v)
            if w is None or (self.dist[w] == self.dist[u] + 1 and self._dfs(w)):
                self.match_left[u] = v
                self.match_right[v] = u
                return True
        self.dist[u] = math.inf
        return False

    def solve(self):
        while self._bfs():
            for u in self.left:
                if self.match_left[u] is None:
                    self._dfs(u)
        return self.match_left


def max_matching(view: BipartiteView) -> Matching:
    """Maximum-cardinality matching of the view's cross edges."""
    adj = view.cross_adjacency()
    hk = _HopcroftKarp(view.left, adj)
    match = hk.solve()
    return Matching.from_edges((u, v) for u, v in match.items() if v is not None)


def hall_violator(view: BipartiteView, side: str = "left"):
    """A set S on `side` with |N(S)| < |S|, or None if that side is saturated."""
    if side == "right":
        view = BipartiteView(parent=view.parent, left=view.right,
                             right=view.left)
    elif side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _koenig_violator(view, max_matching(view))


def _koenig_violator(view: BipartiteView, m: Matching):
    """Hall violator on the left side from a maximum matching m of the view,
    or None if m saturates the left side.

    Koenig's construction: the left vertices reachable by alternating
    paths from the unmatched ones. Every reached right vertex is matched
    back into that set, so |N(S)| = |S| - #unmatched < |S|.
    """
    free = [u for u in view.left if u not in m.left_cover]
    if not free:
        return None
    adj = view.cross_adjacency()
    partner = {v: u for u, v in m.edges}
    reach_left, reach_right = set(free), set()
    queue = deque(free)
    while queue:
        for v in adj[queue.popleft()]:
            if v not in reach_right:
                reach_right.add(v)
                w = partner.get(v)
                if w is not None and w not in reach_left:
                    reach_left.add(w)
                    queue.append(w)
    return frozenset(reach_left)


def perfect_matching_expander(view: BipartiteView, d: float, gamma: float,
                              lam: float, gamma_cap: float = 1.0 / 6.0,
                              ratio_cap: float = 1.0 / 200.0) -> Matching:
    """Perfect matching in a balanced certified bipartite expander.

    Under the verified preconditions the matching must exist; a miss is
    reported as a theorem falsification carrying the Hall violator,
    taken from the same maximum matching.
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
    raise PerfectMatchingFailed(violator=_koenig_violator(view, m))


def greedy_matching_avoiding(g: Graph, cert: SpectralCertificate,
                             v1, v2, s1=(), s2=()) -> Matching:
    """Greedy matching between V1\\S1 and V2\\S2 down to the one-edge threshold.

    While both residual sides exceed theta, the certificate guarantees
    an edge between them; the lexicographically smallest is taken. The
    result must reach size >= min(|V1|-|S1|-theta, |V2|-|S2|-theta).
    """
    if cert.n != g.n:
        raise CertificateMismatch("certificate does not match the graph")
    v1, v2 = set(int(x) for x in v1), set(int(x) for x in v2)
    s1, s2 = set(int(x) for x in s1), set(int(x) for x in s2)
    if v1 & v2:
        raise PreconditionViolated("disjoint_sides", "V1 and V2 must be disjoint")
    if not (s1 <= v1 and s2 <= v2):
        raise PreconditionViolated("avoid_subset", "S_i must lie inside V_i")
    theta = mixing.one_edge_threshold(cert)
    if len(s1) > len(v1) - theta or len(s2) > len(v2) - theta:
        raise PreconditionViolated(
            "avoid_size", f"|S_i| must be <= |V_i| - theta (theta={theta})")
    view = BipartiteView(parent=g, left=v1 - s1, right=v2 - s2)
    # The lexicographically smallest edge between the residual sides is
    # taken each step. A left vertex without a free neighbour never gets
    # one later, so one pass over the left side takes the same edges.
    edges, taken = [], set()
    for u, nbrs in view.cross_adjacency().items():
        v = next((v for v in nbrs if v not in taken), None)
        if v is not None:
            edges.append((u, v))
            taken.add(v)
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
