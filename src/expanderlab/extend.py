"""Extendability checks and the port connector.

The extendability predicate bounds how much room small vertex sets
have outside a partial subgraph; the connector realizes the behavioral
contract of a reserved subgraph: given equal-size port sets X and Y
and a reserve of spare vertices, it routes vertex-disjoint paths for
any pairing of the ports chosen after construction. A consume-all
mode routes paths whose interiors exactly partition the reserve,
which is what the cycle-closing step needs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import (BadParameter, ConnectFailed, DegreeCap,
                     PreconditionViolated, ReserveTooSmall, TooLarge,
                     UnbalancedSides)
from .graphs import Graph, vertex_array
from .rng import generator

EXACT_VERTEX_CAP = 24    # exhaustive check bound on n
EXACT_SET_CAP = 6        # exhaustive check bound on 2m
TEARDOWN_CAP = 50        # total path teardowns per connect_pairs call


@dataclass(frozen=True)
class Subgraph:
    """A subgraph given by its vertex set and edge list; may be edgeless."""

    vertices: tuple
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        vset = set(self.vertices)
        for u, v in self.edges:
            if u not in vset or v not in vset:
                raise BadParameter(f"edge ({u},{v}) leaves the vertex set")
        object.__setattr__(self, "edges",
                           tuple(sorted((min(u, v), max(u, v))
                                        for u, v in self.edges)))

    @staticmethod
    def edgeless(vertices) -> "Subgraph":
        return Subgraph(vertices=tuple(vertices))

    def degree(self, u) -> int:
        return sum(1 for e in self.edges if u in e)

    def max_degree(self) -> int:
        return max((self.degree(u) for u in self.vertices), default=0)


@dataclass(frozen=True)
class ExtendabilityVerdict:
    holds: bool
    witness: frozenset | None
    method: str      # "exact", "sufficient", or "sampled"


@dataclass(frozen=True)
class PathSystem:
    paths: tuple     # vertex sequences, each from one port to another

    def to_json(self) -> str:
        return json.dumps([[int(v) for v in p] for p in self.paths])

    def interior_vertices(self) -> frozenset:
        out = set()
        for p in self.paths:
            out.update(p[1:-1])
        return frozenset(out)


def _defines_violation(g: Graph, s: Subgraph, d_par: int, u_set) -> bool:
    """True when U violates the extendability inequality."""
    vs = set(s.vertices)
    closed = set(u_set)
    for u in u_set:
        closed.update(g.neighbors(u).tolist())
    lhs = len(closed - vs)
    rhs = (d_par - 1) * len(u_set) - sum(s.degree(u) - 1
                                         for u in u_set if u in vs)
    return lhs < rhs


def _sufficient_holds(g: Graph, s: Subgraph, d_par: int, u_set) -> bool:
    """The stronger, sufficient condition |N(U) \\ V(S)| >= D|U|."""
    vs = set(s.vertices)
    nbrs = set()
    for u in u_set:
        nbrs.update(g.neighbors(u).tolist())
    return len(nbrs - vs) >= d_par * len(u_set)


def _check_params(g: Graph, s: Subgraph, d_par: int):
    if d_par < 3:
        raise BadParameter(f"D={d_par} must be at least 3")
    if not set(s.vertices) <= set(range(g.n)):
        raise BadParameter("subgraph vertices outside the host graph")
    if s.max_degree() > d_par:
        raise DegreeCap(f"max degree of S is {s.max_degree()} > D={d_par}")


def is_extendable_exact(g: Graph, s: Subgraph, d_par: int,
                        m: int) -> ExtendabilityVerdict:
    """Exhaustive extendability check over every U with 1 <= |U| <= 2m."""
    _check_params(g, s, d_par)
    if g.n > EXACT_VERTEX_CAP or 2 * m > EXACT_SET_CAP:
        raise TooLarge(
            f"exhaustive check limited to n <= {EXACT_VERTEX_CAP}, "
            f"2m <= {EXACT_SET_CAP}; got n={g.n}, 2m={2 * m}")
    for size in range(1, 2 * m + 1):
        for u_set in itertools.combinations(range(g.n), size):
            if _defines_violation(g, s, d_par, u_set):
                return ExtendabilityVerdict(holds=False,
                                            witness=frozenset(u_set),
                                            method="exact")
    return ExtendabilityVerdict(holds=True, witness=None, method="exact")


def extendable_sufficient(g: Graph, s: Subgraph, d_par: int, m: int,
                          budget: int = 10_000,
                          seed: int = 0) -> ExtendabilityVerdict:
    """Sufficient-condition check: exhaustive for |U| <= 2, sampled above.

    A set failing the sufficient condition is only reported as a
    witness when it also violates the extendability inequality itself;
    otherwise the run continues but can no longer certify, and the
    verdict method degrades from "sufficient" to "sampled".
    """
    _check_params(g, s, d_par)
    certified = True
    small = itertools.chain(
        itertools.combinations(range(g.n), 1),
        itertools.combinations(range(g.n), 2) if 2 * m >= 2 else ())
    for u_set in small:
        if not _sufficient_holds(g, s, d_par, u_set):
            if _defines_violation(g, s, d_par, u_set):
                return ExtendabilityVerdict(holds=False,
                                            witness=frozenset(u_set),
                                            method="exact")
            certified = False
    sampled = 2 * m > 2
    if sampled:
        rng = generator(seed, "extend-sufficient")
        sizes = list(range(3, 2 * m + 1))
        for _ in range(budget):
            size = int(rng.choice(sizes))
            u_set = tuple(rng.choice(g.n, size=size, replace=False))
            if not _sufficient_holds(g, s, d_par, u_set):
                if _defines_violation(g, s, d_par, u_set):
                    return ExtendabilityVerdict(holds=False,
                                                witness=frozenset(u_set),
                                                method="sampled")
                certified = False
    method = "sampled" if (sampled or not certified) else "sufficient"
    return ExtendabilityVerdict(holds=True, witness=None, method=method)


class Connector:
    """Routes vertex-disjoint port-to-port paths through a reserve.

    Plain mode finds shortest paths of length <= budget with interiors
    in the unused reserve; consume-all mode targets exact interior
    sizes so that the reserve is partitioned by the returned paths.
    Both modes tear down the most recently routed path and re-route it
    when stuck, up to a global teardown cap.
    """

    def __init__(self, g: Graph, left_ports, right_ports, reserved,
                 budget: int, seed: int = 0, consume_all: bool = False):
        self.g = g
        self.left_ports = tuple(vertex_array(left_ports).tolist())
        self.right_ports = tuple(vertex_array(right_ports).tolist())
        self.reserved = tuple(vertex_array(reserved).tolist())
        self.budget = budget
        self.seed = seed
        self.consume_all = consume_all
        self._ports = set(self.left_ports) | set(self.right_ports)

    def connect_pairs(self, pairing) -> PathSystem:
        """Vertex-disjoint paths, one per (u, v) pair of the pairing.

        `pairing` is a mapping or list of pairs; every endpoint must be
        a distinct port. In consume-all mode the path interiors exactly
        partition the reserve.
        """
        pairs = list(pairing.items()) if hasattr(pairing, "items") \
            else [tuple(p) for p in pairing]
        endpoints = [v for p in pairs for v in p]
        if len(set(endpoints)) != len(endpoints):
            raise PreconditionViolated("distinct_endpoints",
                                       "pairing reuses a port")
        for v in endpoints:
            if v not in self._ports:
                raise PreconditionViolated("ports_only",
                                           f"{v} is not a connector port")
        pool = set(self.reserved)
        if self.consume_all and pairs:
            per_path = len(pool) / len(pairs)
            if per_path > self.budget - 1:
                raise ConnectFailed(pairs[0], len(pool),
                                    "reserve too large for the length budget")
        routed = []           # parallel to pairs[:len(routed)]
        teardowns = 0
        attempt = [0] * len(pairs)
        i = 0
        while i < len(pairs):
            u, v = pairs[i]
            rng = generator(self.seed, f"connector-pair-{i}", attempt[i])
            attempt[i] += 1
            path = self._route_shortest(u, v, pool, rng)
            if path is not None:
                pool.difference_update(path[1:-1])
                routed.append(path)
                i += 1
                continue
            if i == 0 or teardowns >= TEARDOWN_CAP:
                raise ConnectFailed((u, v), len(pool),
                                    f"after {teardowns} teardowns")
            prev = routed.pop()
            pool.update(prev[1:-1])
            teardowns += 1
            i -= 1
        if self.consume_all:
            self._absorb(routed, pool)
        return PathSystem(paths=tuple(tuple(int(x) for x in p)
                                      for p in routed))

    def _absorb(self, routed, pool):
        """Splice every leftover reserve vertex into some routed path.

        A leftover w is inserted between consecutive path vertices a, b
        whenever aw and wb are edges; among eligible slots the shortest
        path is preferred, which keeps lengths balanced under the
        budget. A full pass with no insertion means the reserve cannot
        be consumed.
        """
        rng = generator(self.seed, "connector-absorb")
        while pool:
            candidates = sorted(pool)
            rng.shuffle(candidates)
            inserted = False
            for w in candidates:
                wn = set(self.g.neighbors(w).tolist())
                best = None      # (path length, path index, position)
                for pi, path in enumerate(routed):
                    if len(path) - 1 >= self.budget:
                        continue
                    for pos in range(len(path) - 1):
                        if path[pos] in wn and path[pos + 1] in wn:
                            key = (len(path), pi, pos)
                            if best is None or key < best:
                                best = key
                            break
                if best is not None:
                    _, pi, pos = best
                    routed[pi] = routed[pi][:pos + 1] + [w] + routed[pi][pos + 1:]
                    pool.remove(w)
                    inserted = True
            if not inserted:
                raise ConnectFailed(None, len(pool),
                                    "no splice point for leftover reserve "
                                    f"vertices {sorted(pool)[:10]}")

    def _route_shortest(self, u, v, pool, rng):
        """Randomized-tie-break BFS from u to v through the pool."""
        allowed = pool | {v}
        parent = {u: None}
        frontier = [u]
        depth = 0
        while frontier and depth < self.budget:
            depth += 1
            nxt = []
            for w in frontier:
                nbrs = [x for x in self.g.neighbors(w).tolist()
                        if x in allowed and x not in parent]
                rng.shuffle(nbrs)
                for x in nbrs:
                    parent[x] = w
                    if x == v:
                        path = [v]
                        while path[-1] is not u:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(x)
            frontier = nxt
        return None


def build_connector(g: Graph, x, y, reserve, l_max: int, seed: int = 0,
                    consume_all: bool = False,
                    min_reserve_ratio: float = 2.0) -> Connector:
    """Validated connector over disjoint port sets X, Y and a reserve."""
    xs, ys, rs = set(x), set(y), set(reserve)
    if len(xs) != len(ys):
        raise UnbalancedSides(f"|X|={len(xs)} != |Y|={len(ys)}")
    if xs & ys or xs & rs or ys & rs:
        raise PreconditionViolated("disjoint_regions",
                                   "X, Y, reserve must be pairwise disjoint")
    if len(rs) < min_reserve_ratio * len(xs):
        raise ReserveTooSmall(
            f"reserve of {len(rs)} below {min_reserve_ratio} * |X| = "
            f"{min_reserve_ratio * len(xs)}")
    if l_max < 1:
        raise BadParameter(f"l_max={l_max} must be at least 1")
    return Connector(g, xs, ys, rs, budget=l_max, seed=seed,
                     consume_all=consume_all)


def verify_path_system(g: Graph, system: PathSystem, pairs=None,
                       reserve=None, l_max: int | None = None) -> bool:
    """Independent check of a path system against the host graph.

    Verifies edge existence, pairwise vertex-disjointness, and (when
    supplied) endpoint pairing, interior containment in the reserve,
    and the length budget.
    """
    seen = set()
    for p in system.paths:
        if len(p) < 2 or len(set(p)) != len(p):
            return False
        if seen & set(p):
            return False
        seen.update(p)
        if not g.has_edge(p[:-1], p[1:]).all():
            return False
        if l_max is not None and len(p) - 1 > l_max:
            return False
    if pairs is not None:
        want = {frozenset(p) for p in
                (pairs.items() if hasattr(pairs, "items") else pairs)}
        got = {frozenset((p[0], p[-1])) for p in system.paths}
        if want != got:
            return False
    if reserve is not None:
        if not system.interior_vertices() <= set(reserve):
            return False
    return True
