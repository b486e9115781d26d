"""The port connector.

The connector realizes the behavioral contract of a reserved subgraph:
given equal-size port sets X and Y and a reserve of spare vertices, it
routes vertex-disjoint paths for any pairing of the ports chosen after
construction, and their interiors exactly partition the reserve, which
is what the cycle-closing step needs. A path is a tuple of int
vertices, and a path system a tuple of paths.
"""

from __future__ import annotations

from .errors import (BadParameter, ConnectFailed, PreconditionViolated,
                     ReserveTooSmall, UnbalancedSides)
from .graphs import Graph, vertex_array
from .rng import generator

TEARDOWN_CAP = 50        # total path teardowns per connect_pairs call


class Connector:
    """Routes vertex-disjoint port-to-port paths that consume a reserve.

    Each pair first gets a shortest path of length <= budget with its
    interior in the unused reserve; when a pair cannot be routed, the
    most recently routed path is torn down and re-routed, up to a global
    teardown cap. The reserve vertices left over are then spliced into
    the routed paths.
    """

    def __init__(self, g: Graph, ports, reserved, budget: int, seed: int):
        self.g = g
        self.reserved = tuple(vertex_array(reserved).tolist())
        self.budget = budget
        self.seed = seed
        self._ports = set(vertex_array(ports).tolist())

    def connect_pairs(self, pairs) -> tuple:
        """Vertex-disjoint paths whose interiors partition the reserve,
        path i running from pairs[i][0] to pairs[i][1].

        Every endpoint of the (u, v) pairs must be a distinct port.
        """
        pairs = [tuple(p) for p in pairs]
        endpoints = [v for p in pairs for v in p]
        if len(set(endpoints)) != len(endpoints):
            raise PreconditionViolated("distinct_endpoints",
                                       "pairing reuses a port")
        for v in endpoints:
            if v not in self._ports:
                raise PreconditionViolated("ports_only",
                                           f"{v} is not a connector port")
        pool = set(self.reserved)
        if pairs and len(pool) / len(pairs) > self.budget - 1:
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
        self._absorb(routed, pool)
        return tuple(tuple(int(x) for x in p) for p in routed)

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
    return Connector(g, xs | ys, rs, budget=l_max, seed=seed)


def verify_path_system(g: Graph, paths, pairs=None, reserve=None,
                       l_max: int | None = None) -> bool:
    """Independent check of a sequence of paths against the host graph.

    Verifies edge existence, pairwise vertex-disjointness, and (when
    supplied) the pairing, path i running from pairs[i][0] to
    pairs[i][1], interior containment in the reserve, and the length
    budget.
    """
    seen = set()
    for p in paths:
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
        if [(p[0], p[-1]) for p in paths] != [tuple(p) for p in pairs]:
            return False
    if reserve is not None:
        if not {v for p in paths for v in p[1:-1]} <= set(reserve):
            return False
    return True
