"""The port connector.

The connector realizes the behavioral contract of a reserved subgraph:
given equal-size port sets X and Y and a reserve of spare vertices, it
routes vertex-disjoint paths for any pairing of the ports chosen after
construction, and their interiors exactly partition the reserve, which
is what the cycle-closing step needs. A path is a tuple of int
vertices, and a path system a tuple of paths. The reserve vertices no
path uses yet are one boolean mask over V: the BFS routes through it,
keeping one parent link per vertex it reaches, and each vertex it
leaves over is spliced into the first slot (a, b with aw and wb edges)
of the shortest path under the budget that has one, ties going to the
lower path index. The splice keeps the paths in buckets by length and
finds a slot by a binary search of a path's vertices in the leftover
vertex's sorted row, so it sets no mask per vertex.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import (BadParameter, ConnectFailed, PreconditionViolated,
                     ReserveTooSmall, UnbalancedSides)
from .graphs import Graph, vertex_array
from .rng import generator

TEARDOWN_CAP = 50        # total path teardowns per connect_pairs call


class Connector:
    """Routes vertex-disjoint port-to-port paths that consume a reserve.

    `free` marks the reserve vertices no path uses yet. Each pair first
    gets a shortest path of length <= budget with its interior in
    `free`; when a pair cannot be routed, the most recently routed path
    is torn down and re-routed, up to a global teardown cap. The free
    vertices left over are then spliced into the routed paths. `ports`
    and `reserved` are int64 arrays of distinct vertices, as
    `build_connector` checks them.
    """

    def __init__(self, g: Graph, ports, reserved, budget: int, seed: int):
        self.g = g
        self.reserved = reserved
        self.budget = budget
        self.seed = seed
        self.ports = ports

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
        for v, is_port in zip(endpoints, np.isin(endpoints, self.ports)):
            if not is_port:
                raise PreconditionViolated("ports_only",
                                           f"{v} is not a connector port")
        if pairs and len(self.reserved) / len(pairs) > self.budget - 1:
            raise ConnectFailed(pairs[0], len(self.reserved),
                                "reserve too large for the length budget")
        free = np.zeros(self.g.n, dtype=bool)
        free[self.reserved] = True
        routed = []           # parallel to pairs[:len(routed)]
        teardowns = 0
        attempt = [0] * len(pairs)
        i = 0
        while i < len(pairs):
            u, v = pairs[i]
            rng = generator(self.seed, f"connector-pair-{i}", attempt[i])
            attempt[i] += 1
            path = self._route_shortest(u, v, free, rng)
            if path is not None:
                free[path[1:-1]] = False
                routed.append(path)
                i += 1
                continue
            if i == 0 or teardowns >= TEARDOWN_CAP:
                raise ConnectFailed((u, v), int(free.sum()),
                                    f"after {teardowns} teardowns")
            free[routed.pop()[1:-1]] = True
            teardowns += 1
            i -= 1
        self._absorb(routed, free)
        return tuple(tuple(int(x) for x in p) for p in routed)

    def _absorb(self, routed, free):
        """Splice every free reserve vertex into some routed path.

        A leftover w may go between consecutive path vertices a, b when
        aw and wb are edges. Each pass takes the free vertices in a
        seeded order and inserts each w at its first slot in the first
        path that has one, trying the paths shorter than the budget in
        (length, index) order: the shortest path is preferred, which
        keeps lengths balanced under the budget. A pass with no
        insertion means the reserve cannot be consumed. The paths are
        kept in buckets by vertex count, each in index order, and a path
        is tested against w by a binary search of its vertices in w's
        sorted row.
        """
        rng = generator(self.seed, "connector-absorb")
        buckets = [[] for _ in range(self.budget + 2)]   # path indices by vertex count
        for i, path in enumerate(routed):
            buckets[len(path)].append(i)
        while free.any():
            left = np.flatnonzero(free).tolist()
            rng.shuffle(left)
            for w in left:
                if not (nbrs := self.g.neighbors(w)).size:
                    continue
                for size, i in ((size, i) for size in range(self.budget + 1)
                                for i in buckets[size]):
                    path = np.array(routed[i])
                    hits = nbrs.take(nbrs.searchsorted(path), mode="clip") == path
                    slots = hits[:-1] & hits[1:]
                    if slots.any():
                        routed[i].insert(int(slots.argmax()) + 1, w)
                        free[w] = False
                        buckets[size].remove(i)
                        bisect.insort(buckets[size + 1], i)
                        break
            if free[left].all():
                raise ConnectFailed(None, len(left),
                                    "no splice point for leftover reserve "
                                    f"vertices {sorted(left)[:10]}")

    def _route_shortest(self, u, v, free, rng):
        """Randomized-tie-break BFS from u to v through the free reserve;
        `open_` marks the free vertices and v, less those already reached,
        and `parent` links each reached vertex to the one it was reached from."""
        open_ = free.copy()
        open_[v] = True
        frontier, parent, size = [u], {}, 1     # size: vertices on a path to the frontier
        while frontier and size <= self.budget:
            nxt = []
            for a in frontier:
                nbrs = self.g.neighbors(a)
                nbrs = nbrs[open_[nbrs]].tolist()
                open_[nbrs] = False
                rng.shuffle(nbrs)
                for x in nbrs:
                    parent[x] = a
                    if x == v:
                        path = [x]
                        while len(path) <= size:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(x)
            frontier, size = nxt, size + 1
        return None


def build_connector(g: Graph, x, y, reserve, l_max: int, seed: int = 0,
                    min_reserve_ratio: float = 2.0) -> Connector:
    """Validated connector over disjoint port sets X, Y and a reserve."""
    xs, ys, rs = (vertex_array(region, g.n) for region in (x, y, reserve))
    if len(xs) != len(ys):
        raise UnbalancedSides(f"|X|={len(xs)} != |Y|={len(ys)}")
    ports = np.concatenate([xs, ys])
    if np.intersect1d(xs, ys, assume_unique=True).size or np.isin(rs, ports).any():
        raise PreconditionViolated("disjoint_regions",
                                   "X, Y, reserve must be pairwise disjoint")
    if len(rs) < min_reserve_ratio * len(xs):
        raise ReserveTooSmall(
            f"reserve of {len(rs)} below {min_reserve_ratio} * |X| = "
            f"{min_reserve_ratio * len(xs)}")
    if l_max < 1:
        raise BadParameter(f"l_max={l_max} must be at least 1")
    return Connector(g, ports, rs, budget=l_max, seed=seed)


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
