"""Graph representation, generators and spectral certification.

Graphs are simple, undirected and immutable after construction.
Adjacency is stored sparse (per-vertex sorted neighbor tuples plus
neighbor sets for O(1) edge queries). Spectral certification hands
`adjacency_sparse()` to `linalg.singular_values_array`, which picks
LAPACK or ARPACK by size; `adjacency_dense()` materializes the matrix
for callers that need it, up to DENSIFY_CAP vertices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
from .errors import (BadResidueClass, EmptySide, IsolatedVertex, NotPrime,
                     ParityViolation, RetryExhausted, UnknownName)
from .rng import generator

DENSIFY_CAP = 4000
PAIRING_ATTEMPT_FACTOR = 100  # cap on stub-pair draws: 100 * n * d


class Graph:
    """Simple undirected graph with 0-based vertices."""

    __slots__ = ("n", "adjacency", "edge_count", "_neighbor_sets")

    def __init__(self, n: int, edges):
        adj = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self.edge_count = len(seen)
        self._neighbor_sets = tuple(frozenset(a) for a in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.adjacency])

    def neighbors(self, v: int):
        return self.adjacency[v]

    def neighbor_set(self, v: int) -> frozenset:
        return self._neighbor_sets[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._neighbor_sets[u]

    def edges(self):
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def adjacency_sparse(self) -> sp.csr_matrix:
        indptr = np.cumsum([0] + [len(a) for a in self.adjacency])
        indices = np.fromiter((v for a in self.adjacency for v in a),
                              dtype=np.int64, count=indptr[-1])
        data = np.ones(indptr[-1])
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    def adjacency_dense(self) -> np.ndarray:
        if self.n > DENSIFY_CAP:
            raise ValueError(f"densify cap is {DENSIFY_CAP}, graph has n={self.n}")
        a = np.zeros((self.n, self.n))
        for u in range(self.n):
            a[u, list(self.adjacency[u])] = 1.0
        return a

    def induced(self, vertices) -> tuple["Graph", list]:
        """Induced subgraph plus the sorted vertex list mapping new->old."""
        vs = sorted(set(int(v) for v in vertices))
        pos = {v: i for i, v in enumerate(vs)}
        edges = []
        vset = set(vs)
        for u in vs:
            for w in self.adjacency[u]:
                if u < w and w in vset:
                    edges.append((pos[u], pos[w]))
        return Graph(len(vs), edges), vs

    def cross_degree(self, v: int, targets) -> int:
        tset = targets if isinstance(targets, (set, frozenset)) else set(targets)
        nbrs = self._neighbor_sets[v]
        if len(tset) < len(nbrs):
            return sum(1 for w in tset if w in nbrs)
        return sum(1 for w in nbrs if w in tset)

    def count_edges_between(self, s, t) -> int:
        """e(S,T): edges with one endpoint in S and the other in T (unordered)."""
        sset = set(s)
        tset = set(t)
        count = 0
        for u, v in self.edges():
            if (u in sset and v in tset) or (v in sset and u in tset):
                count += 1
        return count

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adjacency == other.adjacency

    def __hash__(self):
        return hash(self.adjacency)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class SpectralCertificate:
    """Witness that a graph is an almost-(n,d,lambda)-graph."""

    n: int
    d: float            # mean degree
    gamma_hat: float    # max relative degree deviation
    lambda_hat: float   # second singular value of the adjacency matrix
    residual: float
    seed: int


@dataclass(frozen=True)
class BipartiteView:
    """View of the parent edges crossing between two disjoint vertex sets."""

    parent: Graph
    left: tuple
    right: tuple

    def __post_init__(self):
        if set(self.left) & set(self.right):
            raise ValueError("sides must be disjoint")
        object.__setattr__(self, "left", tuple(sorted(set(self.left))))
        object.__setattr__(self, "right", tuple(sorted(set(self.right))))

    def cross_edges(self):
        rset = set(self.right)
        for u in self.left:
            for v in self.parent.adjacency[u]:
                if v in rset:
                    yield (u, v)


@dataclass(frozen=True)
class BipartiteCertificate:
    n: int
    d: float
    gamma: float
    lambda_bound: float
    s2_observed: float


@dataclass(frozen=True)
class BipartiteViolation:
    vertex: int
    observed: float
    window: tuple
    reason: str


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def gen_paley(q: int) -> Graph:
    """Paley graph on Z_q: a~b iff a-b is a nonzero quadratic residue."""
    if not _is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if q % 4 != 1:
        raise BadResidueClass(f"need q = 1 mod 4, got {q} = {q % 4} mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    edges = [(a, b) for a in range(q) for b in range(a + 1, q)
             if (b - a) % q in residues]
    return Graph(q, edges)


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Pairing model with full rejection of self-loops and multi-edges."""
    if d >= n:
        raise ValueError(f"need d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ParityViolation(f"n*d = {n * d} is odd")
    if d == 0:
        return Graph(n, [])
    rng = generator(seed, "pairing-model")
    stubs = np.repeat(np.arange(n), d)
    draws = 0
    cap = PAIRING_ATTEMPT_FACTOR * n * d
    while draws < cap:
        perm = rng.permutation(stubs)
        draws += len(stubs) // 2
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        keys = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in pairs}
        if len(keys) < len(pairs):
            continue
        return Graph(n, sorted(keys))
    raise RetryExhausted(f"pairing model failed after {draws} stub draws")


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def gen_named(name: str, n: int | None = None) -> Graph:
    if name == "petersen":
        return _petersen()
    if n is None:
        raise UnknownName(f"graph '{name}' needs a size argument")
    if name == "complete":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if name == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "complete_bipartite":
        if n % 2 != 0:
            raise ValueError("complete_bipartite splits n into two equal sides")
        h = n // 2
        return Graph(n, [(i, h + j) for i in range(h) for j in range(h)])
    raise UnknownName(name)


def certify_expander(g: Graph, tol: float = 1e-8, seed: int = 0) -> SpectralCertificate:
    """Measure (d, gamma_hat, lambda_hat) and wrap them in a certificate."""
    if g.n == 0:
        raise ValueError("empty graph")
    degs = g.degrees()
    if degs.min() == 0:
        raise IsolatedVertex(f"vertex {int(np.argmin(degs))} is isolated")
    d = float(degs.mean())
    gamma_hat = float(np.abs(degs - d).max() / d)
    if g.n == 1:
        raise IsolatedVertex("single-vertex graph")
    spec = linalg.singular_values_array(g.adjacency_sparse(), 2, tol=tol, seed=seed)
    return SpectralCertificate(n=g.n, d=d, gamma_hat=gamma_hat,
                               lambda_hat=spec.values[1],
                               residual=max(spec.residuals), seed=seed)


def check_certificate(g: Graph, cert: SpectralCertificate, tol: float = 1e-6) -> bool:
    """Re-check a certificate against the graph it claims to describe."""
    degs = g.degrees()
    if g.n != cert.n or abs(float(degs.mean()) - cert.d) > tol:
        return False
    lo = (1 - cert.gamma_hat) * cert.d - tol
    hi = (1 + cert.gamma_hat) * cert.d + tol
    if degs.min() < lo or degs.max() > hi:
        return False
    spec = linalg.singular_values_array(g.adjacency_sparse(), 2, seed=cert.seed)
    return abs(spec.values[1] - cert.lambda_hat) <= max(tol, 100 * cert.residual)


def certify_bipartite_expander(view: BipartiteView, d: float, gamma: float,
                               lam: float, tol: float = 1e-8, seed: int = 0):
    """Check the proportional cross-degree windows and the s2 bound.

    Cross-degrees of every vertex must be (1 +- gamma) * d * |other side| / n
    with n the size of the union; s2 of the induced subgraph on the union
    must be at most lam. Returns the certificate, or the first violation.
    """
    if not view.left or not view.right:
        raise EmptySide("both sides must be nonempty")
    n = len(view.left) + len(view.right)
    for side, other in ((view.left, view.right), (view.right, view.left)):
        oset = set(other)
        target = d * len(other) / n
        lo, hi = (1 - gamma) * target, (1 + gamma) * target
        for v in side:
            deg = view.parent.cross_degree(v, oset)
            if not (lo - tol <= deg <= hi + tol):
                return BipartiteViolation(vertex=v, observed=float(deg),
                                          window=(lo, hi),
                                          reason="cross-degree outside window")
    union, _ = view.parent.induced(view.left + view.right)
    spec = linalg.singular_values_array(union.adjacency_sparse(), 2,
                                        tol=max(tol, 1e-8), seed=seed)
    s2 = spec.values[1]
    if s2 > lam + tol:
        return BipartiteViolation(vertex=-1, observed=s2, window=(0.0, lam),
                                  reason="s2 above bound")
    return BipartiteCertificate(n=n, d=d, gamma=gamma, lambda_bound=lam,
                                s2_observed=s2)


def certificate_to_json(cert: SpectralCertificate) -> str:
    # json emits the shortest decimal that round-trips exactly, so the
    # certificate survives a dump/load cycle bit-for-bit.
    return json.dumps({
        "n": cert.n,
        "d": float(cert.d),
        "gamma_hat": float(cert.gamma_hat),
        "lambda_hat": float(cert.lambda_hat),
        "residual": float(cert.residual),
        "seed": cert.seed,
    }, indent=2) + "\n"


def certificate_from_json(text: str) -> SpectralCertificate:
    obj = json.loads(text)
    return SpectralCertificate(n=int(obj["n"]), d=float(obj["d"]),
                               gamma_hat=float(obj["gamma_hat"]),
                               lambda_hat=float(obj["lambda_hat"]),
                               residual=float(obj["residual"]),
                               seed=int(obj["seed"]))


def read_graph(path) -> Graph:
    """Graph file format: "n m" header, then m lines "u v" with u < v."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        n, m = int(header[0]), int(header[1])
        edges = []
        for _ in range(m):
            u, v = fh.readline().split()
            edges.append((int(u), int(v)))
    g = Graph(n, edges)
    if g.edge_count != m:
        raise ValueError("edge count mismatch")
    return g


def write_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        for u, v in sorted(g.edges()):
            fh.write(f"{u} {v}\n")
