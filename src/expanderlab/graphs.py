"""Graph representation, generators and spectral certification.

Graphs are simple, undirected and immutable after construction. A graph
is stored as CSR: read-only int32 arrays `indptr` and `indices`, where
the neighbours of v are indices[indptr[v]:indptr[v + 1]] in increasing
order. A vertex set passes one rule, `vertex_array(S, n)`: an entry that
is a bool or not an integer, or a vertex outside range(n), raises
ValueError, and the set is read sorted off a mask over V; a single
vertex keeps the same type rule (`has_edge` answers False for an integer
outside range(n)). An edge lookup
is a binary search in the sorted row. Bit-packed rows, built on first use
if no larger than `indices`, give edge counts and, where n x n bools fit
in `indices`, a set's rows for degrees into it, induced subgraphs and
cross blocks; sparser graphs use a scipy CSR view of the arrays. Degrees
into vertex sets come from one kernel, `degrees_into`, which reads a
whole table of equal-size groups in one pass (`cross_degree` is its
one-group case). A window check reads degree counts alone: every degree
window, (1 +- width) times a target on each side, over any number of
sides at once, is one `window_violation` call. A
`BipartiteView` keeps read-only sides (L, R) and the CSR cross block
A[L, R] its matchings read; only its s2 builds G[L u R].
`adjacency_sparse()` is that int8 scipy CSR view itself, not a copy: the
spectral kernel, told it is symmetric, multiplies it as its pattern.
`adjacency_dense()` materializes it up to DENSIFY_CAP vertices. The
constructor sorts the edge keys lo * n + hi once (not at all if they
increase already) into each vertex's neighbours above it, and one
builder, `_full_rows`, writes each row's neighbours below (scipy's
linear-time `tocsc`) ahead of them. Graph files move in chunks, each in
whole-array passes; a sorted file is read chunk by chunk straight into
those upper rows. No graph-sized temporary outgrows the graph's CSR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
from .errors import (BadResidueClass, EmptyGraph, EmptySide, IsolatedVertex,
                     MalformedGraphFile, NotPrime, ParityViolation,
                     PreconditionViolated, RetryExhausted, UnknownName)
from .rng import generator

DENSIFY_CAP = 4000
# Residual tolerance of every graph spectrum (certificates and induced
# s2), and the slack of the bipartite certificate's windows and s2 bound.
SPECTRAL_TOL = 1e-8
PAIRING_ATTEMPT_FACTOR = 100  # cap on stub-pair draws: 100 * n * d
# Lines of a graph file per chunk: `write_graph` renders about this many
# edge lines at a time, `read_graph` reads 8 bytes a line (about a line of
# Paley 1009 or 2029), then to a line end. Checking a chunk takes about ten
# times its bytes in temporaries, about what rendering one takes.
CHUNK = 1 << 16
ROW_PIECE = 1024    # adjacency rows `_bit_rows` packs, and `_rows` unpacks, at a time
_DIGITS_AND_BLANKS = b"0123456789 \t\r\n"     # the bytes a graph file may hold


def vertex_array(vertices, n: int) -> np.ndarray:
    """Sorted distinct int64 array of any iterable's vertices, read off a
    mask over range(n); a vertex outside range(n) raises ValueError."""
    mask = np.zeros(n, dtype=bool)
    mask[_in_range(vertices, n)] = True
    return np.flatnonzero(mask)


def _in_range(vertices, n: int) -> np.ndarray:
    """`_integers(vertices)`; the first vertex outside range(n) raises ValueError."""
    vertices = _integers(vertices)
    if (outside := (vertices < 0) | (vertices >= n)).any():
        raise ValueError(f"vertex {vertices[outside][0]} outside range({n})")
    return vertices


def _integers(vertices) -> np.ndarray:
    """A vertex, or any iterable's vertices, as an int64 array, in their
    order and with their repeats; the first bool or non-integer raises ValueError."""
    if isinstance(vertices, range):
        vertices = np.arange(vertices.start, vertices.stop, vertices.step)
    elif not hasattr(vertices, "__iter__"):     # one vertex (arrays and strings iterate)
        vertices = np.asarray(vertices)
    elif not isinstance(vertices, np.ndarray):
        ints = {*map(type, vertices := list(vertices))} <= {int}
        vertices = np.fromiter(vertices, np.int64) if ints else np.array(vertices, object)
    if vertices.dtype.kind not in "iu":     # bools, floats, entries of several types
        for v in vertices.flat:
            if type(v) is bool or not isinstance(v, (int, np.integer)):
                raise ValueError(f"vertex {v} is not an integer")
    return vertices.astype(np.int64, copy=False)


def edge_array(edges) -> np.ndarray:
    """(m, 2) int64 array of any iterable of (u, v) pairs; else ValueError."""
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                   dtype=np.int64)
    if e.size and (e.ndim != 2 or e.shape[1] != 2):
        raise ValueError("edges must be (u, v) pairs")
    return e.reshape(-1, 2)


def _first_invalid_edge(n: int, u: np.ndarray, v: np.ndarray):
    """(index, reason) of the first edge that is a self-loop, leaves
    range(n) or repeats an earlier edge; None if every edge is valid."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loop = lo == hi
    outside = (lo < 0) | (hi >= n)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    bad = np.flatnonzero(loop | outside | repeat)
    if not bad.size:
        return None
    i = int(bad[0])
    if loop[i]:
        return i, f"self-loop at {u[i]}"
    if outside[i]:
        return i, f"edge ({u[i]},{v[i]}) out of range"
    return i, f"duplicate edge {(int(lo[i]), int(hi[i]))}"


def _full_rows(n: int, indptr, upper) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the graph on range(n) whose neighbours above each
    vertex v are upper[indptr[v]:indptr[v + 1]], increasing. Each row gets
    its neighbours below (its column of that upper triangle, from scipy's
    linear-time `tocsc`) written ahead of those above, through a mask that
    marks the places of the ones below."""
    _check_size(n, 2 * len(upper))
    indptr = indptr.astype(np.int32)    # scipy would take int64 indptr to int64 indices
    lower = sp.csr_array((np.ones(len(upper), dtype=np.int8), upper, indptr),
                         shape=(n, n)).tocsc()
    below, lower = lower.indptr, lower.indices
    runs = np.column_stack([np.diff(below), np.diff(indptr)]).ravel()
    place = np.repeat(np.tile([True, False], n), runs)
    indices = np.empty(2 * len(upper), dtype=np.int32)
    indices[place] = lower
    del lower
    indices[np.logical_not(place, out=place)] = upper
    return below + indptr, indices


def _check_size(n: int, entries: int) -> None:
    """Reject `entries` adjacency entries (twice the edges) or n vertices
    past int32 CSR; generators call it before they allocate."""
    if entries >= 2 ** 31:
        raise ValueError(f"{entries} adjacency entries overflow int32")
    if not 0 <= n < 2 ** 31:
        raise ValueError(f"n={n} outside the int32 vertex range")


class Graph:
    """Simple undirected graph with 0-based vertices, stored as CSR."""

    __slots__ = ("n", "indptr", "indices", "_csr", "_bits")

    def __init__(self, n: int, edges):
        _check_size(n, 0)
        e = edge_array(edges)
        u, v = e.T
        key = np.minimum(u, v)      # lo * n + hi; wraps harmlessly outside range(n)
        key *= n
        key += np.maximum(u, v)
        if not (key[1:] > key[:-1]).all():  # `gen_named` complete graphs come sorted
            key.sort()
        if e.size and (e.min() < 0 or e.max() >= n or (u == v).any()
                       or (key[1:] == key[:-1]).any()):
            raise ValueError(_first_invalid_edge(n, u, v)[1])
        indptr = np.searchsorted(key, np.arange(n + 1) * n)
        upper = np.remainder(key, max(n, 1), out=key).astype(np.int32)   # now hi
        del e, u, v, key
        self._set(int(n), *_full_rows(int(n), indptr, upper))

    @classmethod
    def _from_csr(cls, n: int, indptr, indices) -> "Graph":
        """Wrap CSR arrays that already describe a simple graph."""
        g = cls.__new__(cls)
        g._set(n, indptr, indices)
        return g

    def _set(self, n, indptr, indices) -> None:
        _check_size(n, len(indices))
        self.n = n
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        ones = np.ones(len(indices), dtype=np.int8)
        ones.setflags(write=False)
        self._csr = sp.csr_array((ones, self.indices, self.indptr), shape=(n, n))
        self._bits = None

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def mean_degree(self) -> float:
        """d = 2m/n, the one definition of d (the mean of `degrees()` bit for bit:
        2m is exact in float64); a graph without edges raises PreconditionViolated."""
        if not self.edge_count:
            raise PreconditionViolated("mean_degree", "d = 0: the graph has no edges")
        return 2 * self.edge_count / self.n

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """The sorted neighbours of v; a bool, a non-integer or a vertex
        outside range(n) raises ValueError, as in `vertex_array`."""
        if type(v) is bool or not isinstance(v, (int, np.integer)) or not 0 <= v < self.n:
            _in_range(v, self.n)    # raises the ValueError
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u, v):
        """Whether u ~ v: a bool for two vertices, a bool array for two
        arrays of vertices. A bool or non-integer raises ValueError, as in
        `vertex_array`; an integer outside range(n) has no edges. All
        pairs binary-search v in the sorted row of u at once."""
        u, v = _integers(u), _integers(v)
        inside = (u >= 0) & (u < self.n) & (v >= 0) & (v < self.n)
        row = np.where(inside, u, 0)    # a pair outside searches [0, 0)
        lo, hi = self.indptr[row], self.indptr[row + inside]
        while (open_ := lo < hi).any():   # row entries < v before lo, >= v from hi
            mid = lo + (hi - lo) // 2
            below = self.indices[np.where(open_, mid, 0)] < v
            lo = np.where(open_ & below, mid + 1, lo)
            hi = np.where(open_ & ~below, mid, hi)
        hit = lo < self.indptr[row + inside]
        if hit.any():
            hit &= self.indices[np.where(hit, lo, 0)] == v
        return bool(hit) if hit.ndim == 0 else hit

    def adjacency_sparse(self) -> sp.csr_array:
        """The graph's own int8 CSR matrix, not a copy: its arrays are
        read-only, and the spectral kernel multiplies it as its pattern."""
        return self._csr

    def s2(self, seed: int) -> float:
        """Second singular value of the adjacency (0.0 below two vertices)."""
        if self.n < 2:
            return 0.0
        return linalg.singular_values_array(self.adjacency_sparse(), 2,
                                            tol=SPECTRAL_TOL, seed=seed,
                                            symmetric=True).values[1]

    def adjacency_dense(self) -> np.ndarray:
        if self.n > DENSIFY_CAP:
            raise ValueError(f"densify cap is {DENSIFY_CAP}, graph has n={self.n}")
        a = np.zeros((self.n, self.n))
        a[np.repeat(np.arange(self.n), self.degrees()), self.indices] = 1.0
        return a

    def induced(self, vertices) -> tuple["Graph", np.ndarray]:
        """Induced subgraph and its members (new -> old), `vertex_array(vertices)`."""
        sub = self._block(vs := vertex_array(vertices, self.n), vs)
        return Graph._from_csr(len(vs), sub.indptr, sub.indices), vs

    def cross_degree(self, vertices, targets) -> np.ndarray:
        """Number of neighbours in the vertex set `targets` of each of
        `vertices` (an array or sequence, in its order and with its
        repeats), as an int array. A vertex of either outside range(n)
        raises ValueError. It is `degrees_into`'s one-group case: the
        degrees into `targets` of every vertex, picked at `vertices`.
        """
        vertices = _in_range(vertices, self.n)
        return self._degrees_into(vertex_array(targets, self.n)[None])[0][vertices]

    def degrees_into(self, groups) -> np.ndarray:
        """(len(groups), n) int array whose [i, v] is the number of
        neighbours of v in groups[i], for a 2-D array of vertices whose
        rows are groups of one size (each row's entries counted with their
        repeats). A vertex outside range(n), a bool, a non-integer or an
        array that is not 2-D raises ValueError."""
        groups = np.asarray(groups)
        if groups.ndim != 2:
            raise ValueError(f"groups must be a 2-D array of vertices, got {groups.ndim}-D")
        return self._degrees_into(_in_range(groups.ravel(), self.n).reshape(groups.shape))

    def _degrees_into(self, groups: np.ndarray) -> np.ndarray:
        """`degrees_into` of a 2-D int array inside range(n). The adjacency
        is symmetric, so row i is the column sums of the rows of groups[i]:
        of unpacked bit rows, as many whole groups at a time as fit in
        ROW_PIECE rows (a larger group a piece at a time), or one bincount
        of the CSR columns of all groups, each labelled by its group."""
        count, size = groups.shape
        per = max(1, ROW_PIECE // max(size, 1))    # whole groups per unpacked piece
        spans = [(lo, min(lo + per, count)) for lo in range(0, count, per)]
        reads = [self._rows(groups[lo:hi].ravel()) for lo, hi in spans]
        if not reads or reads[0] is None:
            rows = self._csr[groups.ravel()]
            labels = np.repeat(np.arange(count) * self.n, size)
            return np.bincount(np.repeat(labels, np.diff(rows.indptr)) + rows.indices,
                               minlength=count * self.n).reshape(count, self.n)
        out = np.zeros((count, self.n), dtype=np.int32)
        for (lo, hi), pieces in zip(spans, reads):
            for rows in pieces:     # one piece, unless a group outgrows ROW_PIECE
                # ROW_PIECE < 2**16 rows of a group: their count fits in uint16
                out[lo:hi] += rows.reshape(hi - lo, -1, self.n).sum(axis=1, dtype=np.uint16)
        return out

    def _block(self, left: np.ndarray, right: np.ndarray) -> sp.csr_array:
        """A[left, right] of two vertex arrays, the bytes scipy indexing gives."""
        if (pieces := self._rows(left)) is None:
            return self._csr[left][:, right]
        counts, columns = [[0]], [np.zeros(0, dtype=np.int32)]
        for rows in (piece[:, right] for piece in pieces):
            counts.append(rows.sum(axis=1, dtype=np.int32))
            flat = np.flatnonzero(rows)     # of bools: 2-D nonzero is far slower
            columns.append(np.remainder(flat, max(len(right), 1), out=flat).astype(np.int32))
        indptr = np.cumsum(np.concatenate(counts), dtype=np.int32)
        return sp.csr_array((np.ones(indptr[-1], dtype=np.int8), np.concatenate(columns), indptr),
                            shape=(len(left), len(right)))

    def count_edges_between(self, s, t) -> tuple:
        """(1_S^T A 1_T, e(S,T), S n T) of two vertex sets.

        The ordered count 1_S^T A 1_T counts each edge inside S n T
        twice; the unordered count e(S,T) counts it once. Each is exact:
        sum_{v in S} popcount(row_v & mask_T) on the bit rows, O(|S| n / 64),
        or, where the rows would outgrow the CSR (1.25 GB against 64 MB at
        n = 10^5, d = 160), a sum over S of one `_degrees_into` row on the CSR.
        """
        return self._count_edges(vertex_array(s, self.n), vertex_array(t, self.n))

    def _count_edges(self, s: np.ndarray, t: np.ndarray) -> tuple:
        """`count_edges_between` of sets that already passed `vertex_array`."""
        both = np.intersect1d(s, t, assume_unique=True)
        if (bits := self._bit_rows()) is None:
            ordered, inside = (int(self._degrees_into(b[None])[0][a].sum())
                               for a, b in ((s, t), (both, both)))
        else:
            masks = np.zeros((2, bits.shape[1] * 64), dtype=bool)
            masks[0, t] = masks[1, both] = True
            masks = np.packbits(masks, axis=1, bitorder="little").view("<u8")
            ordered, inside = (int(np.bitwise_count(bits[a] & mask).sum())
                               for a, mask in zip((s, both), masks))
        return ordered, ordered - inside // 2, both

    def _bit_rows(self):
        """Read-only uint64 rows, bit v & 63 of word v >> 6 of row u set iff
        u ~ v, packed ROW_PIECE rows at a time on first use; None if over `indices`."""
        words = (self.n + 63) // 64
        if self._bits is None and self.n * words * 8 <= self.indices.nbytes:
            bits = np.zeros((self.n, words * 8), dtype=np.uint8)
            for lo in range(0, self.n, ROW_PIECE):
                bits[lo:lo + ROW_PIECE, :(self.n + 7) // 8] = np.packbits(
                    self._csr[lo:lo + ROW_PIECE].toarray(), axis=1, bitorder="little")
            self._bits = bits.view("<u8")
            self._bits.setflags(write=False)
        return self._bits

    def _rows(self, vertices: np.ndarray):
        """The rows of `vertices` as (k, n) bools unpacked ROW_PIECE at a time; None
        unless n x n bools fit in `indices` (mean degree >= n / 4) and bit rows exist."""
        if self.n * self.n <= self.indices.nbytes and (bits := self._bit_rows()) is not None:
            return (np.unpackbits(bits.view(np.uint8)[vertices[lo:lo + ROW_PIECE]], axis=1,
                                  count=self.n, bitorder="little").view(bool)
                    for lo in range(0, len(vertices), ROW_PIECE))

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

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


class BipartiteView:
    """Disjoint vertex sets (L, R) of a parent graph, each a read-only
    `vertex_array`, and their CSR cross block A[L, R], read once by
    `Graph._block`: row i is left[i], column j is right[j], columns increase
    within a row. Built where a matching or an s2 needs the block; degrees, gamma
    (d the parent's `mean_degree()`) and matchings read it; only `s2` builds G[L u R]."""

    __slots__ = ("parent", "left", "right", "block")

    def __init__(self, parent: Graph, left, right):
        self.parent = parent
        self.left, self.right = vertex_array(left, parent.n), vertex_array(right, parent.n)
        if np.intersect1d(self.left, self.right, assume_unique=True).size:
            raise ValueError("sides must be disjoint")
        self.block = parent._block(self.left, self.right)
        for array in (self.left, self.right, self.block.indptr, self.block.indices,
                      self.block.data):
            array.setflags(write=False)

    def degrees(self) -> tuple:
        """(deg(v, R) for v in L, deg(v, L) for v in R): row lengths, column counts."""
        return (np.diff(self.block.indptr),
                np.bincount(self.block.indices, minlength=len(self.right)))

    def observed_gamma(self) -> float:
        """Largest relative deviation of a cross degree between L and R from its
        target d * |other| / n, d the parent's `mean_degree()` (which refuses a
        parent without edges), over sides facing a non-empty side."""
        n, d, worst = self.parent.n, self.parent.mean_degree(), 0.0
        for other, deg in zip((self.right, self.left), self.degrees()):
            if other.size:
                target = d * other.size / n
                deviation = np.abs(deg - target) / target
                worst = max(worst, float(deviation.max(initial=0.0)))
        return worst

    def s2(self, seed: int) -> float:
        """Second singular value of G[L u R], induced here on each call."""
        return self.parent.induced(np.concatenate([self.left, self.right]))[0].s2(seed)


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


def gen_paley(q: int) -> Graph:
    """Paley graph on Z_q: a~b iff a-b is a nonzero quadratic residue."""
    if q >= 2:
        _check_size(q, q * (q - 1) // 2)
    if q < 2 or any(q % f == 0 for f in range(2, math.isqrt(q) + 1)):
        raise NotPrime(f"{q} is not prime")
    if q % 4 != 1:
        raise BadResidueClass(f"need q = 1 mod 4, got {q} = {q % 4} mod 4")
    residues = np.unique(np.arange(1, q, dtype=np.int64) ** 2 % q)
    r = len(residues)
    # Circulant: row a is sort((a + R) mod q), the residues past q - a
    # wrapped to the front.
    rows = np.empty((q, r), dtype=np.int32)
    for a in range(q):
        wrap = np.searchsorted(residues, q - a)
        rows[a, :r - wrap] = residues[wrap:] + (a - q)
        rows[a, r - wrap:] = residues[:wrap] + a
    return Graph._from_csr(q, np.arange(0, q * r + 1, r), rows.ravel())


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Pairing model with full rejection of self-loops and multi-edges."""
    if d >= n:
        raise ValueError(f"need d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ParityViolation(f"n*d = {n * d} is odd")
    _check_size(n, n * d)
    if d == 0:
        return Graph(n, [])
    rng = generator(seed, "pairing-model")
    stubs = np.repeat(np.arange(n), d)
    draws = 0
    cap = PAIRING_ATTEMPT_FACTOR * n * d
    while draws < cap:
        pairs = rng.permutation(stubs).reshape(-1, 2)
        draws += len(pairs)
        try:
            return Graph(n, pairs)
        except ValueError:      # a self-loop or a repeated edge
            continue
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
        _check_size(n, n * (n - 1))
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if name == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        _check_size(n, 2 * n)
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "complete_bipartite":
        if n % 2 != 0:
            raise ValueError("complete_bipartite splits n into two equal sides")
        _check_size(n, n * n // 2)
        h = n // 2
        return Graph(n, [(i, h + j) for i in range(h) for j in range(h)])
    raise UnknownName(name)


def certify_expander(g: Graph, seed: int = 0) -> SpectralCertificate:
    """Measure (d, gamma_hat, lambda_hat) and wrap them in a certificate."""
    if g.n == 0:
        raise EmptyGraph("empty graph")
    degs = g.degrees()
    if degs.min() == 0:
        raise IsolatedVertex(f"vertex {int(np.argmin(degs))} is isolated")
    d = g.mean_degree()
    gamma_hat = float(np.abs(degs - d).max() / d)
    spec = linalg.singular_values_array(g.adjacency_sparse(), 2, tol=SPECTRAL_TOL,
                                        seed=seed, symmetric=True)
    return SpectralCertificate(n=g.n, d=d, gamma_hat=gamma_hat,
                               lambda_hat=spec.values[1],
                               residual=max(spec.residuals), seed=seed)


def window_violation(sides, degrees, targets, width: float, tol: float = 0.0):
    """The first vertex of sides[0], then of sides[1], and so on, whose
    degree (in `degrees` at the same place) leaves (1 +- width) * its
    side's target widened by tol, as (side, vertex, degree, lo, hi), side
    its index and lo, hi unwidened; None if none does. All sides are
    checked in one pass over their degrees laid end to end, each side's
    bounds repeated along its stretch."""
    sizes = [len(side) for side in sides]
    if not sum(sizes):
        return None
    targets = np.asarray(targets, dtype=float)
    lo, hi = (1 - width) * targets, (1 + width) * targets
    deg = np.concatenate(degrees)
    bad = np.flatnonzero((deg < np.repeat(lo - tol, sizes)) | (deg > np.repeat(hi + tol, sizes)))
    if not bad.size:
        return None
    first = int(bad[0])
    side = int(np.searchsorted(np.cumsum(sizes), first, side="right"))
    at = first - sum(sizes[:side])
    return side, int(sides[side][at]), int(deg[first]), float(lo[side]), float(hi[side])


def certify_bipartite_expander(view: BipartiteView, gamma: float, lam: float,
                               seed: int = 0):
    """Check the proportional cross-degree windows and the s2 bound.

    Cross-degrees of every vertex must be (1 +- gamma) * d * |other side| / n,
    n = |L u R| and d the parent's `mean_degree()` times n/N (refused without
    edges); s2 of G[L u R] at most lam. Returns the certificate, or the first violation.
    """
    if not view.left.size or not view.right.size:
        raise EmptySide("both sides must be nonempty")
    n, parent_n = len(view.left) + len(view.right), view.parent.n
    d = view.parent.mean_degree() * n / parent_n
    bad = window_violation((view.left, view.right), view.degrees(),
                           (d * len(view.right) / n, d * len(view.left) / n),
                           gamma, SPECTRAL_TOL)
    if bad is not None:
        _, v, deg, lo, hi = bad
        return BipartiteViolation(vertex=v, observed=float(deg), window=(lo, hi),
                                  reason="cross-degree outside window")
    s2 = view.s2(seed)
    if s2 > lam + SPECTRAL_TOL:
        return BipartiteViolation(vertex=-1, observed=s2, window=(0.0, lam),
                                  reason="s2 above bound")
    return BipartiteCertificate(n=n, d=d, gamma=gamma, lambda_bound=lam,
                                s2_observed=s2)


def read_graph(path) -> Graph:
    """Graph file format: "n m" header, then m lines "u v" with u < v.

    The header is read first, then chunks of 8 * CHUNK bytes extended to
    a line end, in whole-array passes; nothing is sized from m. A file
    whose edges are in range, with u < v and in strictly increasing order
    (as `write_graph` writes them), goes straight into CSR rows, one chunk
    at a time (`_upper_rows`). Any other file is read again as an edge
    array that the `Graph` constructor sorts and checks. A malformed header or
    line (not two non-negative integers of at most 18 digits), fewer or
    more than m edge lines, and an edge the `Graph` constructor rejects
    raise MalformedGraphFile naming the line: the first faulty line in
    file order, and an edge only once every line has the right shape.
    """
    edges = np.empty((0, 2), dtype=np.int64)
    with open(path, "rb") as f:
        n, m = _chunk_values(path, f.readline(), 1, 0, f).tolist()
        start = f.tell()
        if (rows := _upper_rows(n, _edge_values(path, f, m))) is None:
            f.seek(start)
            edges = np.concatenate([edges.ravel(), *_edge_values(path, f, m)]).reshape(-1, 2)
    read = len(edges) if rows is None else len(rows[1])
    if read < m:
        raise MalformedGraphFile(f"{path}: line {read + 2}: "
                                 f"the file ends after {read} of {m} edges")
    try:
        return Graph(n, edges) if rows is None else Graph._from_csr(n, *_full_rows(n, *rows))
    except ValueError as exc:
        bad = _first_invalid_edge(n, edges[:, 0], edges[:, 1])
        line, why = (1, exc) if bad is None else (bad[0] + 2, bad[1])
        raise MalformedGraphFile(f"{path}: line {line}: {why}") from None


def _edge_values(path, f, m: int):
    """The integers of each chunk (8 * CHUNK bytes extended to a line end)
    of the graph file `f`, from its position on, the first at line 2, by
    `_chunk_values`."""
    line = 2
    while chunk := f.read(8 * CHUNK) + f.readline():
        yield _chunk_values(path, chunk, line, m, f)
        line += chunk.count(b"\n")


def _upper_rows(n: int, chunks):
    """(indptr, upper) of a graph file's edge `chunks`, upper being the int32
    neighbours above each vertex in CSR order, if every edge has u < v < n
    and the keys u * n + v strictly increase within and across chunks;
    None at the first chunk that breaks this, or if n leaves int32. Each
    chunk is checked and converted on its own: each row's count is kept as
    a run (row, count), and all are summed into indptr at the end."""
    if not 0 <= n < 2 ** 31:
        return None
    columns, last = [np.empty(0, dtype=np.int32)], -1
    starts, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for values in chunks:
        u, v = values[0::2], values[1::2]
        if not u.size:
            continue
        if v.max() >= n or not (u < v).all():
            return None
        key = u * n + v
        if key[0] <= last or not (key[1:] > key[:-1]).all():
            return None
        last = key[-1]
        first = np.flatnonzero(np.diff(u, prepend=-1))   # u increases: runs of one row
        starts.append(u[first])
        counts.append(np.diff(first, append=len(u)))
        columns.append(v.astype(np.int32))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, np.concatenate(starts) + 1, np.concatenate(counts))
    return np.cumsum(indptr, out=indptr), np.concatenate(columns)


def _chunk_values(path, chunk: bytes, first: int, m: int, rest) -> np.ndarray:
    """The integers of a chunk of whole lines, from line `first`, of a
    graph file whose header says m edges: only digits and blanks, tokens
    of at most 18 digits, two on each of lines 1 to m + 1, none after. A
    chunk that fails is read again line by line to name its first faulty
    line; a blank edge line followed by blanks alone, in the chunk and in
    the file `rest`, ends the edges there."""
    chunk += b"" if chunk.endswith(b"\n") else b"\n"
    data = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.concatenate([[-1], np.flatnonzero(data == ord("\n"))])   # line i ends at ends[i + 1]
    k = min(max(m + 2 - first, 0), len(ends) - 1)   # lines that hold two integers
    digit = np.concatenate([[False], data >= ord("0"), [False]])   # once no junk
    starts, stops = np.flatnonzero(digit[1:] != digit[:-1]).reshape(-1, 2).T
    if (not chunk.translate(None, _DIGITS_AND_BLANKS) and len(starts) == 2 * k
            and (starts[::2] > ends[:k]).all() and (starts[1::2] < ends[1:k + 1]).all()
            and (stops - starts).max(initial=0) <= 18):
        return np.fromstring(chunk, dtype=np.int64, sep=" ")[:2 * k]  # a blank chunk reads as [0]
    lines = chunk.split(b"\n")
    for i, text in enumerate(lines[:-1], first):
        tokens, want = text.split(), 2 if i <= m + 1 else 0
        if text.translate(None, _DIGITS_AND_BLANKS):
            why = "not a non-negative integer"
        elif max(map(len, tokens), default=0) > 18:
            why = "integer too large"
        elif len(tokens) == want:
            continue
        elif (tokens or i == 1 or b"".join(lines[i - first + 1:]).strip(b" \t\r")
              or any(c.strip(b" \t\r\n") for c in iter(lambda: rest.read(8 * CHUNK), b""))):
            why = f"{len(tokens)} integers where {want} belong"
        else:   # only blanks follow: the edges end before line i
            return np.fromstring(b"\n".join(lines[:i - first]), np.int64, sep=" ")
        raise MalformedGraphFile(f"{path}: line {i}: {why}")


def _file_chunks(g: Graph):
    """The graph file: "n m", then one line "u v" per edge, u < v, in
    increasing order. Edge lines come about CHUNK at a time, gathered from
    a table of the decimals of 0..n-1 ended by " " (row u) or "\\n" (row
    n + v), each NUL-padded to one width, and the NULs dropped."""
    yield f"{g.n} {g.edge_count}\n".encode("ascii")
    table = np.char.add(np.arange(g.n).astype(f"S{len(str(g.n))}"), [[b" "], [b"\n"]])
    table, deg = table.view(np.uint8).reshape(2 * g.n, table.itemsize), g.degrees()
    step = max(1, 2 * CHUNK // max(1, int(deg.max(initial=0))))
    for a in range(0, g.n, step):
        rows = np.repeat(np.arange(a, min(a + step, g.n)), deg[a:a + step])
        pairs = np.column_stack([rows, g.indices[g.indptr[a]:g.indptr[a] + len(rows)]])
        lines = np.take(table, pairs[rows < pairs[:, 1]] + [0, g.n], axis=0)
        yield lines[lines != 0].tobytes()


def graph_file_bytes(g: Graph) -> bytes:
    return b"".join(_file_chunks(g))


def write_graph(g: Graph, path) -> None:
    with open(path, "wb") as f:
        f.writelines(_file_chunks(g))
