"""Linear-algebra kernels on plain dense or sparse matrices.

Singular values, matrix norms, line-sum normalization and reading matrix
files. Every spectrum in the package comes from one kernel,
`singular_values_array`: LAPACK up to DENSE_CUTOFF, and above it one
block Lanczos routine on A if symmetric, else on [[0, A], [A^T, 0]],
with a seeded start block, one product with A per vector, and a stop at
the first block whose k wanted Ritz pairs meet `tol`. Dense symmetric
input takes the k lowest and the k highest eigenpairs from one
tridiagonal reduction (dsyevr's own steps, the same bits as two
index-range `eigh` calls), or one full `eigh` once 2k reaches the
dimension; other dense input takes `svd`. A nonzero LAPACK status
(dstebz's info=2 after its documented cure) raises `NoConvergence`
naming the routine, as does a Krylov run that would pass PRODUCT_CAP.
Callers state symmetry (graph adjacencies are symmetric by
construction); only dense input that states nothing is tested for it.
Sparse input whose stored entries are all 1 (a graph's int8 adjacency)
is multiplied as its pattern: float64 row pieces of at most
PATTERN_PIECE entries over its own index arrays and one shared ones
array, so no float64 copy of the matrix is made, and every product has
the bits of the float64 CSR product.
The residuals ||A v - s u|| and, if A is not symmetric, ||A^T u - s v||
of the computed triples must stay within `tol`. `dense_singular_values`
is the independent test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
import scipy.sparse as sp

from .errors import NoConvergence, NonFinite, NegativeEntry, ZeroLine
from .rng import generator

DEFAULT_TOL = 1e-9
NORM_TOL = 1e-8     # kernel tolerance of `operator_norm`
ZERO_SNAP = 1e-10
DENSE_ORACLE_CAP = 64
# Largest min(rows, cols) solved by LAPACK. With one BLAS thread, the
# one-reduction LAPACK route takes 17-21 ms on a 504-vertex induced
# subgraph of Paley 1009, where the clustered top spectrum holds the
# Krylov kernel for 0.28 s; on all of Paley 1009 the Krylov kernel takes
# 5 ms and LAPACK 105 ms.
DENSE_CUTOFF = 600
# The Krylov kernel restarts a basis that would outgrow BASIS_CAP vectors
# (6k for k above 10), and raises NoConvergence rather than pass
# PRODUCT_CAP products (each one vector times A); the hardest graph
# measured, a union of 80 permutations of Z_20000, takes about 600.
BASIS_CAP = 60
PRODUCT_CAP = 10_000
# Stored entries per row piece of a 0/1 sparse matrix (a longer row is a
# piece of its own); the pieces share one float64 ones array of that length.
PATTERN_PIECE = 1 << 16


@dataclass(frozen=True)
class SingularSpectrum:
    """Top singular values, nonincreasing, with the residual of each triple."""

    values: tuple
    residuals: tuple
    tolerance: float


@dataclass(frozen=True)
class NormBundle:
    operator: float          # largest singular value
    one_to_two: float        # max column l2 norm
    one_to_two_transpose: float  # max row l2 norm
    max_abs: float           # max |entry|


def _check_finite(a) -> None:
    data = a.data if sp.issparse(a) else a
    if not np.all(np.isfinite(data)):
        raise NonFinite("matrix has NaN/Inf entries")


def _is_pattern(a) -> bool:
    """Whether `a` is a CSR matrix with every stored entry 1 (so finite
    too), in one pass over its entries, PATTERN_PIECE at a time. (Other
    formats may sum repeated entries when converted.)"""
    return (sp.issparse(a) and a.format == "csr"
            and all((a.data[i:i + PATTERN_PIECE] == 1).all()
                    for i in range(0, len(a.data), PATTERN_PIECE)))


def _pattern_pieces(a) -> list:
    """A sparse A whose stored entries are all 1 as float64 CSR pieces.

    A's CSR rows (A^T of a pattern is converted keeping repeats) are cut
    into pieces of at most PATTERN_PIECE entries, at least one row each.
    A piece is a float64 CSR over a slice of A's own `indices`, its
    `indptr` slice less the piece's first offset, and the head of one
    shared ones array. Its arrays are set on an empty matrix: scipy's
    constructor would copy an index slice under half its base.
    """
    a = a.tocsr()
    offsets, bounds = a.indptr.astype(np.int64), [0]
    while bounds[-1] < a.shape[0]:
        lo = bounds[-1]
        end = np.searchsorted(offsets, offsets[lo] + PATTERN_PIECE, side="right") - 1
        bounds.append(max(lo + 1, int(end)))
    spans = list(zip(bounds, bounds[1:]))
    ones = np.ones(max(offsets[hi] - offsets[lo] for lo, hi in spans))
    pieces = []
    for lo, hi in spans:
        piece = sp.csr_matrix((hi - lo, a.shape[1]))
        start, stop = a.indptr[lo], a.indptr[hi]
        piece.indptr, piece.indices = a.indptr[lo:hi + 1] - start, a.indices[start:stop]
        piece.data = ones[:stop - start]
        pieces.append(piece)
    return pieces


def _product(a, pattern: bool):
    """y -> A y, every product with A in one place: over `_pattern_pieces(a)`
    if A is a 0/1 `pattern` (each row sums the same terms in the same order
    as a float64 copy of A would), else `a @ y`."""
    if not pattern:
        return lambda y: a @ y
    pieces = _pattern_pieces(a)

    def product(y):
        y = np.ascontiguousarray(y)     # once, not once per piece
        return np.concatenate([piece @ y for piece in pieces])
    return product


def _dense(a) -> np.ndarray:
    return np.asarray(a.toarray() if sp.issparse(a) else a, dtype=float)


def _eigen_triples(w, x, k: int):
    """(s, u, v) = (|w|, sign(w) x, x) for the k eigenpairs of largest |w|."""
    order = np.argsort(-np.abs(w))[:k]
    w, x = w[order], x[:, order]
    return np.abs(w), x * np.where(w < 0, -1.0, 1.0), x


def _lapack_status(routine: str, info: int) -> None:
    if info:
        raise NoConvergence(f"LAPACK {routine} returned info={info}")


def _spectrum_ends(dense: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest, then the k highest eigenpairs of a symmetric matrix,
    read from its lower triangle.

    These are dsyevr's steps for an index range (scale, dsytrd, dstebz,
    dstein, back-transform, sort), with one tridiagonal reduction shared
    by both ends, so the bits equal those of two `sla.eigh(dense,
    subset_by_index=..., driver="evr")` calls. dsyevr's back-transform
    dormtr is dormqr on the reflectors below the subdiagonal. Each end
    gets its own dormqr call with dsyevr's workspace: below about 130
    rows that call runs unblocked, and its bits then depend on how many
    columns it transforms.
    """
    m = dense.shape[0]
    lwork = int(lapack.dsyevr_lwork(m, lower=1)[0])
    # dsyevr scales a matrix whose largest |entry| lies outside [rmin, rmax]
    # (its other candidate for rmax, sqrt(eps / tiny), is larger in double);
    # for a symmetric matrix that of the whole equals that of its triangle.
    tiny = np.finfo(float).tiny
    rmin = np.sqrt(tiny / np.finfo(float).eps)
    rmax = 1.0 / np.sqrt(np.sqrt(tiny))
    anrm = max(dense.max(), -dense.min())
    sigma = 1.0
    if 0 < anrm < rmin:
        sigma = rmin / anrm
    elif anrm > rmax:
        sigma = rmax / anrm
    c, d, e, tau, info = lapack.dsytrd(dense * sigma if sigma != 1.0 else dense,
                                       lower=1, lwork=lwork - 5 * m)
    _lapack_status("dsytrd", info)
    reflectors = np.asfortranarray(c[1:, :-1])   # one copy for both dormqr calls
    ws, xs = [], []
    for il, iu in ((1, k), (m - k + 1, m)):
        found, w, iblock, isplit, info = lapack.dstebz(
            d, e, 3, 0.0, 0.0, il, iu, 0.0, b"B")
        if info == 2:   # dstebz's cure (K21 needs it): all, then pick il..iu
            _, w, iblock, isplit, info = lapack.dstebz(d, e, 0, 0.0, 0.0, 0, 0, 0.0, b"E")
            picked = il - 1 + np.argsort(iblock[il - 1:iu], kind="stable")  # by block
            found, w, iblock = k, w[picked], np.resize(iblock[picked], m)
        _lapack_status("dstebz", info)
        if found < k:
            raise NoConvergence(f"LAPACK dstebz found {found} of the "
                                f"eigenvalues {il} to {iu}")
        w = w[:found]
        z, info = lapack.dstein(d, e, w, iblock, isplit)
        _lapack_status("dstein", info)
        cq, _, info = lapack.dormqr(b"L", b"N", reflectors, tau, z[1:],
                                    lwork - 2 * m)
        _lapack_status("dormqr", info)
        x = np.vstack([z[:1], cq])
        w = w * (1.0 / sigma)
        # dsyevr's selection sort: dstebz orders eigenvalues block by block
        # when the tridiagonal matrix splits.
        for j in range(found - 1):
            i = j + 1 + int(np.argmin(w[j + 1:]))
            if w[i] < w[j]:
                w[[i, j]], x[:, [i, j]] = w[[j, i]], x[:, [j, i]]
        ws.append(w)
        xs.append(x)
    return np.concatenate(ws), np.hstack(xs)


def _orthonormalize(rows: np.ndarray, q: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """Orthonormalize `rows` against the basis q[:m], then each against
    the rows kept before it, storing the kept rows in q from row m on.
    Returns (c, kept): c[:, j] = q[:m] @ rows[j], summed over the two
    passes against the basis, and the number of rows kept.

    A projection that cancels more than 1 - 1/sqrt(2) of a row's norm
    leaves the row short of orthogonal (the DGKS test ARPACK uses), so
    the basis pass runs twice and an in-block pass that cancels is
    repeated against the whole span. A row whose last pass still cancels
    that much, or whose norm falls within dim * eps of the norm it came
    with (the rank tolerance of numpy's `matrix_rank`), is numerically
    in the span and dropped.
    """
    basis = q[:m]
    floor = q.shape[1] * np.finfo(float).eps * np.linalg.norm(rows, axis=1)
    c = np.zeros((m, len(rows)))
    norms = []
    for _ in range(2):
        s = basis @ rows.T
        rows = rows - s.T @ basis
        c += s
        norms.append(np.linalg.norm(rows, axis=1))
    kept = 0
    for r, first, second, least in zip(rows, *norms, floor):
        if second > first / np.sqrt(2.0):
            block = q[m:m + kept]
            r = r - (block @ r) @ block
            first, second = second, np.linalg.norm(r)
            if second <= first / np.sqrt(2.0):
                span = q[:m + kept]
                r = r - (span @ r) @ span
                first, second = second, np.linalg.norm(r)
        if second > max(first / np.sqrt(2.0), least):
            q[m + kept] = r / second
            kept += 1
    return c, kept


def _block_lanczos(product, dim: int, k: int, tol: float, seed: int, *,
                   absolute: bool) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs (w, x) of largest |w| (`absolute`) or largest w of
    the symmetric operator `product` on R^dim, each with ||A x - w x||
    within tol / 2.

    Block Lanczos with block size k (Golub & Underwood 1977) and full
    reorthogonalization: the basis rows Q and W = A Q are kept, the
    Gram-Schmidt coefficients of each new block's products are its
    columns of H = Q^T A Q, and each Ritz residual ||W y - w Q y|| is
    computed explicitly after every block. A basis that closes before
    converging takes fresh seeded random rows; one that would outgrow
    BASIS_CAP restarts thick from its best Ritz vectors (Wu & Simon
    2000); PRODUCT_CAP products raise NoConvergence. Deterministic for a
    fixed seed: every random row comes from one Philox stream.
    """
    cap = max(BASIS_CAP, 6 * k)     # a restart keeps cap // 2; a cycle adds 3 blocks or more
    rng = generator(seed, "lanczos-start", dim)
    q, w = np.empty((k, dim)), np.empty((k, dim))   # grown as they are used
    h = np.zeros((cap, cap))
    _, b = _orthonormalize(rng.standard_normal((k, dim)), q, 0)
    m = products = 0    # rows of Q with products, then b pending rows
    worst = np.inf
    while True:
        if b == 0:
            _, b = _orthonormalize(rng.standard_normal((k, dim)), q, m)
            if b == 0:
                raise NoConvergence(f"Krylov basis spans all {dim} dimensions "
                                    f"with worst Ritz residual {worst:.3e}")
        if m + b > cap:
            keep = cap // 2
            q[:keep], q[keep:keep + b] = y[:, :keep].T @ q[:m], q[m:m + b]
            w[:keep] = y[:, :keep].T @ w[:m]
            h[:keep, :keep] = np.diag(theta[:keep])
            m = keep
        if products + b > PRODUCT_CAP:
            raise NoConvergence(f"Krylov kernel stopped at {products} products "
                                f"with worst Ritz residual {worst:.3e} above "
                                f"{tol / 2:.3e}")
        if len(q) < m + b + k:
            size = min(max(2 * len(q), m + b + k), cap + k)
            q, w = (np.concatenate([rows, np.empty((size - len(rows), dim))])
                    for rows in (q, w))
        for i in range(m, m + b):
            w[i] = product(q[i])
        products += b
        c, pending = _orthonormalize(w[m:m + b], q, m + b)
        h[:m + b, m:m + b] = c
        h[m:m + b, :m + b] = c.T
        m, b = m + b, pending
        theta, y = np.linalg.eigh(h[:m, :m])
        order = np.argsort(-np.abs(theta) if absolute else -theta, kind="stable")
        theta, y = theta[order], y[:, order]
        if m >= k:
            x = y[:, :k].T @ q[:m]
            worst = np.linalg.norm(y[:, :k].T @ w[:m] - theta[:k, None] * x,
                                   axis=1).max()
            # tol / 2: the final check's residual for [[0, A], [A^T, 0]]
            # is up to sqrt(2) times this one.
            if worst <= tol / 2:
                return theta[:k], x.T


def singular_values_array(a, k: int, tol: float = DEFAULT_TOL,
                          seed: int = 0, *, symmetric: bool | None = None
                          ) -> SingularSpectrum:
    """Top-k singular values of a dense or sparse matrix, with the
    residuals of their singular triples.

    `symmetric` states whether A = A^T and is trusted. Sparse input must
    state it; for dense input None means test it to 1e-14. Every product
    with A (and A^T) goes through `_product`.
    Deterministic for a fixed seed: above DENSE_CUTOFF every random
    vector of the Krylov kernel is drawn from a Philox stream derived
    from `seed`.
    """
    if not (pattern := _is_pattern(a)):
        _check_finite(a)
    m, n = a.shape
    if not (1 <= k <= min(m, n)):
        raise ValueError(f"k={k} out of range for a {m}x{n} matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if symmetric is None:
        if sp.issparse(a):
            raise ValueError("sparse input must state symmetric=True or False")
        symmetric = m == n and np.allclose(a, a.T, atol=1e-14, rtol=0.0)
    product = _product(a, pattern)
    product_t = product if symmetric else _product(a.T, pattern)
    if min(m, n) <= DENSE_CUTOFF or 2 * k >= min(m, n):
        dense = _dense(a)
        if symmetric:
            # The top k |eigenvalues| are among the k lowest and k highest.
            w, x = (_spectrum_ends(dense, k) if 2 * k < m
                    else sla.eigh(dense, driver="evr"))
            vals, u, v = _eigen_triples(w, x, k)
        else:
            u, vals, vt = np.linalg.svd(dense, full_matrices=False)
            u, vals, v = u[:, :k], vals[:k], vt[:k].T
    else:
        if symmetric:
            w, x = _block_lanczos(product, n, k, tol, seed, absolute=True)
        else:   # [[0, A], [A^T, 0]] has the eigenvalues +-s_i, and zeros
            w, x = _block_lanczos(
                lambda y: np.concatenate([product(y[m:]), product_t(y[:m])]), m + n, k,
                tol, seed, absolute=False)
        vals, u, v = _eigen_triples(w, x, k)
        if not symmetric:
            # v = [u; v] / sqrt(2) for the eigenvalue s of [[0, A], [A^T, 0]].
            u, v = np.sqrt(2.0) * v[:m], np.sqrt(2.0) * v[m:]
    # One product per column, as the Krylov kernel makes them.
    residuals = np.array([np.linalg.norm(product(v[:, j]) - u[:, j] * vals[j])
                          for j in range(k)])
    if not symmetric:   # for symmetric A, ||A^T u - s v|| is the same number
        residuals = np.maximum(residuals, [np.linalg.norm(product_t(u[:, j]) - v[:, j] * vals[j])
                                           for j in range(k)])
    vals = np.where(vals < ZERO_SNAP, 0.0, vals)
    if residuals.max() > tol:
        raise NoConvergence(
            f"worst residual {residuals.max():.3e} above tolerance {tol:.3e}")
    return SingularSpectrum(values=tuple(float(s) for s in vals),
                            residuals=tuple(float(r) for r in residuals),
                            tolerance=tol)


def dense_singular_values(a) -> np.ndarray:
    """Brute-force oracle: full LAPACK SVD, for small matrices only."""
    a = _dense(a)
    if max(a.shape) > DENSE_ORACLE_CAP:
        raise ValueError(f"dense oracle capped at {DENSE_ORACLE_CAP}x"
                         f"{DENSE_ORACLE_CAP}, got {a.shape}")
    _check_finite(a)
    return np.linalg.svd(a, compute_uv=False)


def operator_norm(a, seed: int = 0) -> float:
    """Largest singular value, from the kernel."""
    if min(a.shape) == 0:
        return 0.0
    return singular_values_array(a, 1, tol=NORM_TOL, seed=seed).values[0]


def norm_bundle_array(a, seed: int = 0) -> NormBundle:
    _check_finite(a)
    dense = _dense(a)
    col = float(np.sqrt((dense ** 2).sum(axis=0).max())) if dense.size else 0.0
    row = float(np.sqrt((dense ** 2).sum(axis=1).max())) if dense.size else 0.0
    mx = float(np.abs(dense).max()) if dense.size else 0.0
    op = operator_norm(dense, seed=seed)
    # Guard the bundle ordering against iterative round-off.
    op = max(op, col, row)
    return NormBundle(operator=op, one_to_two=col,
                      one_to_two_transpose=row, max_abs=mx)


def normalize_array(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (L^{-1/2} A R^{-1/2}, row_sums, col_sums) for nonnegative A."""
    _check_finite(a)
    dense = _dense(a)
    if dense.min(initial=0.0) < 0:
        raise NegativeEntry("normalization requires nonnegative entries")
    row_sums = dense.sum(axis=1)
    col_sums = dense.sum(axis=0)
    if np.any(row_sums <= 0):
        raise ZeroLine(f"row {int(np.argmin(row_sums))} sums to zero")
    if np.any(col_sums <= 0):
        raise ZeroLine(f"column {int(np.argmin(col_sums))} sums to zero")
    bar = dense / np.sqrt(np.outer(row_sums, col_sums))
    return bar, row_sums, col_sums


def read_matrix(path) -> np.ndarray:
    """Matrix text format: first line "rows cols", then row-major reals."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("matrix file missing header")
    header = f"matrix header \"{tokens[0]} {tokens[1]}\""
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(f"{header}: both dimensions must be integers") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{header}: both dimensions must be at least 1")
    vals = []
    for i, token in enumerate(tokens[2:], start=1):
        try:
            vals.append(float(token))
        except ValueError:
            raise ValueError(f"matrix entry {i} (\"{token}\") is not a number"
                             ) from None
    if len(vals) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {len(vals)}")
    a = np.array(vals).reshape(rows, cols)  # always 2-D
    _check_finite(a)
    return a
