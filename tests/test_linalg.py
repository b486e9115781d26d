import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from expanderlab import graphs, hamilton, linalg
from expanderlab.errors import NegativeEntry, NoConvergence, NonFinite, ZeroLine

finite = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False, width=32)


def test_singular_values_match_dense_oracle_small():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(3, 30))
        a = rng.normal(size=(n, n))
        spec = linalg.singular_values_array(a, 2, seed=trial)
        dense = linalg.dense_singular_values(a)
        assert abs(spec.values[0] - dense[0]) < 1e-8
        assert abs(spec.values[1] - dense[1]) < 1e-8
    # Every k up to the full spectrum, on rectangular and square shapes.
    for trial, shape in enumerate([(1, 6), (7, 3), (12, 19), (19, 4), (9, 9)]):
        a = rng.normal(size=shape)
        dense = linalg.dense_singular_values(a)
        for k in range(1, min(shape) + 1):
            spec = linalg.singular_values_array(a, k, seed=trial)
            assert np.allclose(spec.values, dense[:k], atol=1e-8, rtol=0)


def test_singular_values_symmetric_input():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(40, 40))
    a = a + a.T
    spec = linalg.singular_values_array(a, 2, seed=1)
    dense = linalg.dense_singular_values(a)
    assert np.allclose(spec.values, dense[:2], atol=1e-8)


# Squaring A on the Gram route lost s2 = 5e-10 here and raised
# NoConvergence with residual 1.005e-8.
_TINY_S2 = np.full((6, 6), 1e-10)
_TINY_S2[0] = [0, 1, 1e-10, 1e-10, 1e-10, 1e-10]


@settings(max_examples=500, deadline=None)
@given(arrays(np.float64, (6, 6), elements=finite))
@example(_TINY_S2)
def test_singular_values_fuzz(a):
    if not np.any(a):
        a = a + np.eye(6)
    spec = linalg.singular_values_array(a, 2, seed=0)
    dense = linalg.dense_singular_values(a)
    assert abs(spec.values[0] - dense[0]) < 1e-7
    assert abs(spec.values[1] - dense[1]) < 1e-7


def test_degenerate_top_spectrum_converges():
    # Paley 2029 has eigenvalue -(1 + sqrt q)/2 with multiplicity 1014, so
    # by interlacing it keeps multiplicity >= 485 on 1500 vertices and is
    # exactly s2 there.
    members = np.sort(np.random.default_rng(0).permutation(2029)[:1500])
    sub = graphs.gen_paley(2029).adjacency_sparse()[np.ix_(members, members)]
    spec = linalg.singular_values_array(sub, 2, symmetric=True)
    assert abs(spec.values[1] - (1 + math.sqrt(2029)) / 2) < 1e-8


def test_non_symmetric_above_cutoff():
    a = np.random.default_rng(6).normal(size=(700, 650))
    assert min(a.shape) > linalg.DENSE_CUTOFF
    spec = linalg.singular_values_array(a, 2, seed=0)
    assert np.allclose(spec.values, np.linalg.svd(a, compute_uv=False)[:2],
                       atol=1e-8, rtol=0)


def test_large_k_above_cutoff():
    # Blocks of 25 vectors: a basis capped at BASIS_CAP = 60 would leave
    # no room to grow between thick restarts.
    a = np.random.default_rng(6).normal(size=(700, 650))
    spec = linalg.singular_values_array(a, 25, seed=0)
    assert np.allclose(spec.values, np.linalg.svd(a, compute_uv=False)[:25],
                       atol=1e-8, rtol=0)


@pytest.mark.parametrize("n", [linalg.DENSE_CUTOFF, linalg.DENSE_CUTOFF + 1])
def test_paths_agree_at_cutoff(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    a = a + a.T
    spec = linalg.singular_values_array(a, 2, seed=0)
    s2 = np.sort(np.abs(np.linalg.eigvalsh(a)))[-2]
    assert abs(spec.values[1] - s2) < 1e-9


def _symmetric(n, seed, scale=1.0):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return scale * (a + a.T)


def _paley_induced(q, m):
    members = np.sort(np.random.default_rng(q).permutation(q)[:m])
    return graphs.gen_paley(q).induced(members)[0].adjacency_dense().astype(float)


def _block_diagonal():
    # Two blocks with overlapping spectra: the tridiagonal form splits and
    # dstebz returns each end's eigenvalues block by block, unsorted.
    a = _symmetric(20, 1)
    return np.block([[a, np.zeros((20, 20))], [np.zeros((20, 20)), 0.9 * a]])


_EVR_CASES = {
    **{f"random-{n}": lambda n=n: _symmetric(n, n)
       for n in (5, 9, 30, 64, 100, 130, 150, 333, 600)},
    "paley401-induced-100": lambda: _paley_induced(401, 100),
    "paley1009-induced-504": lambda: _paley_induced(1009, 504),
    "split-tridiagonal": _block_diagonal,
    "tiny-entries": lambda: _symmetric(20, 2, 1e-150),
    "huge-entries": lambda: _symmetric(20, 2, 1e100),
}


@pytest.mark.parametrize("case", list(_EVR_CASES))
def test_spectrum_ends_bits_equal_two_evr_calls(case):
    # dormqr runs unblocked below about 130 rows and blocked above, and
    # dsyevr scales entries beyond about 1e-146 and 8e76: every side counts.
    a = _EVR_CASES[case]()
    m = a.shape[0]
    for k in (1, 2, 3):
        w, x = linalg._spectrum_ends(a, k)
        pairs = [sla.eigh(a, subset_by_index=r, driver="evr")
                 for r in ([0, k - 1], [m - k, m - 1])]
        assert np.array_equal(w, np.concatenate([p[0] for p in pairs]))
        assert np.array_equal(x, np.hstack([p[1] for p in pairs]))


def test_complete_graph_s2_is_one():
    # K21's tridiagonal form makes dstebz return info=2 for the top two
    # eigenvalues by index; the kernel then picks them from all of them.
    for n in range(2, 41):
        assert abs(graphs.gen_named("complete", n).s2(0) - 1.0) < 1e-8, n


@pytest.mark.parametrize("case", ["random-30", "split-tridiagonal"])
def test_spectrum_ends_after_dstebz_info_2(monkeypatch, case):
    # Force dstebz's info=2 on every index range: the retry over the whole
    # spectrum must pick the same eigenpairs, grouped by block for dstein.
    dstebz = linalg.lapack.dstebz

    def failing_index_range(d, e, range_, *args):
        found, w, iblock, isplit, info = dstebz(d, e, range_, *args)
        return (0, w, iblock, isplit, 2) if range_ == 3 else (found, w, iblock, isplit, info)

    a = _EVR_CASES[case]()
    m = a.shape[0]
    monkeypatch.setattr(linalg.lapack, "dstebz", failing_index_range)
    for k in (1, 2, 3):
        w, x = linalg._spectrum_ends(a, k)
        want = sla.eigvalsh(a)
        assert np.allclose(w, np.concatenate([want[:k], want[m - k:]]), atol=1e-10)
        assert np.allclose(a @ x, x * w, atol=1e-10)
        assert np.allclose(x.T @ x, np.eye(2 * k), atol=1e-10)


def test_lapack_failure_raises_no_convergence(monkeypatch):
    def failing_dstein(*args):
        return np.zeros((30, 2)), 1
    monkeypatch.setattr(linalg.lapack, "dstein", failing_dstein)
    with pytest.raises(NoConvergence, match="dstein"):
        linalg.singular_values_array(_symmetric(30, 0), 2, symmetric=True)


def test_dstebz_short_of_k_raises_no_convergence(monkeypatch):
    # dstebz reporting success with fewer eigenvalues than the index
    # range asks for must not pass as a spectrum.
    dstebz = linalg.lapack.dstebz

    def one_short(d, e, range_, *args):
        found, *rest = dstebz(d, e, range_, *args)
        return (found - 1, *rest) if range_ == 3 else (found, *rest)
    monkeypatch.setattr(linalg.lapack, "dstebz", one_short)
    with pytest.raises(NoConvergence, match="dstebz found 1 of the eigenvalues 1 to 2"):
        linalg._spectrum_ends(_symmetric(30, 0), 2)


def test_krylov_basis_spanning_every_dimension_raises():
    # On R^6 the basis closes after 6 products; a tolerance no residual
    # meets leaves no fresh direction to draw.
    a = _symmetric(6, 0)
    with pytest.raises(NoConvergence, match="spans all 6 dimensions"):
        linalg._block_lanczos(lambda y: a @ y, 6, 2, 1e-300, 0, absolute=True)


def _cap_products(monkeypatch):
    """A product cap below the 5 products that Paley 1009 needs."""
    monkeypatch.setattr(linalg, "PRODUCT_CAP", 4)


def _perturb_vectors(monkeypatch):
    """Krylov eigenvectors off by 1e-3 in their first entry."""
    kernel = linalg._block_lanczos

    def perturbed(*args, **kwargs):
        w, x = kernel(*args, **kwargs)
        x = x.copy()
        x[0] += 1e-3
        return w, x
    monkeypatch.setattr(linalg, "_block_lanczos", perturbed)


@pytest.mark.parametrize("fault, message", [
    (_cap_products, "stopped at 4 products"),
    (_perturb_vectors, "worst residual .* above tolerance")],
    ids=["product-cap", "perturbed-vector"])
def test_krylov_failures_raise_no_convergence(monkeypatch, fault, message):
    # Sparse input above DENSE_CUTOFF takes the Krylov kernel: its product
    # cap and a triple off its residual tolerance both raise NoConvergence,
    # and the pipeline reports that as a certification failure.
    g = graphs.gen_paley(1009)
    assert g.n > linalg.DENSE_CUTOFF
    fault(monkeypatch)
    with pytest.raises(NoConvergence, match=message):
        linalg.singular_values_array(g.adjacency_sparse(), 2, symmetric=True)
    result = hamilton.hamilton_pipeline(g)
    assert result.cycle is None
    assert result.trace.outcome == "failed:certification:NoConvergence"


def test_closed_basis_takes_fresh_rows(monkeypatch):
    # Paley 1009's Krylov space closes after 5 products. No Ritz pair can
    # meet a tolerance of 1e-30, so the kernel draws fresh rows and goes
    # on to the product cap instead of stopping (or looping) at 5.
    monkeypatch.setattr(linalg, "PRODUCT_CAP", 12)
    a = graphs.gen_paley(1009).adjacency_sparse()
    with pytest.raises(NoConvergence, match="stopped at 11 products"):
        linalg.singular_values_array(a, 2, tol=1e-30, symmetric=True)


@pytest.mark.parametrize("q", [1009, 2029])
def test_paley_certificate_takes_few_products(monkeypatch, q):
    # A Paley spectrum has three distinct values, so a block of two closes
    # its Krylov space after 2 + 2 + 1 products; the residual check adds 2.
    # Every product with A, on either route, goes through `_product`.
    products, make = [], linalg._product

    def counting(a, pattern):
        product = make(a, pattern)
        return lambda y: products.append(y.shape) or product(y)
    monkeypatch.setattr(linalg, "_product", counting)
    cert = graphs.certify_expander(graphs.gen_paley(q), seed=0)
    assert abs(cert.lambda_hat - (1 + math.sqrt(q)) / 2) < 1e-8
    assert products == [(q,)] * len(products) and 5 <= len(products) <= 8


@st.composite
def _patterns(draw):
    """0/1 CSR matrices with empty rows, full rows and rows of every length
    in between, as int8 or float64 ones."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    mask = draw(arrays(np.bool_, (rows, cols)))
    mask[draw(st.integers(0, rows - 1))] = draw(st.booleans())     # a full or empty row
    return sp.csr_matrix(mask, dtype=draw(st.sampled_from([np.int8, np.float64])))


@settings(max_examples=150, deadline=None)
@given(_patterns(), st.sampled_from([1, 3, linalg.PATTERN_PIECE]), st.integers(0, 2 ** 31))
def test_pattern_product_has_the_bits_of_the_float64_product(a, piece, seed):
    # Pieces of one or three entries cut inside and between rows; a row
    # longer than a piece is a piece of its own.
    old = linalg.PATTERN_PIECE
    linalg.PATTERN_PIECE = piece
    try:
        assert linalg._is_pattern(a)
        product = linalg._product(a, True)
        transposed = linalg._product(a.T, True)
    finally:
        linalg.PATTERN_PIECE = old
    rng = np.random.default_rng(seed)
    exact = a.astype(np.float64)
    for y in (rng.standard_normal(a.shape[1]), rng.standard_normal((a.shape[1], 2))[:, 1]):
        assert product(y).tobytes() == (exact @ y).tobytes()
    y = rng.standard_normal(a.shape[0])
    assert transposed(y).tobytes() == (exact.T @ y).tobytes()


def test_pattern_pieces_share_the_index_arrays(monkeypatch):
    # A row longer than a piece, empty rows, and pieces of several rows:
    # every piece reads a slice of A's own `indices` and the head of one
    # ones array no longer than the longest piece.
    monkeypatch.setattr(linalg, "PATTERN_PIECE", 3)
    mask = np.zeros((6, 8), dtype=bool)
    mask[1, :7] = mask[2, 2] = mask[4, [0, 5]] = mask[5, 3] = True
    a = sp.csr_array(mask.astype(np.int8))
    pieces = linalg._pattern_pieces(a)
    assert [p.shape[0] for p in pieces] == [1, 1, 3, 1]
    assert [p.nnz for p in pieces] == [0, 7, 3, 1]
    ones = pieces[0].data.base
    assert all(p.data.base is ones for p in pieces) and len(ones) == 7
    assert all(np.shares_memory(p.indices, a.indices) for p in pieces if p.nnz)
    y = np.arange(8.0)
    assert linalg._product(a, True)(y).tobytes() == (a.astype(float) @ y).tobytes()


@pytest.mark.parametrize("data", [[1, 1, 2], [1, 1, np.nan]], ids=["two", "nan"])
def test_an_entry_other_than_1_takes_the_plain_path(monkeypatch, data):
    a = sp.csr_matrix((np.array(data, dtype=float), [1, 0, 2], [0, 1, 2, 3]), shape=(3, 3))
    assert not linalg._is_pattern(a)
    assert not linalg._is_pattern(a.toarray()) and not linalg._is_pattern(a.tocsc())
    monkeypatch.setattr(linalg, "_pattern_pieces", None)     # never called
    if np.isnan(data[-1]):
        with pytest.raises(NonFinite):
            linalg.singular_values_array(a, 2, symmetric=False)
    else:
        spec = linalg.singular_values_array(a, 2, symmetric=False)
        assert np.allclose(spec.values, (2, 1), atol=1e-12, rtol=0)


@pytest.mark.parametrize("make, symmetric", [
    (lambda: graphs.gen_paley(1009).adjacency_sparse(), True),     # Krylov
    (lambda: graphs.gen_paley(401).adjacency_sparse(), True),      # LAPACK, sparse residuals
    (lambda: sp.random(700, 650, density=0.02, random_state=3, format="csr",
                       data_rvs=np.ones), False)], ids=["paley-1009", "paley-401", "rectangular"])
def test_pattern_route_gives_the_bits_of_the_float64_route(monkeypatch, make, symmetric):
    a = make()
    assert linalg._is_pattern(a)
    spec = linalg.singular_values_array(a, 2, seed=5, symmetric=symmetric)
    monkeypatch.setattr(linalg, "_is_pattern", lambda a: False)
    plain = linalg.singular_values_array(sp.csr_matrix(a, dtype=np.float64), 2, seed=5,
                                         symmetric=symmetric)
    assert spec == plain


def test_certificate_makes_no_float64_copy(paley1009):
    # The adjacency goes to the kernel as the graph's own int8 matrix; a
    # float64 copy alone would take 4 MB here.
    copy = 8 * len(paley1009.indices)
    tracemalloc.start()
    try:
        graphs.certify_expander(paley1009, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < copy / 4


def _disjoint_union(g, copies):
    rows = np.repeat(np.arange(g.n), g.degrees())
    edges = np.column_stack([rows, g.indices])[rows < g.indices]
    return graphs.Graph(g.n * copies, np.vstack([edges + i * g.n for i in range(copies)]))


def test_two_paley_1009_copies_give_lambda_d():
    # The top eigenvalue d = 504 has multiplicity 2: a block of two finds
    # both copies, so the certificate fails the gate as it should.
    g = _disjoint_union(graphs.gen_paley(1009), 2)
    for seed in range(3):
        assert abs(graphs.certify_expander(g, seed=seed).lambda_hat - 504) < 1e-8
    outcome = hamilton.hamilton_pipeline(g).trace.outcome
    assert outcome == "failed:certification:PreconditionViolated"


def test_three_paley_401_copies_give_top_values_d_d():
    g = _disjoint_union(graphs.gen_paley(401), 3)
    assert g.n > linalg.DENSE_CUTOFF
    spec = linalg.singular_values_array(g.adjacency_sparse(), 2, symmetric=True)
    assert np.allclose(spec.values, (200, 200), atol=1e-8, rtol=0)


def test_sparse_input_must_state_symmetry():
    a = graphs.gen_paley(13).adjacency_sparse()
    with pytest.raises(ValueError, match="symmetric"):
        linalg.singular_values_array(a, 2)


@pytest.mark.parametrize("n", [80, linalg.DENSE_CUTOFF + 50])
def test_stated_symmetric_matches_dense_oracle(n):
    # G(n, 0.1): sparse, symmetric, with a simple top eigenvalue near 0.1 n.
    upper = sp.triu(sp.random(n, n, density=0.1, random_state=n,
                              data_rvs=np.ones), k=1)
    a = (upper + upper.T).tocsr()
    want = np.sort(np.abs(np.linalg.eigvalsh(a.toarray())))[::-1][:2]
    for form in (a, a.toarray()):
        spec = linalg.singular_values_array(form, 2, seed=0, symmetric=True)
        assert np.allclose(spec.values, want, atol=1e-8, rtol=0)
        assert max(spec.residuals) <= spec.tolerance


def test_asymmetric_dense_unstated_takes_svd_route():
    # eigh reads one triangle only, so on this matrix it would report the
    # zero eigenvalues of its lower triangle instead of singular values.
    a = np.triu(np.arange(1.0, 26.0).reshape(5, 5), k=1)
    spec = linalg.singular_values_array(a, 2, seed=0)
    assert np.allclose(spec.values, np.linalg.svd(a, compute_uv=False)[:2],
                       atol=1e-9, rtol=0)


@pytest.mark.parametrize("k, tol, match", [
    (0, 1e-8, r"^k=0 out of range for a 3x4 matrix$"),
    (4, 1e-8, r"^k=4 out of range for a 3x4 matrix$"),
    (2, 0.0, r"^tol must be positive$"),
], ids=["k-0", "k-above-min-shape", "tol-0"])
def test_singular_values_reject_bad_k_and_tol(k, tol, match):
    with pytest.raises(ValueError, match=match):
        linalg.singular_values_array(np.ones((3, 4)), k, tol=tol)


def test_dense_oracle_refuses_large_input():
    with pytest.raises(ValueError, match="dense oracle capped at 64x64"):
        linalg.dense_singular_values(np.ones((linalg.DENSE_ORACLE_CAP + 1, 1)))


def test_non_finite_rejected():
    a = np.ones((3, 3))
    a[1, 1] = np.nan
    with pytest.raises(NonFinite):
        linalg.singular_values_array(a, 2)


def test_norm_bundle_against_numpy():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(15, 12))
    bundle = linalg.norm_bundle_array(a, seed=0)
    assert abs(bundle.operator - np.linalg.norm(a, 2)) < 1e-8
    # max column 2-norm and its transpose counterpart
    assert abs(bundle.one_to_two
               - np.sqrt((a * a).sum(axis=0)).max()) < 1e-12
    assert abs(bundle.one_to_two_transpose
               - np.sqrt((a * a).sum(axis=1)).max()) < 1e-12
    assert abs(bundle.max_abs - np.abs(a).max()) < 1e-12


def test_normalize_regular_graph_is_adjacency_over_d():
    g = graphs.gen_paley(13)
    a = g.adjacency_dense().astype(float)
    bar, left, right = linalg.normalize_array(a)
    assert np.allclose(bar, a / 6)


def test_interlacing_random_submatrices():
    # s_i(M[R, C]) <= s_i(M) for every i up to min(|R|, |C|): the inequality
    # (Thompson 1972) the pipeline uses to bound s2 of every induced subgraph.
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(4, 20))
        m = rng.normal(size=(n, n))
        rows = np.sort(rng.permutation(n)[:int(rng.integers(1, n))])
        cols = np.sort(rng.permutation(n)[:int(rng.integers(1, n))])
        k = min(len(rows), len(cols))
        s_sub = linalg.singular_values_array(m[np.ix_(rows, cols)], k,
                                             tol=linalg.NORM_TOL,
                                             seed=trial).values
        s_full = linalg.singular_values_array(m, k, tol=linalg.NORM_TOL,
                                              seed=trial).values
        assert np.all(np.asarray(s_sub) <= np.asarray(s_full)
                      + linalg.DEFAULT_TOL)


def test_normalize_rejects_zero_line():
    a = np.ones((3, 3))
    a[1, :] = 0
    with pytest.raises(ZeroLine, match="^row 1 sums to zero$"):
        linalg.normalize_array(a)
    b = np.ones((3, 3))
    b[:, 2] = 0
    with pytest.raises(ZeroLine, match="^column 2 sums to zero$"):
        linalg.normalize_array(b)


def test_normalize_rejects_negative_entry():
    a = np.ones((3, 3))
    a[2, 0] = -0.5
    with pytest.raises(NegativeEntry):
        linalg.normalize_array(a)


def test_matrix_io_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(7, 5))
    path = tmp_path / "m.txt"
    np.savetxt(path, m, header=f"{m.shape[0]} {m.shape[1]}", comments="")
    back = linalg.read_matrix(path)
    assert np.array_equal(m, back)


def test_read_matrix_entry_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2 3\n")
    with pytest.raises(ValueError):
        linalg.read_matrix(path)
    path.write_text("2\n")
    with pytest.raises(ValueError, match="^matrix file missing header$"):
        linalg.read_matrix(path)


def test_read_matrix_names_a_bad_entry(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 x\n3 4\n")
    with pytest.raises(ValueError, match=r'^matrix entry 2 \("x"\) is not a number$'):
        linalg.read_matrix(path)


def test_operator_norm_matches_dense():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(20, 20))
    assert abs(linalg.operator_norm(a) - np.linalg.norm(a, 2)) < 1e-7
    assert linalg.operator_norm(np.zeros((0, 3))) == 0.0
