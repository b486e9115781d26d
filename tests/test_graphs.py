import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from expanderlab import extend, graphs, linalg, matching, mixing
from expanderlab.errors import (BadResidueClass, EmptySide, IsolatedVertex,
                                MalformedGraphFile, NotPrime, ParityViolation,
                                RetryExhausted, UnknownName)


def test_paley_13_shape(paley13):
    assert paley13.n == 13
    assert paley13.edge_count == 39
    assert repr(paley13) == "Graph(n=13, m=39)"
    assert all(paley13.degree(v) == 6 for v in range(13))


def test_paley_second_singular_value_closed_form(paley13):
    spec = linalg.singular_values_array(paley13.adjacency_sparse(), 2, seed=0,
                                        symmetric=True)
    assert abs(spec.values[1] - (1 + math.sqrt(13)) / 2) < 1e-8


def test_paley_rejects_bad_modulus():
    with pytest.raises(BadResidueClass):
        graphs.gen_paley(7)          # 7 ≡ 3 (mod 4)
    with pytest.raises(NotPrime):
        graphs.gen_paley(25)


def test_random_regular_is_regular():
    g = graphs.gen_random_regular(30, 4, seed=3)
    assert all(g.degree(v) == 4 for v in range(30))
    assert g.edge_count == 30 * 4 // 2
    assert graphs.gen_random_regular(6, 0, seed=0) == graphs.Graph(6, [])


def test_random_regular_parity():
    with pytest.raises(ParityViolation):
        graphs.gen_random_regular(7, 3, seed=0)


def test_named_families(petersen):
    assert petersen.n == 10 and petersen.edge_count == 15
    c6 = graphs.gen_named("cycle", 6)
    assert all(c6.degree(v) == 2 for v in range(6))
    k5 = graphs.gen_named("complete", 5)
    assert k5.edge_count == 10
    kb = graphs.gen_named("complete_bipartite", 8)
    assert kb.n == 8 and kb.edge_count == 16
    with pytest.raises(UnknownName):
        graphs.gen_named("hypercube", 8)


@pytest.mark.parametrize("call, error, match", [
    (lambda: graphs.Graph(3, [(0, 1, 2)]), ValueError, r"edges must be \(u, v\) pairs"),
    (lambda: graphs.Graph(4001, []).adjacency_dense(), ValueError, "densify cap is 4000"),
    (lambda: graphs.gen_random_regular(5, 5, seed=0), ValueError, "need d < n"),
    # whole-pairing rejection: a simple 8-regular pairing on 200 vertices is rare
    (lambda: graphs.gen_random_regular(200, 8, seed=0), RetryExhausted,
     "after 160000 stub draws"),
    (lambda: graphs.gen_named("cycle"), UnknownName, "needs a size argument"),
    (lambda: graphs.gen_named("cycle", 2), ValueError, "n >= 3"),
    (lambda: graphs.gen_named("complete_bipartite", 7), ValueError, "two equal sides"),
], ids=["edge-triple", "densify-cap", "regular-d-at-n", "regular-retries",
        "named-no-size", "cycle-2", "complete-bipartite-odd"])
def test_graph_inputs_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("make", [
    lambda: graphs.gen_paley(65537),              # 2,147,516,416 entries
    lambda: graphs.gen_paley(2 ** 89 - 1),        # a prime, rejected before trial division
    lambda: graphs.gen_named("complete", 46342),
    lambda: graphs.gen_named("complete_bipartite", 65536),
    lambda: graphs.gen_named("cycle", 2 ** 30),
    lambda: graphs.gen_random_regular(2 ** 20, 2 ** 11, seed=0),
], ids=["paley-65537", "paley-2^89-1", "complete", "complete-bipartite", "cycle",
        "random-regular"])
def test_generators_fail_fast_past_int32(make):
    # Each would allocate gigabytes (or, for the prime, divide for hours)
    # before Graph could reject it.
    with pytest.raises(ValueError, match="adjacency entries overflow int32"):
        make()


def test_paley_65521_passes_the_size_check(monkeypatch):
    check, seen = graphs._check_size, []

    def stop(n, entries):
        seen.append((n, entries))
        raise LookupError       # before gen_paley allocates its 8 GB table

    monkeypatch.setattr(graphs, "_check_size", stop)
    with pytest.raises(LookupError):
        graphs.gen_paley(65521)
    assert seen == [(65521, 65521 * 65520 // 2)]
    check(*seen[0])


def test_certificate_roundtrip(cert13):
    assert cert13.n == 13 and cert13.d == 6 and cert13.gamma_hat == 0
    assert abs(cert13.lambda_hat - (1 + math.sqrt(13)) / 2) < 1e-6
    record = dataclasses.asdict(cert13)
    assert json.loads(json.dumps(record)) == record


def test_certify_rejects_isolated_vertex():
    g = graphs.Graph(4, [(0, 1), (1, 2)])
    with pytest.raises(IsolatedVertex, match="vertex 3 is isolated"):
        graphs.certify_expander(g)


def test_mean_degree_from_the_edge_count_is_the_certificates(paley1009, cert1009):
    # A vertex pair's d is its parent's 2m/n; the path cover's lambda
    # precondition repeats the certification gate only if that is cert.d
    rng = np.random.default_rng(0)
    gnp = [graphs.Graph(n, np.argwhere(np.triu(rng.random((n, n)) < 0.5, k=1)))
           for n in range(10, 297, 19)]
    for g in [graphs.gen_paley(2029), *gnp]:
        assert 2 * g.edge_count / g.n == graphs.certify_expander(g).d
    assert 2 * paley1009.edge_count / paley1009.n == cert1009.d


def test_graph_io_roundtrip(tmp_path, petersen):
    path = tmp_path / "g.txt"
    graphs.write_graph(petersen, path)
    back = graphs.read_graph(path)
    assert back == petersen


@pytest.mark.parametrize("chunk", [1, 3])
def test_graph_file_across_chunk_boundaries(monkeypatch, tmp_path, paley101, chunk):
    # Chunks of a line or three put every line next to a chunk boundary:
    # the bytes, the graph read back and the line a fault names stay
    # those of one chunk.
    whole = graphs.graph_file_bytes(paley101)
    lines = whole.splitlines(keepends=True)
    monkeypatch.setattr(graphs, "CHUNK", chunk)
    path = tmp_path / "g.txt"
    assert graphs.graph_file_bytes(paley101) == whole
    graphs.write_graph(paley101, path)
    assert path.read_bytes() == whole
    assert graphs.read_graph(path) == paley101
    path.write_bytes(whole + b"\n \n\t\r\n")     # blank lines after the edges
    assert graphs.read_graph(path) == paley101
    path.write_bytes(b"".join(lines[:9] + [lines[10], lines[9]] + lines[11:]))
    assert graphs.read_graph(path) == paley101      # unsorted edges
    for text, why in [
            (lines[:500] + [b"7 x\n"] + lines[501:], "line 501: not a non-negative"),
            (lines[:-1] + [b"\n", b" \n"] * 40, "line 2526: the file ends after 2524 of"),
            (lines[:-1] + [b"\n"] * 40 + [b"x\n"], "line 2526: 0 integers where 2 belong"),
            (lines + [b"\n"] * 40 + [b"1 2\n"], "line 2567: 2 integers where 0 belong"),
            (lines[:10] + [lines[9]] + lines[11:], "line 11: duplicate edge")]:
        path.write_bytes(b"".join(text))
        with pytest.raises(MalformedGraphFile, match=why):
            graphs.read_graph(path)


def test_hostile_edge_count_sizes_nothing(tmp_path):
    # A header claiming two billion edges over one edge line: under a
    # 1 GB address space, where an array of m rows cannot be made, the
    # reader still reaches the truncation.
    path = tmp_path / "hostile.txt"
    path.write_text("3 2000000000\n0 1\n")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from expanderlab import graphs\n"
            "try:\n    np.empty((2000000000, 2), dtype=np.int32)\n"
            "except MemoryError:\n    print('no room for m rows')\n"
            "try:\n    graphs.read_graph(sys.argv[1])\n"
            "except graphs.MalformedGraphFile as exc:\n    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code, str(path)], check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == [
        "no room for m rows",
        f"{path}: line 3: the file ends after 1 of 2000000000 edges"]


@pytest.mark.parametrize("edges, why", [
    ([(2, 3), (0, 1), (3, 2), (1, 1)], r"duplicate edge \(2, 3\)"),
    ([(2, 3), (1, 1), (3, 2)], "self-loop at 1"),
    ([(3, 2), (0, 4), (1, 1)], r"edge \(0,4\) out of range"),
    ([(1, 0), (0, 2), (0, 1)], r"duplicate edge \(0, 1\)"),
    ([(0, 1), (0, 2), (1, 3), (1, 2), (0, 2)], r"duplicate edge \(0, 2\)")])
def test_constructor_names_first_invalid_edge_in_input_order(edges, why):
    with pytest.raises(ValueError, match=why):
        graphs.Graph(4, edges)


vertex_lists = st.lists(st.integers(0, 50), max_size=30)
vertex_sets = st.one_of(
    vertex_lists, vertex_lists.map(sorted), vertex_lists.map(lambda v: sorted(set(v))),
    arrays(np.int64, st.integers(0, 30), elements=st.integers(0, 50)),
    arrays(np.int64, st.integers(0, 30), elements=st.integers(0, 50), unique=True).map(np.sort),
    arrays(np.int32, st.integers(0, 30), elements=st.integers(0, 50), unique=True).map(np.sort),
    arrays(np.int64, (), elements=st.integers(0, 50)),
    arrays(np.int64, st.tuples(st.integers(0, 5), st.integers(0, 5)),
           elements=st.integers(0, 50)))


@settings(max_examples=200, deadline=None)
@given(vertex_sets, st.integers(51, 64))
def test_vertex_array_equals_unique(vertices, n):
    # lists and arrays: sorted or not, repeated or distinct, empty, 0-d, 2-D
    out = graphs.vertex_array(vertices, n)
    assert out.dtype == np.int64 and out.ndim == 1
    assert out.tolist() == np.unique(vertices).tolist()


@settings(max_examples=200, deadline=None)
@given(vertex_sets.filter(np.size), st.data())
def test_vertex_array_names_the_first_vertex_outside_range(vertices, data):
    # one entry is set outside range(n); entries above n - 1 may be others
    n = data.draw(st.integers(1, 64))
    arr = np.array(vertices)
    flat = arr.reshape(-1)
    flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(
        st.one_of(st.integers(-3, -1), st.integers(n, n + 3)))
    outside = flat[(flat < 0) | (flat >= n)]
    with pytest.raises(ValueError, match=rf"^vertex {outside[0]} outside range\({n}\)$"):
        graphs.vertex_array(arr if isinstance(vertices, np.ndarray) else flat.tolist(), n)


# name: (n, call(g, cert, v)) of each library entry that takes a vertex
# or a vertex set, the call passing vertex v or putting it into one of its
# sets; g is Paley 101
RECT, CYCLE100 = np.ones((3, 5)), graphs.gen_named("cycle", 100)
VERTEX_SET_ENTRIES = {
    "degree": (101, lambda g, c, v: g.degree(v)),
    "neighbors": (101, lambda g, c, v: g.neighbors(v)),
    "induced": (101, lambda g, c, v: g.induced([0, v])),
    "cross_degree-vertices": (101, lambda g, c, v: g.cross_degree([v, 100], range(50))),
    "cross_degree-targets": (101, lambda g, c, v: g.cross_degree([0], [1, v])),
    "count_edges_between-bits-s": (
        101, lambda g, c, v: g.count_edges_between([v, 0], [2])),
    "count_edges_between-bits-t": (
        101, lambda g, c, v: g.count_edges_between([0], [2, v])),
    "count_edges_between-csr-s": (
        100, lambda g, c, v: CYCLE100.count_edges_between([v], [2])),
    "count_edges_between-csr-t": (
        100, lambda g, c, v: CYCLE100.count_edges_between([0], [v])),
    "BipartiteView": (101, lambda g, c, v: graphs.BipartiteView(g, (0, 1), (2, v))),
    "eml_graph_audit": (
        101, lambda g, c, v: mixing.eml_graph_audit(c, g, [v, 0], [3, 4])),
    "eml_matrix_audit-rows": (
        3, lambda g, c, v: mixing.eml_matrix_audit(RECT, [0, v], [1], 0.5)),
    "eml_matrix_audit-cols": (
        5, lambda g, c, v: mixing.eml_matrix_audit(RECT, [0], [1, v], 0.5)),
    "build_connector-port": (101, lambda g, c, v: extend.build_connector(
        g, [v], [0], range(10, 20), l_max=8)),
    "build_connector-reserve": (101, lambda g, c, v: extend.build_connector(
        g, [1], [0], [*range(10, 20), v], l_max=8)),
    "greedy_matching_avoiding": (101, lambda g, c, v: matching.greedy_matching_avoiding(
        g, c, range(20), [*range(30, 50), v])),
}


@pytest.mark.parametrize("below", [True, False], ids=["minus-1", "n"])
@pytest.mark.parametrize("entry", list(VERTEX_SET_ENTRIES))
def test_vertex_set_entries_refuse_a_vertex_outside_range(paley101, cert101,
                                                          entry, below):
    n, call = VERTEX_SET_ENTRIES[entry]
    v = -1 if below else n
    with pytest.raises(ValueError, match=rf"^vertex {v} outside range\({n}\)$"):
        call(paley101, cert101, v)


@pytest.mark.parametrize("kind", [True, 1.7], ids=["bool", "float"])
@pytest.mark.parametrize("entry", [e for e in VERTEX_SET_ENTRIES
                                   if e not in ("degree", "neighbors")])
def test_vertex_set_entries_refuse_a_bool_or_non_integer(paley101, cert101, entry, kind):
    # the entry puts the bool or float into a set beside integers
    with pytest.raises(ValueError, match=rf"^vertex {kind} is not an integer$"):
        VERTEX_SET_ENTRIES[entry][1](paley101, cert101, kind)


@pytest.mark.parametrize("call, named", [
    (lambda g: g.has_edge(1, 2.5), "2.5"),
    (lambda g: g.has_edge(True, 2.0), "True"),
    (lambda g: g.has_edge(np.array([1, 2]), np.array([2.0, 3.0])), "2.0"),
    (lambda g: g.neighbors(True), "True"),
    (lambda g: g.neighbors(1.7), "1.7"),
    (lambda g: g.degree(True), "True"),
    (lambda g: g.degree(np.float64(3.0)), "3.0")],
    ids=["has_edge-float", "has_edge-bool", "has_edge-arrays", "neighbors-bool",
         "neighbors-float", "degree-bool", "degree-float"])
def test_single_vertex_entries_refuse_bools_and_non_integers(paley13, call, named):
    with pytest.raises(ValueError, match=rf"^vertex {named} is not an integer$"):
        call(paley13)
    # an integer outside range(n) still has no edges
    assert paley13.has_edge(-1, 2) is False and paley13.has_edge(np.int64(1), 13) is False
    assert paley13.has_edge(np.uint8(1), 2) is paley13.has_edge(1, 2)


@pytest.mark.parametrize("vertices, named", [
    (np.array([True, False, True]), "True"), ([1.7, 2.2], "1.7"), ([3, True], "True"),
    ((2, np.float64(2.0)), "2.0"), (np.array([1.0, 2.5]), "1.0"), ("12", "1"),
    (np.array([4, 1.5], dtype=object), "1.5"), ([np.int64(3), np.True_], "True")])
def test_vertex_array_refuses_bools_and_non_integers(vertices, named):
    with pytest.raises(ValueError, match=rf"^vertex {named} is not an integer$"):
        graphs.vertex_array(vertices, 13)


@pytest.mark.parametrize("vertices", [
    [3, 1, 3], (3, 1), {1, 3}, range(3, 0, -2), iter([1, 3]), [np.int64(3), 1],
    np.array([3, 1], dtype=object), np.array([3, 1], dtype=np.uint8)])
def test_vertex_array_reads_integers_of_any_container(vertices):
    assert graphs.vertex_array(vertices, 13).tolist() == [1, 3]
    assert graphs.vertex_array([], 13).tolist() == []


def test_induced_subgraph_mapping(paley13):
    verts = [2, 5, 7, 11]
    sub, mapping = paley13.induced(verts)
    assert sub.n == 4
    for i, u in enumerate(mapping):
        for j, v in enumerate(mapping):
            if i < j:
                assert sub.has_edge(i, j) == paley13.has_edge(u, v)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_edge_counts_match_brute_force(petersen, data):
    s = data.draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
    t = data.draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
    brute = len({tuple(sorted((u, v))) for u in s for v in t
                 if u != v and petersen.has_edge(u, v)})
    ordered = sum(bool(petersen.has_edge(u, v)) for u in s for v in t)
    counts = petersen.count_edges_between(s, t)
    assert counts[:2] == (ordered, brute)
    assert counts[2].tolist() == sorted(s & t)
    v0 = next(iter(s))
    assert petersen.cross_degree([v0], t).tolist() == [sum(
        1 for w in t if petersen.has_edge(v0, w))]


def _gnp(n, p, seed):
    rng = np.random.default_rng(seed)
    return graphs.Graph(n, np.argwhere(np.triu(rng.random((n, n)) < p, k=1)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([63, 64, 65, 127, 128, 129]), st.floats(0.0, 0.2),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["disjoint", "overlap", "single"]),
       st.data())
def test_count_edges_between_both_paths_match_brute_force(n, p, seed, kind, data):
    # Up to p = 0.2 the draws fall on both sides of the bit-row size rule
    # (mean degree 2 * ceil(n / 64)), at the word boundaries of n. The sets
    # are unsorted lists with repeats.
    g = _gnp(n, p, seed)
    words = (n + 63) // 64
    size = 1 if kind == "single" else n
    s = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=size))
    t = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=size))
    if kind == "disjoint":
        t = [v for v in t if v not in s]
    a = g.adjacency_dense()
    rows, cols = sorted(set(s)), sorted(set(t))
    both = sorted(set(s) & set(t))
    ordered = int(a[np.ix_(rows, cols)].sum())
    inside = int(a[np.ix_(both, both)].sum())
    counts = g.count_edges_between(s, t)
    assert counts[:2] == (ordered, ordered - inside // 2)
    assert counts[2].tolist() == both
    assert (g._bits is not None) == (n * words * 8 <= 4 * 2 * g.edge_count)


def test_bit_rows_follow_the_size_rule():
    paley = graphs.gen_paley(101)
    petersen, cycle = graphs.gen_named("petersen"), graphs.gen_named("cycle", 100)
    for g in (paley, petersen, cycle):
        g.count_edges_between([0, 1], [2, 3])
    assert paley._bits.shape == (101, 2) and petersen._bits.shape == (10, 1)
    assert cycle._bits is None
    unpacked = np.unpackbits(paley._bits.view(np.uint8), axis=1, bitorder="little")
    assert np.array_equal(unpacked[:, :101], paley.adjacency_dense())
    assert not unpacked[:, 101:].any() and not paley._bits.flags.writeable
    # Subgraphs and graphs that are never read build no bit rows.
    assert paley.induced(range(50))[0]._bits is None
    assert graphs.gen_paley(101)._bits is None


def _unpacks(g):
    # the rule for reading a vertex set's rows off unpacked bit rows: n x n
    # bools and the padded bit rows each take no more bytes than `indices`
    return max(g.n * g.n, g.n * ((g.n + 63) // 64) * 8) <= g.indices.nbytes


def _route_spy(mp):
    """Record, for each read of a vertex set's rows, whether it unpacked."""
    routes, rows = [], graphs.Graph._rows

    def spy(self, vertices):
        pieces = rows(self, vertices)
        routes.append(pieces is not None)
        return pieces
    mp.setattr(graphs.Graph, "_rows", spy)
    return routes


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([5, 7, 63, 64, 65, 127, 128, 129, 300]), st.floats(0.0, 0.6),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_set_reads_match_scipy_indexing_on_both_routes(n, p, seed, data):
    # Up to p = 0.6 the draws fall on both sides of the rule (mean degree
    # n / 4); n = 5 also has graphs whose padded bit rows fail it alone.
    g = _gnp(n, p, seed)
    csr = g._csr
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))  # any order, repeats
    drawn = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    sizes = data.draw(st.tuples(st.integers(0, n), st.integers(0, n)))
    with pytest.MonkeyPatch.context() as mp:
        routes = _route_spy(mp)
        for targets in ([], [data.draw(st.integers(0, n - 1))], range(n), drawn):
            ts = np.unique(np.array(targets, dtype=np.int64))
            into = csr[np.array(picks, dtype=np.int64)][:, ts].sum(axis=1)
            assert g.cross_degree(picks, targets).tolist() == into.tolist()

        members = np.unique(np.array(drawn, dtype=np.int64))
        sub, got = g.induced(drawn)
        want = csr[members][:, members]
        assert got.tolist() == members.tolist() and sub._csr.data.dtype == np.int8
        assert (sub.indptr.tobytes(), sub.indices.tobytes()) == \
            (want.indptr.tobytes(), want.indices.tobytes())

        perm = np.random.default_rng(seed).permutation(n)
        left, right = perm[:sizes[0]], perm[sizes[0]:sizes[0] + sizes[1]]
        block = graphs.BipartiteView(g, left, right).block
        want = csr[np.sort(left)][:, np.sort(right)]
        assert [a.dtype for a in (block.indptr, block.indices, block.data)] == \
            [np.int32, np.int32, np.int8]
        assert (block.indptr.tobytes(), block.indices.tobytes(), block.shape) == \
            (want.indptr.tobytes(), want.indices.tobytes(), want.shape)
        assert block.has_sorted_indices and want.has_sorted_indices
        assert not any(a.flags.writeable for a in (block.indptr, block.indices, block.data))
    assert set(routes) == {_unpacks(g)}


@pytest.mark.parametrize("piece", [1, 3])
def test_set_reads_are_the_same_in_any_piece(monkeypatch, piece):
    def reads(g):
        rng = np.random.default_rng(1)
        s, t = np.split(rng.permutation(g.n), [g.n // 2])
        sub = g.induced(s)[0]
        block = graphs.BipartiteView(g, s[:40], t[:31]).block
        return (g.cross_degree(rng.integers(0, g.n, 60), t).tolist(), g._bits.tobytes(),
                sub.indptr.tobytes(), sub.indices.tobytes(),
                block.indptr.tobytes(), block.indices.tobytes())

    makers = (lambda: graphs.gen_paley(101), lambda: _gnp(130, 0.5, 2))
    want = [reads(make()) for make in makers]
    monkeypatch.setattr(graphs, "ROW_PIECE", piece)
    assert [reads(make()) for make in makers] == want


@pytest.mark.parametrize("make", [lambda: graphs.gen_named("cycle", 100),
                                  lambda: _gnp(2000, 0.1, 3),
                                  lambda: graphs.Graph(4, [(0, 1), (1, 2)])],
                         ids=["cycle-100", "gnp-2000-0.1", "path-4"])
def test_graphs_below_the_rule_never_unpack(monkeypatch, make):
    # path 4: n x n bools fit in `indices`, its padded bit rows do not
    g = make()
    assert not _unpacks(g)
    monkeypatch.setattr(np, "unpackbits", lambda *a, **k: pytest.fail("unpacked"))
    s, t = np.arange(0, g.n, 2), np.arange(1, g.n, 2)
    assert g.cross_degree(s, t).tolist() == g._csr[s][:, t].sum(axis=1).tolist()
    assert g.induced(s)[0].indices.tobytes() == g._csr[s][:, s].indices.tobytes()
    assert graphs.BipartiteView(g, s, t).block.indices.tobytes() == \
        g._csr[s][:, t].indices.tobytes()
    assert g._bits is None


@pytest.mark.parametrize("piece", [graphs.ROW_PIECE, 5])
@pytest.mark.parametrize("make, unpacks", [(lambda: graphs.gen_paley(1009), True),
                                           (lambda: _gnp(600, 0.01, 4), False)],
                         ids=["paley-1009", "gnp-600-0.01"])
def test_degrees_into_matches_cross_degree_and_brute_force(monkeypatch, piece, make, unpacks):
    # Paley 1009 reads unpacked bit rows, G(600, 0.01) a labelled bincount
    # of its CSR columns. Pieces of 5 rows split every group above 5
    # vertices, and one group of all n vertices outgrows either piece.
    monkeypatch.setattr(graphs, "ROW_PIECE", piece)
    g = make()
    assert (g._rows(np.arange(1)) is not None) == unpacks
    dense = g.adjacency_dense().astype(np.int64)
    rng = np.random.default_rng(9)
    for count, size in ((7, 1), (5, 22), (9, 23), (3, 46), (20, 25), (1, g.n)):
        groups = rng.permutation(g.n)[:count * size].reshape(count, size)
        got = g.degrees_into(groups)
        assert got.shape == (count, g.n)
        assert got.tolist() == [g.cross_degree(range(g.n), group).tolist() for group in groups]
        assert np.array_equal(got, dense[:, groups].sum(axis=2).T)
    repeats = rng.integers(0, g.n, size=(4, 9))     # entries counted with their repeats
    assert np.array_equal(g.degrees_into(repeats), dense[:, repeats].sum(axis=2).T)
    assert g.degrees_into(np.empty((0, 3), dtype=int)).shape == (0, g.n)
    assert not g.degrees_into(np.empty((2, 0), dtype=int)).any()


@pytest.mark.parametrize("groups", [[0, 1], [[0, 101]], [[-1, 0]], [[True, False]],
                                    [[0.0, 1.0]], [[[0]]]],
                         ids=["1-D", "above", "below", "bools", "floats", "3-D"])
def test_degrees_into_refuses_what_is_not_a_2d_vertex_array(paley101, groups):
    with pytest.raises(ValueError):
        paley101.degrees_into(groups)


def test_bipartite_view_validation(paley13):
    with pytest.raises(ValueError):
        graphs.BipartiteView(parent=paley13, left=(0, 1), right=(1, 2))
    for outside in (-1, 13):
        with pytest.raises(ValueError, match="outside range"):
            graphs.BipartiteView(parent=paley13, left=(0, 1), right=(3, outside))
    view = graphs.BipartiteView(parent=paley13, left=(1, 0), right=(4, 3))
    assert (view.left.tolist(), view.right.tolist()) == ([0, 1], [3, 4])
    for side in (view.left, view.right):
        assert side.dtype == np.int64 and not side.flags.writeable
    rows, cols = np.meshgrid([0, 1], [3, 4], indexing="ij")
    assert np.array_equal(view.block.toarray(), paley13.has_edge(rows, cols))
    for array in (view.block.indptr, view.block.indices, view.block.data):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("left, right", [((), (3, 4)), ((0, 1), ())],
                         ids=["empty-left", "empty-right"])
def test_certify_bipartite_rejects_empty_side(paley13, left, right):
    view = graphs.BipartiteView(parent=paley13, left=left, right=right)
    with pytest.raises(EmptySide):
        graphs.certify_bipartite_expander(view, gamma=0.5, lam=1.2)


def test_adjacency_dense_matches_sparse(paley13):
    assert np.array_equal(paley13.adjacency_dense(),
                          paley13.adjacency_sparse().toarray())


def test_adjacency_sparse_is_the_graphs_own_matrix(paley13):
    a = paley13.adjacency_sparse()
    assert a is paley13.adjacency_sparse() and a.dtype == np.int8
    assert np.shares_memory(a.indices, paley13.indices)
    assert np.shares_memory(a.indptr, paley13.indptr)
    assert not any(x.flags.writeable for x in (a.data, a.indices, a.indptr))


@st.composite
def _shuffled_edge_lists(draw):
    """(n, pairs): a simple graph on n <= 40 vertices (n = 0 and 1, and
    isolated vertices, included), its edges in any order and orientation."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return n, []
    return n, draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        unique_by=lambda e: (min(e), max(e)), max_size=3 * n))


@settings(max_examples=200, deadline=None)
@given(_shuffled_edge_lists())
def test_row_builder_matches_scipy_symmetrization(case):
    n, pairs = case
    lo, hi = np.array(sorted((min(e), max(e)) for e in pairs), dtype=np.int64).reshape(-1, 2).T
    upper = sp.csr_array((np.ones(len(lo), dtype=np.int8), (lo, hi)), shape=(n, n))
    want = upper + upper.T
    indptr = np.searchsorted(lo, np.arange(n + 1))
    for got in (graphs._full_rows(n, indptr, hi.astype(np.int32)), graphs.Graph(n, pairs)):
        got_indptr, got_indices = got if isinstance(got, tuple) else (got.indptr, got.indices)
        assert got_indptr.tolist() == want.indptr.tolist()
        assert got_indices.tolist() == want.indices.tolist()
        assert got_indices.dtype == np.int32


@settings(max_examples=150, deadline=None)
@given(_shuffled_edge_lists(), st.integers(0, 3 * 40), st.sampled_from([1, 3, graphs.CHUNK]))
def test_read_graph_of_any_edge_order_equals_the_constructor(case, ordered, chunk):
    # The first `ordered` lines as `write_graph` writes them, the rest in
    # any order and orientation: a small chunk reads some of the file
    # straight into rows before it meets an unsorted line and reads again.
    n, pairs = case
    ordered = min(ordered, len(pairs))
    lines = sorted((min(e), max(e)) for e in pairs[:ordered]) + pairs[ordered:]
    text = f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in lines)
    old = graphs.CHUNK
    graphs.CHUNK = chunk
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_text(text)
            assert graphs.read_graph(path) == graphs.Graph(n, pairs)
    finally:
        graphs.CHUNK = old


def test_read_graph_peaks_within_three_times_the_graph(tmp_path, paley1009):
    path = tmp_path / "g.txt"
    graphs.write_graph(paley1009, path)
    kept = sum(x.nbytes for x in (paley1009.indptr, paley1009.indices,
                                  paley1009.adjacency_sparse().data))
    tracemalloc.start()
    try:
        g = graphs.read_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == paley1009 and peak <= 3 * kept


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]),
        unique_by=lambda e: (min(e), max(e)), max_size=40))
    return n, pairs


@settings(max_examples=150, deadline=None)
@given(_edge_lists(), st.data())
def test_csr_graph_matches_brute_force(edge_list, data):
    n, pairs = edge_list
    g = graphs.Graph(n, pairs)
    adj = {frozenset(e) for e in pairs}
    nbrs = [sorted(w for w in range(n) if frozenset((v, w)) in adj)
            for v in range(n)]
    assert g.edge_count == len(pairs)
    assert g.degrees().tolist() == [len(a) for a in nbrs]
    assert [g.neighbors(v).tolist() for v in range(n)] == nbrs
    assert all(g.has_edge(u, v) == (frozenset((u, v)) in adj)
               for u in range(n) for v in range(n))
    us, vs = np.divmod(np.arange(-n, n * n + n), n)     # rows -1 and n too
    assert g.has_edge(us, vs).tolist() == [
        frozenset((u, v)) in adj for u, v in zip(us.tolist(), vs.tolist())]

    subset = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    sub, mapping = g.induced(subset)
    assert mapping.dtype == np.int64 and mapping.tolist() == sorted(set(subset))
    assert all(sub.has_edge(i, j) == g.has_edge(u, v)
               for i, u in enumerate(mapping) for j, v in enumerate(mapping))
    assert g.induced([])[0] == graphs.Graph(0, [])

    s = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    t = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    every = np.arange(n)
    assert g.cross_degree(every, t).tolist() == \
        [sum(frozenset((v, w)) in adj for w in t) for v in range(n)]
    assert g.cross_degree(every, []).tolist() == [0] * n
    assert g.cross_degree([], t).tolist() == []
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))  # any order, repeats
    assert g.cross_degree(picks, t).tolist() == \
        [sum(frozenset((v, w)) in adj for w in t) for v in picks]
    ordered = sum(frozenset((u, v)) in adj for u in s for v in t)
    counts = g.count_edges_between(s, t)
    assert counts[:2] == (ordered, len({frozenset((u, v)) for u in s for v in t} & adj))
    assert counts[2].tolist() == sorted(s & t)
    assert _audit_ordered_count(g, s, t) == ordered

    expected = f"{n} {len(pairs)}\n" + "".join(
        f"{u} {v}\n" for u, v in sorted((min(e), max(e)) for e in pairs))
    assert graphs.graph_file_bytes(g) == expected.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        graphs.write_graph(g, path)
        back = graphs.read_graph(path)
        assert back == g
        graphs.write_graph(back, path)
        assert path.read_bytes() == expected.encode()

    v = data.draw(st.integers(0, n - 1))
    with pytest.raises(ValueError, match="self-loop"):
        graphs.Graph(n, pairs + [(v, v)])
    with pytest.raises(ValueError, match="out of range"):
        graphs.Graph(n, pairs + [(v, n)])
    if pairs:
        u, w = data.draw(st.sampled_from(pairs))
        with pytest.raises(ValueError, match="duplicate"):
            graphs.Graph(n, pairs + [(w, u)])


def _parent_window_violation(g, left, right, d, n, gamma):
    """The pair window rule, vertex by vertex, with parent-graph degrees."""
    for index, (side, other) in enumerate(((left, right), (right, left))):
        target = d * len(other) / n
        lo, hi = (1 - gamma) * target, (1 + gamma) * target
        for v, deg in zip(side, g.cross_degree(side, other).tolist()):
            if not lo <= deg <= hi:
                return index, v, deg, lo, hi
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_bipartite_view_matches_parent_graph(n, p, seed, data):
    rng = np.random.default_rng(seed)
    g = graphs.Graph(n, np.argwhere(np.triu(rng.random((n, n)) < p, k=1)))
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n - a))
    perm = rng.permutation(n)
    left, right = perm[:a], perm[a:a + b]     # unsorted, any sizes, maybe empty
    pair = graphs.BipartiteView(g, left, right)
    half = graphs.BipartiteView(g, np.sort(left)[:(a + 1) // 2], np.sort(right)[:b // 2])
    d = data.draw(st.floats(0.5, n))
    gamma = data.draw(st.floats(0.0, 1.5))
    for view in (pair, half):
        sides = (view.left, view.right)
        for side, other, deg in zip(sides, sides[::-1], view.degrees()):
            assert deg.tolist() == g.cross_degree(side, other).tolist()
        targets = (d * len(view.right) / n, d * len(view.left) / n)
        assert graphs.window_violation(sides, view.degrees(), targets, gamma) == \
            _parent_window_violation(g, *sides, d, n, gamma)
    if a and b and g.edge_count:
        mean = g.degrees().mean()
        assert pair.observed_gamma() == max(
            np.abs(g.cross_degree(side, other) - mean * len(other) / n).max()
            / (mean * len(other) / n) for side, other in ((left, right), (right, left)))

    members = np.sort(perm[:a + b])
    dense = g.adjacency_dense()[np.ix_(members, members)]
    s2 = np.sort(np.abs(np.linalg.eigvalsh(dense)))[-2] if a + b >= 2 else 0.0
    assert abs(pair.s2(seed=0) - s2) < 1e-8

    block = pair.block
    rows, cols = np.meshgrid(sorted(left), sorted(right), indexing="ij")
    assert block.has_sorted_indices
    assert np.array_equal(block.toarray(), g.has_edge(rows, cols))
    # The same bytes as the block read through G[L u R]: Hopcroft-Karp's
    # input, and so every matching, does not depend on the route.
    sub, names = g.induced(members)
    induced = sub._csr[np.searchsorted(names, pair.left)][:, np.searchsorted(
        names, pair.right)]
    for name in ("indptr", "indices"):
        assert getattr(block, name).tobytes() == getattr(induced, name).tobytes()

    cross = nx.Graph()
    cross.add_nodes_from(perm[:a + b].tolist())
    cross.add_edges_from((u, v) for u in left.tolist() for v in right.tolist()
                         if g.has_edge(u, v))
    m = matching.max_matching(pair)
    assert matching.verify_matching(m, g, left, right)
    assert 2 * m.size == len(nx.bipartite.maximum_matching(cross, left.tolist()))
    for own, other in ((left, right), (right, left)):
        violator = matching.hall_violator(graphs.BipartiteView(g, own, other))
        if m.size == len(own):
            assert violator is None
        else:
            assert violator is not None and violator <= set(own.tolist())
            reached = set(np.concatenate([g.neighbors(u) for u in violator]).tolist())
            assert len(reached & set(other.tolist())) < len(violator)


def _audit_ordered_count(g, s, t):
    """The ordered count eml_graph_audit reports, through its public entry."""
    cert = graphs.SpectralCertificate(n=g.n, d=1.0, gamma_hat=0.0,
                                      lambda_hat=0.0, residual=0.0, seed=0)
    return mixing.eml_graph_audit(cert, g, s, t).ordered_count


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_induced_s2_at_most_graph_s2(n, p, seed, data):
    # Interlacing (Thompson 1972): singular values of a principal
    # submatrix never exceed the matrix's, so s2(G[L u R]) <= s2(G).
    # The pipeline's certification gate bounds Q4 and the path cover's
    # lambda by this inequality; the slack is absolute, as equality
    # holds up to round-off.
    rng = np.random.default_rng(seed)
    g = graphs.Graph(n, np.argwhere(np.triu(rng.random((n, n)) < p, k=1)))
    lam = linalg.dense_singular_values(g.adjacency_dense())[1]
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n - a))
    perm = rng.permutation(n)
    pair = graphs.BipartiteView(g, perm[:a], perm[a:a + b])
    assert pair.s2(seed=data.draw(st.integers(0, 2 ** 32 - 1))) <= lam + 1e-8


def test_induced_s2_at_most_lambda_hat_paley_1009(paley1009, cert1009):
    rng = np.random.default_rng(1009)
    for size in rng.integers(2, 601, size=20):
        members = rng.choice(paley1009.n, size=size, replace=False)
        s2 = graphs.BipartiteView(paley1009, members, ()).s2(seed=int(size))
        assert s2 <= cert1009.lambda_hat + 1e-8
