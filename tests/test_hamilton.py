import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab import graphs, hamilton, linalg
from expanderlab.errors import (ConfigError, ConnectFailed, EmptyGraph,
                                PartitionRetriesExhausted, UnbalancedSides)
from expanderlab.rng import generator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import golden_digests  # noqa: E402


def test_config_validation():
    with pytest.raises(ConfigError):
        hamilton.PipelineConfig(reserve_fraction=0.7)
    with pytest.raises(ConfigError):
        hamilton.PipelineConfig(k=1)
    with pytest.raises(ConfigError):
        hamilton.PipelineConfig(gamma_caps={"P9": 0.5})
    with pytest.raises(ConfigError):
        hamilton.PipelineConfig(constant_overrides={"bogus": 1.0})


@pytest.mark.parametrize("fields", [
    {"gamma_caps": {"Q4": -0.1}}, {"l_max": 0}, {"max_partition_retries": 0},
    {"max_repartition_retries": 0}, {"min_reserve_ratio": 0.0},
    {"min_reserve_ratio": -1.0}, {"constant_overrides": {"q_pair_sample": -1}},
    {"constant_overrides": {"q_pair_sample": 0}},
    {"constant_overrides": {"q_pair_sample": 0.5}}, {"seed": 2 ** 127},
    {"seed": -2 ** 127 - 1}, {"max_partition_retries": hamilton.MAX_RETRIES + 1},
    {"max_repartition_retries": hamilton.MAX_RETRIES + 1},
    {"min_reserve_ratio": math.nan}, {"min_reserve_ratio": math.inf},
    {"reserve_fraction": math.nan}, {"gamma_caps": {"P1": math.nan}},
    {"gamma_caps": {"Q5": math.inf}},
    {"constant_overrides": {"lambda_ratio_cap": math.nan}},
    {"constant_overrides": {"pm_gamma_cap": -math.inf}}])
def test_config_range_checks(fields):
    with pytest.raises(ConfigError):
        hamilton.PipelineConfig(**fields)


def test_retry_counts_end_at_the_named_bound():
    assert hamilton.PipelineConfig(max_partition_retries=hamilton.MAX_RETRIES,
                                   max_repartition_retries=hamilton.MAX_RETRIES)
    with pytest.raises(ConfigError, match="MAX_RETRIES"):
        hamilton.PipelineConfig(max_repartition_retries=hamilton.MAX_RETRIES + 1)


@pytest.mark.parametrize("seed", [np.int64(3), 2 ** 127 - 1, -2 ** 127])
def test_config_accepts_every_seed_in_range(seed):
    assert hamilton.PipelineConfig(seed=seed).seed == seed


def test_close_cycle_names_a_pair_the_connector_left_out():
    class Stub:
        reserved = ()

        def connect_pairs(self, pairing):
            return ()

    paths = ((0, 1), (2, 3))
    trace = hamilton.PipelineTrace(4, hamilton.PipelineConfig())
    with pytest.raises(ConnectFailed, match=r"pair \(1, 2\)"):
        hamilton.close_cycle(paths, Stub(), trace)


def test_config_roundtrip_and_unknown_keys():
    cfg = hamilton.PipelineConfig(seed=5, gamma_caps={"P1": 0.25},
                                  constant_overrides={"pm_gamma_cap": 1.5})
    back = hamilton.PipelineConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ConfigError):
        hamilton.PipelineConfig.from_dict({"seed": 1, "extra": 2})
    for dead in ("theta_scale", "q1_overlap_cap", "p2_scale"):
        with pytest.raises(ConfigError, match=dead):
            hamilton.PipelineConfig(constant_overrides={dead: 1.0})


def test_config_gamma_and_constant_lookup():
    cfg = hamilton.PipelineConfig(gamma_caps={"P1": 0.25})
    assert cfg.gamma("P1") == 0.25
    assert cfg.gamma("Q4") == hamilton.GAMMA_DEFAULTS["Q4"]
    assert cfg.constant("lambda_ratio_cap") == 0.2


def test_plan_sizes_partition_exactly():
    for n in (401, 1009, 2029):
        cfg = hamilton.PipelineConfig()
        plan = hamilton.plan_sizes(n, cfg)
        assert plan.t * plan.k + plan.reserve_size == n
        assert plan.reserve_size >= cfg.min_reserve_ratio * plan.k
        assert plan.reserve_size <= plan.k * (cfg.l_max - 1)


def test_plan_sizes_rejects_tiny_graphs():
    with pytest.raises(ConfigError):
        hamilton.plan_sizes(10, hamilton.PipelineConfig())


def test_cycle_line_roundtrip():
    c = hamilton.HamiltonCycle(order=(3, 1, 4, 1 + 1, 5))
    assert hamilton.HamiltonCycle.from_line(c.to_line()) == c


def test_verify_cycle_reasons(k4):
    ok = hamilton.verify_hamilton_cycle(
        k4, hamilton.HamiltonCycle((0, 1, 2, 3)))
    assert ok and ok.reason == "ok"
    short = hamilton.verify_hamilton_cycle(
        k4, hamilton.HamiltonCycle((0, 1, 2)))
    assert not short and "length" in short.reason
    repeated = hamilton.verify_hamilton_cycle(
        k4, hamilton.HamiltonCycle((0, 1, 2, 2)))
    assert not repeated and "repeated" in repeated.reason
    outside = hamilton.verify_hamilton_cycle(
        k4, hamilton.HamiltonCycle((0, 1, 2, 4)))
    assert not outside and outside.reason == "not a permutation of V"
    c4 = graphs.gen_named("cycle", 4)
    chord = hamilton.verify_hamilton_cycle(
        c4, hamilton.HamiltonCycle((0, 2, 1, 3)))
    assert not chord and "missing edge" in chord.reason


def _verdict_by_sets(g, order):
    """The verifier's verdict on an integer order, read through Python sets."""
    if len(order) != g.n:
        return False, f"length {len(order)} != n={g.n}"
    if len(set(order)) != len(order):
        return False, "repeated vertex"
    if set(order) != set(range(g.n)):
        return False, "not a permutation of V"
    for u, v in zip(order, order[1:] + order[:1]):
        if not g.has_edge(u, v):
            return False, f"missing edge ({u},{v})"
    return True, "ok"


_NOT_A_VERTEX = st.one_of(st.booleans(), st.floats(allow_nan=True),
                          st.integers(min_value=2 ** 63), st.integers(max_value=-2 ** 63 - 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2 ** 32 - 1), st.data())
def test_verifier_returns_a_verdict_for_any_tuple(n, seed, data):
    rng = np.random.default_rng(seed)
    g = graphs.Graph(n, np.argwhere(np.triu(rng.random((n, n)) < 0.7, k=1)))
    order = [int(v) for v in rng.permutation(n)]     # a permutation, then edits
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, n - 1))
        order[at] = data.draw(st.one_of(st.integers(-2, n + 1), _NOT_A_VERTEX))
    order = tuple((order + [0])[:data.draw(st.sampled_from([n, n, n - 1, n + 1]))])
    verdict = hamilton.verify_hamilton_cycle(g, hamilton.HamiltonCycle(order))
    assert isinstance(verdict, hamilton.CycleVerification)
    if all(type(v) is int and -2 ** 63 <= v < 2 ** 63 for v in order):
        assert (verdict.ok, verdict.reason) == _verdict_by_sets(g, order)
    elif len(order) == n:
        assert (verdict.ok, verdict.reason) == (False, "not a permutation of V")


@pytest.mark.parametrize("n, edges, order", [(2, [(0, 1)], (0, 1)), (1, [], (0,)),
                                             (0, [], ())], ids=["k2", "k1", "empty"])
def test_no_order_below_three_vertices_is_a_cycle(n, edges, order):
    # (0, 1) on K2 is a closed walk that uses its one edge twice
    verdict = hamilton.verify_hamilton_cycle(graphs.Graph(n, edges),
                                             hamilton.HamiltonCycle(order))
    assert not verdict and verdict.reason == f"n={n} < 3 has no Hamilton cycle"


def _parts(x, y):
    x, y = np.array(x), np.array(y)
    return hamilton.Parts(x=x, y=y, reserve=np.array([], dtype=int),
                          middle=np.array([], dtype=int))


def test_path_cover_chains_perfect_matchings_over_equal_blocks():
    # X, Y and two blocks of 4 on K_25: one perfect matching per link
    # of the chain X -> B_1 -> B_2 -> Y, no surplus matchings
    g = graphs.gen_named("complete", 25)
    cert = graphs.certify_expander(g, seed=0)
    cfg = hamilton.PipelineConfig(seed=0)
    parts = _parts(range(0, 4), range(4, 8))
    blocks = np.arange(8, 16).reshape(2, 4)[::-1]
    trace = hamilton.PipelineTrace(g.n, cfg)
    paths = hamilton.path_cover_phase(g, cert, parts, blocks, cfg, trace)
    assert trace.data["n_sizes"] == [4, 4, 4]
    assert paths.shape == (4, 4)
    assert paths[:, 0].tolist() == [0, 1, 2, 3]
    for p in paths.tolist():
        assert p[-1] in range(4, 8)
        assert p[1] in range(8, 12) and p[2] in range(12, 16)
    assert sorted(paths.ravel().tolist()) == list(range(16))


def test_path_cover_uneven_blocks_raise_unbalanced_sides():
    g = graphs.gen_named("complete", 25)
    cert = graphs.certify_expander(g, seed=0)
    cfg = hamilton.PipelineConfig(seed=0)
    blocks = [tuple(range(8, 12)), tuple(range(12, 15))]
    trace = hamilton.PipelineTrace(g.n, cfg)
    with pytest.raises(UnbalancedSides):
        hamilton.path_cover_phase(g, cert, _parts(range(4), range(4, 8)),
                                  blocks, cfg, trace)


def test_pipeline_success_and_trace(paley13):
    g = graphs.gen_paley(401)
    result = hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(seed=0))
    assert result.trace.outcome == "success"
    assert result.cycle is not None
    assert hamilton.verify_hamilton_cycle(g, result.cycle)
    data = result.trace.data
    assert data["schema_version"] == hamilton.SCHEMA_VERSION
    assert data["n"] == 401
    assert data["plan"] is not None
    assert data["connector"]["reserve"] >= 0
    assert all(set(c) == {"phase", "check", "holds", "detail"}
               for c in data["checks"])
    # every recorded check on the success path holds
    assert all(c["holds"] for c in data["checks"])
    assert [(c["phase"], c["check"]) for c in data["checks"]] == [
        ("certification", "lambda_ratio"), ("partition", "P1"),
        ("partition", "P5"), ("repartition", "Q3"), ("repartition", "Q4"),
        ("repartition", "Q5"), ("verification", "hamilton")]


def test_pipeline_solves_only_the_certificate(monkeypatch):
    # by interlacing, P2 holds for every set, and the certification
    # gate proves Q4's s2 cap and the path cover's lambda, so none is
    # solved
    g, cfg = graphs.gen_paley(401), hamilton.PipelineConfig(seed=0)
    sizes, solve = [], linalg.singular_values_array

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "singular_values_array", counted)
    result = hamilton.hamilton_pipeline(g, cfg)
    assert result.trace.outcome == "success"
    assert sizes == [g.n]


def test_pipeline_induces_no_subgraph(monkeypatch):
    # every pair reads its cross block from the graph's rows
    calls, induced = [], graphs.Graph.induced

    def counted(self, vertices):
        calls.append(len(vertices))
        return induced(self, vertices)

    monkeypatch.setattr(graphs.Graph, "induced", counted)
    result = hamilton.hamilton_pipeline(graphs.gen_paley(401),
                                        hamilton.PipelineConfig(seed=0))
    assert result.trace.outcome == "success"
    assert calls == []


def test_pipeline_builds_a_view_only_per_path_cover_link(monkeypatch):
    # windows read degree counts; only a matching needs a cross block
    built = []

    class Counting(graphs.BipartiteView):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self.left, self.right))

    monkeypatch.setattr(hamilton, "BipartiteView", Counting)
    g, cfg = graphs.gen_paley(401), hamilton.PipelineConfig(seed=0)
    result = hamilton.hamilton_pipeline(g, cfg)
    assert result.trace.outcome == "success"
    assert len(built) == hamilton.plan_sizes(g.n, cfg).t - 1


def test_pipeline_reports_a_cycle_the_verifier_rejects(monkeypatch):
    g = graphs.gen_paley(401)
    monkeypatch.setattr(hamilton, "close_cycle", lambda paths, connector, trace:
                        hamilton.HamiltonCycle((0,) * g.n))
    result = hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(seed=0))
    assert result.cycle is None
    assert result.trace.outcome == "failed:verification"
    assert result.trace.data["checks"][-1] == {
        "phase": "verification", "check": "hamilton", "holds": False,
        "detail": "repeated vertex"}


def test_pipeline_deterministic_trace():
    g = graphs.gen_paley(401)
    a = hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(seed=3))
    b = hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(seed=3))
    assert a.trace.to_json() == b.trace.to_json()
    assert a.cycle == b.cycle


def test_pipeline_rejects_weak_expander_cleanly():
    # two disjoint cliques: d-regular but lambda = d, so certification
    # gates the run before any construction starts
    k = 30
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i + k, j + k) for i, j in edges]
    g = graphs.Graph(2 * k, edges)
    result = hamilton.hamilton_pipeline(g, hamilton.PipelineConfig())
    assert result.cycle is None
    assert result.trace.outcome.startswith("failed:certification")


def test_pipeline_never_raises_on_sparse_graph():
    c = graphs.gen_named("cycle", 150)
    result = hamilton.hamilton_pipeline(c, hamilton.PipelineConfig())
    assert result.cycle is None
    assert result.trace.outcome.startswith("failed:")


def test_empty_graph_fails_certification_cleanly():
    empty = graphs.Graph(0, [])
    with pytest.raises(EmptyGraph):
        graphs.certify_expander(empty)
    with pytest.raises(ValueError):     # EmptyGraph is also a ValueError
        graphs.certify_expander(empty)
    result = hamilton.hamilton_pipeline(empty)
    assert result.cycle is None
    assert result.trace.outcome == "failed:certification:EmptyGraph"


def test_trace_json_is_valid(paley13):
    g = graphs.gen_paley(401)
    result = hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(seed=1))
    parsed = json.loads(result.trace.to_json())
    assert parsed["outcome"] == result.trace.outcome


# Each sampled window by its definition: the size of its target set from
# the size plan and its width in gamma caps, (1 +- caps * gamma) * d * |T| / n.
WINDOW_SPEC = {"P1": (lambda plan: plan.reserve_size, 2),
               "P5": (lambda plan: plan.k, 1),
               "Q3": (lambda plan: (plan.k + 1) // 2, 2),
               "Q4": (lambda plan: plan.k, 1),
               "Q5": (lambda plan: (plan.k + 1) // 2, 1)}


def _brute_violation(adj, plan, cfg, check, pairs):
    """The record text of the first vertex, over the (vertices, target
    set) `pairs` in turn, whose degree counted in the dense adjacency
    leaves the window of `check`; None if every degree is inside."""
    n = len(adj)
    size, caps = WINDOW_SPEC[check]
    target = adj.sum(axis=1).mean() * size(plan) / n
    lo = (1 - caps * cfg.gamma(check)) * target
    hi = (1 + caps * cfg.gamma(check)) * target
    for vertices, into in pairs:
        degrees = adj[np.ix_(vertices, into)].sum(axis=1)
        for v, deg in zip(vertices.tolist(), degrees.tolist()):
            if not lo <= deg <= hi:
                return f"deg({v})={deg} outside [{lo:.3f}, {hi:.3f}]"
    return None


def _brute_rejection(adj, plan, cfg, windows):
    """(check, record text) of the first of `windows`, each (check, where,
    pairs), that some degree leaves; None if none does."""
    for check, where, pairs in windows:
        bad = _brute_violation(adj, plan, cfg, check, pairs)
        if bad is not None:
            return check, where + bad
    return None


def _brute_partition(adj, plan, cfg):
    """The partition's expected window records and its accepted parts
    (X, Y, M), or None when every retry is rejected."""
    n, k, r = len(adj), plan.k, plan.reserve_size
    records = []
    for retry in range(cfg.max_partition_retries):
        perm = generator(cfg.seed, "partition", retry).permutation(n)
        x, y, reserve, middle = (np.sort(p) for p in np.split(perm, [k, 2 * k, 2 * k + r]))
        rejected = _brute_rejection(adj, plan, cfg, [
            ("P1", "into R: ", [(np.arange(n), reserve)]), ("P5", "", [(x, y), (y, x)])])
        if rejected is None:
            target = adj.sum(axis=1).mean() * r / n
            return records + [
                ("partition", "P1", True,
                 f"window ±{2 * cfg.gamma('P1'):.2f} around {target:.3f}"),
                ("partition", "P5", True, f"cross-degree gamma cap {cfg.gamma('P5')}")
            ], (x, y, middle)
        records.append(("partition", rejected[0], False, f"retry {retry}: {rejected[1]}"))
    return records, None


def _brute_repartition(adj, plan, cfg, x, y, middle):
    """The repartition's expected window records."""
    k, t, half = plan.k, plan.t, (plan.k + 1) // 2
    vertices = np.sort(np.concatenate([x, y, middle]))
    records = []
    for retry in range(cfg.max_repartition_retries):
        rng = generator(cfg.seed, "repartition", retry)
        blocks = np.sort(middle[rng.permutation(len(middle))].reshape(t - 2, k), axis=1)
        firsts = blocks[:, :half]
        rejected = _brute_rejection(adj, plan, cfg, (
            ("Q3", f"half of block {i}: ", [(vertices, firsts[i])]) for i in range(t - 2)))
        pairs = [(i, j) for i in range(t - 2) for j in range(i + 1, t - 2)]
        if rejected is None:
            if t > 12:    # the seeded sample of block pairs, drawn after the blocks
                sample = min(len(pairs), cfg.constant("q_pair_sample"))
                pairs = [pairs[int(i)] for i in
                         sorted(rng.choice(len(pairs), size=sample, replace=False))]
            rejected = _brute_rejection(adj, plan, cfg, (
                (check, f"{where} ({i},{j}): ", [(rows[i], rows[j]), (rows[j], rows[i])])
                for i, j in pairs
                for check, where, rows in (("Q4", "pair", blocks), ("Q5", "half pair", firsts))))
        if rejected is None:
            return records + [
                ("repartition", "Q3", True, f"gamma cap {cfg.gamma('Q3')}"),
                ("repartition", "Q4", True, f"{len(pairs)} pairs, gamma cap {cfg.gamma('Q4')}"),
                ("repartition", "Q5", True, f"gamma cap {cfg.gamma('Q5')}")]
        records.append(("repartition", rejected[0], False, f"retry {retry}: {rejected[1]}"))
    return records


@pytest.fixture(scope="module")
def paley401():
    g = graphs.gen_paley(401)
    return g, g.adjacency_dense().astype(int)


# Default caps (seed 18 rejects one partition on P5), caps whose
# repartition retries reject on Q4 or on Q5, and each golden failing run.
@pytest.mark.parametrize("cfg_data", [
    {"seed": 0}, {"seed": 1}, {"seed": 18},
    {"seed": 2, "gamma_caps": {"Q3": 0.51, "Q4": 0.5, "Q5": 0.8}},
    *(golden_digests.FAILURE_CONFIGS[check] for check in hamilton.WINDOWS)],
    ids=["default-seed0", "default-seed1", "default-seed18", "mixed-Q4-Q5",
         *(f"fails-{check}" for check in hamilton.WINDOWS)])
def test_every_window_row_matches_brute_force(paley401, cfg_data):
    """Every partition and repartition window record of a Paley 401 run,
    failed retries and passes, equals the one recomputed from the dense
    adjacency and the size plan: the target, the bounds and the first
    violator."""
    g, adj = paley401
    cfg = hamilton.PipelineConfig(**cfg_data)
    plan = hamilton.plan_sizes(g.n, cfg)
    expected, parts = _brute_partition(adj, plan, cfg)
    if parts is not None:
        expected += _brute_repartition(adj, plan, cfg, *parts)
    trace = hamilton.hamilton_pipeline(g, cfg).trace
    recorded = [(c["phase"], c["check"], c["holds"], c["detail"])
                for c in trace.data["checks"] if c["check"] in hamilton.WINDOWS]
    assert recorded == expected
    for check in hamilton.WINDOWS:    # a run pinned as failing on a row rejects on it
        if golden_digests.FAILURE_CONFIGS[check] == cfg_data:
            assert ("partition" if check[0] == "P" else "repartition", check, False) in \
                {record[:3] for record in recorded}


def _one_side_at_a_time(sides, degrees, targets, width):
    """The window rule as it read one side at a time: (vertex, degree, lo, hi)."""
    for side, deg, target in zip(sides, degrees, targets):
        lo, hi = (1 - width) * target, (1 + width) * target
        bad = np.flatnonzero((deg < lo) | (deg > hi))
        if bad.size:
            return int(side[bad[0]]), int(deg[bad[0]]), lo, hi
    return None


def _per_pair_repartition(g, d, plan, parts, cfg):
    """The repartition's retry loop as it read one block, one pair and one
    check at a time: its window records, and its blocks (None when every
    retry is rejected)."""
    n, k, t, half, everyone = g.n, plan.k, plan.t, plan.half, np.arange(g.n)
    vertices = np.sort(np.concatenate([parts.x, parts.y, parts.middle]))
    windows = {check: (d * getattr(plan, size) / n, caps * cfg.gamma(check))
               for check, (size, caps) in hamilton.WINDOWS.items()}

    def window(check, where, sides, degrees):
        target, width = windows[check]
        bad = _one_side_at_a_time(sides, degrees, (target,) * len(sides), width)
        if bad is not None:
            v, deg, lo, hi = bad
            raise hamilton._Rejected(check, f"{where}deg({v})={deg} outside [{lo:.3f}, {hi:.3f}]")

    records = []
    for retry in range(cfg.max_repartition_retries):
        rng = generator(cfg.seed, "repartition", retry)
        blocks = parts.middle[rng.permutation(len(parts.middle))].reshape(t - 2, k)
        blocks.sort(axis=1)
        try:
            halves = np.empty((2, t - 2, n), dtype=int)
            for i, block in enumerate(blocks):
                halves[:, i] = [g.cross_degree(everyone, h) for h in np.split(block, [half])]
                window("Q3", f"half of block {i}: ", (vertices,), (halves[0, i, vertices],))
            pairs = [(i, j) for i in range(t - 2) for j in range(i + 1, t - 2)]
            if t > 12:
                sample = min(len(pairs), cfg.constant("q_pair_sample"))
                idx = rng.choice(len(pairs), size=sample, replace=False)
                pairs = [pairs[int(i)] for i in sorted(idx)]
            degrees = (("Q4", "pair", halves.sum(axis=0), blocks),
                       ("Q5", "half pair", halves[0], blocks[:, :half]))
            for i, j in pairs:
                for check, where, deg, rows in degrees:
                    window(check, f"{where} ({i},{j}): ", (rows[i], rows[j]),
                           (deg[j, rows[i]], deg[i, rows[j]]))
        except hamilton._Rejected as rejected:
            check, detail = rejected.args
            records.append(("repartition", check, False, f"retry {retry}: {detail}"))
            continue
        return records + [
            ("repartition", "Q3", True, f"gamma cap {cfg.gamma('Q3')}"),
            ("repartition", "Q4", True, f"{len(pairs)} pairs, gamma cap {cfg.gamma('Q4')}"),
            ("repartition", "Q5", True, f"gamma cap {cfg.gamma('Q5')}")], blocks
    return records, None


# G(400, 0.2) reads CSR rows and G(300, 0.5) and Paley 401 unpacked bit
# rows; the tight caps reject retries on the named checks. Plans with
# t <= 12 check every block pair, the others a seeded sample.
@pytest.mark.parametrize("make, cfg_data, rejects", [
    (lambda: golden_digests.gnp(400, 0.2), {"k": 30, "gamma_caps": {"Q3": 1.0, "Q4": 0.7, "Q5": 0.7}},
     {"Q3", "Q4", "Q5"}),
    (lambda: golden_digests.gnp(400, 0.2), {"k": 30, "gamma_caps": {"Q3": 1.5, "Q4": 0.5}}, {"Q4"}),
    (lambda: golden_digests.gnp(300, 0.5), {"gamma_caps": {"Q3": 0.7, "Q4": 0.6, "Q5": 0.7}},
     {"Q4", "Q5"}),
    (lambda: golden_digests.gnp(300, 0.5), {"gamma_caps": {"Q3": 0.7, "Q4": 0.8, "Q5": 1.0}},
     {"Q5"}),
    (lambda: graphs.gen_paley(401), {"gamma_caps": {"Q3": 0.5, "Q4": 0.5, "Q5": 0.5}},
     {"Q3", "Q4", "Q5"}),
    (lambda: graphs.gen_paley(401), {}, set())],
    ids=["gnp-400-csr-tight", "gnp-400-csr-Q4", "gnp-300-bits-tight", "gnp-300-bits-passes",
         "paley-401-tight", "paley-401-default"])
def test_array_windows_match_the_per_pair_loop(make, cfg_data, rejects):
    g = make()
    assert (g._rows(np.arange(1)) is None) == (g.n == 400)     # the CSR route
    cfg = hamilton.PipelineConfig(seed=3, max_repartition_retries=40, **cfg_data)
    plan = hamilton.plan_sizes(g.n, cfg)
    perm = generator(3, "parts").permutation(g.n)
    parts = hamilton.Parts(*(np.sort(p) for p in np.split(
        perm, [plan.k, 2 * plan.k, 2 * plan.k + plan.reserve_size])))
    d = float(g.degrees().mean())
    expected, blocks = _per_pair_repartition(g, d, plan, parts, cfg)
    trace = hamilton.PipelineTrace(g.n, cfg)
    try:
        got = hamilton.repartition_phase(g, graphs.SpectralCertificate(g.n, d, 0.0, 0.0, 0.0, 0),
                                         plan, parts, cfg, trace)
    except PartitionRetriesExhausted:
        got = None
    assert [tuple(c.values()) for c in trace.data["checks"]] == expected
    assert (got is None and blocks is None) or np.array_equal(got, blocks)
    assert {c[1] for c in expected if not c[2]} == rejects
