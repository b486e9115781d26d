"""Tests of the benchmark itself: every independent check rejects a
corrupted output, the tracer's self times and counts are right, and
every workload runs clean on a small Paley graph.

    python3 -m pytest bench/
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from expanderlab import graphs, mixing, sampling  # noqa: E402

SMALL = {"pipeline": 401, "audit": 101, "subsample": 101}


@pytest.fixture(scope="module")
def paley101():
    g = graphs.gen_paley(101)
    return g, graphs.certify_expander(g, seed=0)


def test_residue_adjacency_is_the_paley_graph():
    for q in (13, 101):
        adj = checks.paley_adjacency(q, checks.residue_mask(q))
        assert np.array_equal(adj, graphs.gen_paley(q).adjacency_dense() == 1)


def test_cycle_check_rejects_a_non_edge_step():
    q = 101
    mask = checks.residue_mask(q)
    order = list(range(q))           # steps of +1: a Hamilton cycle of Paley(q)
    assert checks.check_cycle(order, q, mask) is None
    r = next(x for x in range(2, q) if not mask[x])
    order[1], order[r] = order[r], order[1]     # now 0 -> r is a step
    assert not graphs.gen_paley(q).has_edge(0, r)
    assert "not an edge" in checks.check_cycle(order, q, mask)


def test_cycle_check_rejects_a_repeated_vertex():
    q = 101
    order = list(range(q))
    order[5] = 4
    assert "permutation" in checks.check_cycle(order, q, checks.residue_mask(q))


def test_audit_check_rejects_a_count_off_by_one(paley101):
    g, cert = paley101
    rng = np.random.default_rng(0)
    s, t = rng.choice(101, 40, replace=False), rng.choice(101, 30, replace=False)
    expected = checks.audit_counts(
        checks.paley_adjacency(101, checks.residue_mask(101)), s, t)
    assert expected[0] > expected[1]       # S and T overlap: the counts differ
    audit = mixing.eml_graph_audit(cert, g, s, t)
    assert checks.check_audit(audit, expected) is None
    for name in ("ordered_count", "unordered_count"):
        for step in (-1, 1):
            bad = dataclasses.replace(audit, **{name: getattr(audit, name) + step})
            assert checks.check_audit(bad, expected) is not None
    assert checks.check_audit(dataclasses.replace(audit, holds=False),
                              expected) is not None


def test_experiment_check_rejects_a_wrong_s2_or_degree_window(paley101):
    g, cert = paley101
    exp = sampling.induced_subgraph_experiment(g, cert, 0.5, trials=3, seed=0,
                                               gamma_target=0.25)
    adj = checks.paley_adjacency(101, checks.residue_mask(101))

    def check(e):
        return checks.check_experiment(e, 101, adj, 0.5, 0.25)

    def with_trial(**changes):
        rec = dataclasses.replace(exp.per_trial[1], **changes)
        return dataclasses.replace(
            exp, per_trial=(exp.per_trial[0], rec) + exp.per_trial[2:])

    assert check(exp) is None
    assert "interlacing" in check(with_trial(s2=checks.s2_bound(101) + 1e-6))
    assert "eigvalsh" in check(with_trial(s2=exp.per_trial[1].s2 - 1e-4))
    assert "eigvalsh" in check(with_trial(s2=exp.per_trial[1].s2 + 1e-4))
    assert "degrees_ok" in check(
        with_trial(degrees_ok=not exp.per_trial[1].degrees_ok))
    assert exp.success_fraction == 1.0
    assert "recomputed" in check(dataclasses.replace(exp, success_fraction=2 / 3))
    assert "floor" in check(dataclasses.replace(exp, success_fraction=1 / 3))


def test_a_cycle_the_library_rejects_is_a_wrong_output():
    from types import SimpleNamespace
    workload = workloads.Pipeline(seed=1, q=13)
    result = SimpleNamespace(cycle=None, trace=SimpleNamespace(
        data={"checks": []}, outcome="failed:verification"))
    assert workload.check(7, result)[1] is True
    result.trace.outcome = "failed:partition:RetryExhausted"
    assert workload.check(7, result)[1] is False


def test_self_time_subtracts_child_spans():
    tr = tracer.Tracer()

    def inner():
        time.sleep(0.05)

    traced_inner = tr._span(inner)

    def outer():
        traced_inner()
        time.sleep(0.01)

    tr._span(outer)()
    totals = {name.rsplit(".", 1)[-1]: seconds[tr.SETUP]
              for name, (seconds, _) in tr.totals().items()}
    assert 0.05 <= totals["inner"] < 0.2
    assert 0.01 <= totals["outer"] < 0.05      # without inner's 0.05 s


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_runs_clean_on_a_small_paley_graph(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=1, q=SMALL[name])
    m = workloads.measure(workload, 0.0, tmp_path)
    assert (m.rounds, m.failed, m.wrong) == (1, 0, 0), m.messages
    assert m.ops == len(workload.inputs) * workload.ops_per_call
    assert len(m.setup_s) == workloads.SETUPS
    assert list(tmp_path.iterdir()) == []      # the graph file is removed
    metrics = run.end_to_end_metrics(m, import_s=0.1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {e["name"]: e["unit"] for e in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_runs_report_every_per_layer_metric_and_repeat_counts(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {e["name"]: e["unit"] for e in spec["per_layer"]}
    original = graphs.Graph.induced
    runs = []
    for _ in range(2):
        workload = workloads.Pipeline(seed=1, q=SMALL["pipeline"])
        tr = tracer.Tracer()
        tr.install()
        try:
            m = workloads.measure(workload, 0.0, tmp_path, tr)
        finally:
            tr.uninstall()
        assert m.failed == 0, m.messages
        runs.append(run.per_layer_metrics(tr, workload, m))
    assert graphs.Graph.induced is original
    first, second = runs
    assert {k: v["unit"] for k, v in first.items()} == declared
    for name in ("graphs.Graph.induced.calls", "graphs.Graph.cross_degree.calls",
                 "linalg.singular_values_array.calls", "matching.max_matching.calls"):
        assert first[name]["value"] > 0
    counts = [k for k, u in declared.items() if u in ("calls/op", "retries/op")]
    assert [first[k] for k in counts] == [second[k] for k in counts]
    for name in ("hamilton.partition_phase.s", "hamilton.repartition_phase.s",
                 "graphs.Graph.induced.s", "graphs.gen_paley.s"):
        assert first[name]["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
