"""Top-level acceptance battery.

Each test prints one ``CRITERION k: PASS/FAIL`` line and enforces its
runtime budget. Criterion 5 is expected to fail: at n = 1009 with
sigma = 0.3 the configured degree window gamma_target = 0.05 is far
below what hypergeometric concentration can deliver at this scale
(the concentration hypothesis needs sigma*d on the order of
gamma^-2 * ln n, i.e. ~2767, against an actual 151). The failure is
reported honestly; the companion demonstration right below it shows
the same experiment passing once the window is widened to the value
the hypothesis actually supports.
"""

import itertools
import json
import math
import time

import numpy as np

from expanderlab import (cli, extend, graphs, hamilton, linalg, matching,
                         mixing, sampling)
from expanderlab.rng import generator


def _report(criterion: int, ok: bool, detail: str):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _budget(criterion: int, started: float, limit: float):
    elapsed = time.monotonic() - started
    assert elapsed < limit, \
        f"criterion {criterion} took {elapsed:.1f}s, budget {limit}s"


def test_criterion_01_spectral_oracle_agreement():
    started = time.monotonic()
    fixtures = []
    for n in (4, 8, 16, 32, 64):
        fixtures.append(graphs.gen_named("complete", n))
    for n in (5, 12, 33, 64):
        fixtures.append(graphs.gen_named("cycle", n))
    fixtures.append(graphs.gen_named("petersen"))
    for q in (5, 13, 17, 29, 37, 41, 53, 61):
        fixtures.append(graphs.gen_paley(q))
    rng = generator(0, "acceptance-random-graphs")
    mats = [g.adjacency_dense() for g in fixtures]
    for _ in range(200):
        n = int(rng.integers(3, 65))
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        mats.append((upper | upper.T).astype(float))
    worst = 0.0
    for i, a in enumerate(mats):
        spec = linalg.singular_values_array(a, 2, seed=i)
        dense = linalg.dense_singular_values(a)
        worst = max(worst, abs(spec.values[0] - dense[0]),
                    abs(spec.values[1] - dense[1]))
    _budget(1, started, 10)
    _report(1, worst < 1e-8,
            f"{len(mats)} fixtures, max |iterative - dense| = {worst:.2e}")


def test_criterion_02_paley_closed_form():
    started = time.monotonic()
    worst = 0.0
    for q in (5, 13, 17, 29, 101, 1009):
        g = graphs.gen_paley(q)
        spec = linalg.singular_values_array(g.adjacency_sparse(), 2, seed=q,
                                            symmetric=True)
        worst = max(worst, abs(spec.values[1] - (1 + math.sqrt(q)) / 2))
    _budget(2, started, 30)
    _report(2, worst <= 1e-6,
            f"max |s2 - (1+sqrt(q))/2| = {worst:.2e} over six primes")


def test_criterion_03_eml_never_violated():
    started = time.monotonic()
    rng = generator(0, "acceptance-eml")
    violations = 0
    total = 0

    # matrix form: 50k audits over four matrices with precomputed s2
    matrix_fixtures = [
        graphs.gen_paley(13).adjacency_dense().astype(float),
        graphs.gen_named("petersen").adjacency_dense().astype(float),
        np.ones((24, 24)),
        rng.random((20, 20)) + 0.05,
    ]
    for arr in matrix_fixtures:
        bar, _, _ = linalg.normalize_array(arr)
        s2_bar = linalg.dense_singular_values(bar)[1]
        n = arr.shape[0]
        for _ in range(12_500):
            a, b = rng.integers(1, n // 2 + 1, size=2)
            perm = rng.permutation(n)
            audit = mixing.eml_matrix_audit(arr, perm[:a], perm[a:a + b],
                                            s2_bar=s2_bar)
            violations += not audit.holds
            total += 1

    # graph form: 50k audits over two Paley graphs with certificates
    for q in (61, 101):
        g = graphs.gen_paley(q)
        cert = graphs.certify_expander(g, seed=q)
        for _ in range(25_000):
            a, b = rng.integers(1, q // 2, size=2)
            perm = rng.permutation(q)
            audit = mixing.eml_graph_audit(cert, g, perm[:a], perm[a:a + b])
            violations += not (audit.holds and audit.unordered_holds)
            total += 1

    _budget(3, started, 120)
    _report(3, total == 100_000 and violations == 0,
            f"{total} audits, {violations} violations")


def test_criterion_04_submatrix_bound_battery():
    started = time.monotonic()
    rng = generator(0, "acceptance-battery")
    battery = [("identity", np.eye(64)), ("all_ones", np.ones((64, 64)))]
    for q in (61, 101):
        g = graphs.gen_paley(q)
        a = g.adjacency_dense().astype(float)
        battery.append((f"paley_{q}_centered",
                        a - (g.degree(0) / q) * np.ones((q, q))))
    for i in range(16):
        m = rng.integers(0, 2, size=(48, 48)) * 2.0 - 1.0
        battery.append((f"rademacher_{i}", np.triu(m) + np.triu(m, 1).T))
    assert len(battery) == 20

    failed_batches = []
    for name, arr in battery:
        n = arr.shape[0]
        for mode in ("two_sided_bernoulli", "symmetric_uniform"):
            for batch in range(10):      # 10 batches x 50 trials = 500
                est = sampling.submatrix_norm_experiment(
                    arr, mode, sigma=0.3, m=max(1, int(0.3 * n)),
                    trials=50, seed=batch)
                if not est.holds:
                    failed_batches.append((name, mode, batch))
    _budget(4, started, 300)
    _report(4, not failed_batches,
            f"20 matrices x 2 models x 10 batches; failures: {failed_batches}")


def test_criterion_05_induced_subgraph_paley_1009(paley1009, cert1009):
    started = time.monotonic()
    floor = 1 - 1009 ** (-1 / 6)
    exp = sampling.induced_subgraph_experiment(
        paley1009, cert1009, 0.3, trials=200, seed=0, gamma_target=0.05)
    _budget(5, started, 180)
    _report(5, exp.success_fraction >= floor,
            f"success fraction {exp.success_fraction:.3f} vs floor "
            f"{floor:.3f} with gamma_target = 0.05 "
            f"(hypotheses_hold={exp.hypotheses_hold}; the window is "
            "narrower than concentration supports at this n — see the "
            "companion demonstration)")


def test_companion_gamma_consistent_with_concentration(paley1009, cert1009):
    # not an acceptance criterion: the same experiment with the widest
    # window the concentration hypothesis actually supports at n = 1009
    sigma = 0.3
    gamma = math.sqrt(math.log(1009) / (sigma * cert1009.d))
    floor = 1 - 1009 ** (-1 / 6)
    exp = sampling.induced_subgraph_experiment(
        paley1009, cert1009, sigma, trials=200, seed=0, gamma_target=gamma)
    assert exp.success_fraction >= floor
    bip = sampling.bipartite_induced_experiment(
        paley1009, cert1009, sigma, sigma, trials=50, seed=0,
        gamma_target=gamma)
    assert bip.success_fraction >= 1 - 1009 ** (-1 / 7)


def test_criterion_06_perfect_matchings(paley1009, cert1009):
    started = time.monotonic()
    rng = generator(0, "acceptance-pm")
    wins = 0
    for i in range(100):
        perm = rng.permutation(1009)
        left, right = perm[:150], perm[150:300]
        view = graphs.BipartiteView(parent=paley1009, left=left, right=right)
        bipcert = graphs.certify_bipartite_expander(
            view, gamma=0.5, lam=0.2 * cert1009.d, seed=i)
        if not isinstance(bipcert, graphs.BipartiteCertificate):
            continue
        m = matching.perfect_matching_expander(
            view, bipcert.s2_observed, gamma_cap=1.2, ratio_cap=0.2)
        if m.size == 150 and matching.verify_matching(m, paley1009,
                                                      left, right):
            wins += 1
    _budget(6, started, 60)
    _report(6, wins == 100,
            f"{wins}/100 certified instances produced verified perfect "
            "matchings")


def test_criterion_07_greedy_floor(paley101, cert101):
    started = time.monotonic()
    theta = mixing.one_edge_threshold(cert101)
    rng = generator(0, "acceptance-greedy")
    wins = 0
    for _ in range(100):
        perm = rng.permutation(101)
        a = int(rng.integers(30, 46))
        b = int(rng.integers(30, 46))
        v1, v2 = perm[:a], perm[a:a + b]
        k1 = int(rng.integers(0, max(1, int(a - theta - 1))))
        k2 = int(rng.integers(0, max(1, int(b - theta - 1))))
        s1, s2 = v1[:k1], v2[:k2]
        m = matching.greedy_matching_avoiding(paley101, cert101, v1, v2,
                                              s1, s2)
        floor = max(0, math.ceil(min(a - k1 - theta, b - k2 - theta)))
        wins += m.size >= floor
    _budget(7, started, 30)
    _report(7, wins == 100, f"{wins}/100 greedy runs met the size floor")


def test_criterion_08_hypergeometric_bounds():
    started = time.monotonic()
    worst = -math.inf
    checked = 0
    a_grid = (0.1, 0.4, 0.8, 1.2, 1.45)
    for big_n in range(2, 61, 3):
        step = max(1, big_n // 6)
        for k in range(0, big_n + 1, step):
            for n in range(0, big_n + 1, step):
                for a in a_grid:
                    for side in ("lower", "upper"):
                        bound = sampling.hypergeometric_tail(
                            big_n, k, n, a, side)
                        exact = sampling.exact_hypergeometric_tail(
                            big_n, k, n, a, side)
                        worst = max(worst, exact - bound)
                        checked += 1
    _budget(8, started, 30)
    _report(8, worst <= 1e-12,
            f"{checked} grid points, max(exact - bound) = {worst:.2e}")


def test_criterion_09_pipeline_three_scales():
    started = time.monotonic()
    results = {}
    ok = True
    for q in (401, 1009, 2029):
        g = graphs.gen_paley(q)
        wins = 0
        for seed in range(10):
            result = hamilton.hamilton_pipeline(
                g, hamilton.PipelineConfig(seed=seed))
            if result.cycle is not None:
                assert hamilton.verify_hamilton_cycle(g, result.cycle)
                wins += 1
        results[q] = wins
        ok = ok and wins >= 9
    _budget(9, started, 600)
    _report(9, ok, f"verified cycles per q over 10 seeds: {results}")


def _adversarial_inputs():
    """50 (graph, config) pairs that must all fail cleanly."""
    cases = []
    # 10 disconnected unions of two cliques
    for k in range(10, 20):
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        edges += [(i + k, j + k) for i, j in edges]
        cases.append((graphs.Graph(2 * k, edges), hamilton.PipelineConfig()))
    # 10 near-bipartite weak expanders
    for n in (40, 60, 80, 100, 120, 140, 160, 180, 200, 220):
        cases.append((graphs.gen_named("complete_bipartite", n),
                      hamilton.PipelineConfig()))
    # 10 long cycles (spectral gap collapses)
    for n in range(50, 501, 50):
        cases.append((graphs.gen_named("cycle", n),
                      hamilton.PipelineConfig()))
    # 10 tiny-reserve / infeasible-plan configurations on a good graph
    paley401 = graphs.gen_paley(401)
    for k in (120, 140, 160, 180, 199):
        cases.append((paley401, hamilton.PipelineConfig(k=k)))
    for l_max in (2, 3):
        cases.append((paley401, hamilton.PipelineConfig(l_max=l_max)))
    cases.append((paley401, hamilton.PipelineConfig(min_reserve_ratio=50.0)))
    cases.append((graphs.gen_paley(13), hamilton.PipelineConfig()))
    cases.append((graphs.gen_paley(17), hamilton.PipelineConfig()))
    # 10 sparse random regular graphs (lambda/d above the gate)
    for seed in range(10):
        cases.append((graphs.gen_random_regular(100, 4, seed=seed),
                      hamilton.PipelineConfig()))
    return cases


def test_criterion_10_soundness_under_failure():
    started = time.monotonic()
    cases = _adversarial_inputs()
    assert len(cases) == 50
    bad = []
    for i, (g, cfg) in enumerate(cases):
        result = hamilton.hamilton_pipeline(g, cfg)
        if result.cycle is not None:
            if not hamilton.verify_hamilton_cycle(g, result.cycle):
                bad.append((i, "unverified cycle"))
        else:
            outcome = result.trace.outcome
            if not (outcome.startswith("failed:")
                    and len(outcome.split(":")) == 3):
                bad.append((i, outcome))
    _budget(10, started, 120)
    _report(10, not bad,
            f"50 adversarial inputs, all clean named-phase failures "
            f"or verified cycles; anomalies: {bad}")


def _write_artifacts(out_dir):
    """One run of every artifact-producing subcommand at a fixed seed."""
    g = out_dir / "g.txt"
    assert cli.main(["--out", str(g), "gen", "paley", "401"]) == 0
    assert cli.main(["--out", str(out_dir / "cert.json"),
                     "certify", "--seed", "11", str(g)]) == 0
    assert cli.main(["--out", str(out_dir / "eml.csv"),
                     "eml", "--seed", "11", "--format", "csv", "--graph", str(g),
                     "--samples", "50"]) == 0
    assert cli.main(["--out", str(out_dir / "sub.json"),
                     "subsample", "--seed", "11", "--graph", str(g), "--sigma", "0.5",
                     "--trials", "10", "--gamma-target", "0.3"]) == 0
    mat = out_dir / "b.txt"
    arr = graphs.gen_paley(61).adjacency_dense().astype(float)
    np.savetxt(mat, arr, header=f"{arr.shape[0]} {arr.shape[1]}", comments="")
    assert cli.main(["--out", str(out_dir / "mom.json"),
                     "submatrix", "symmetric_uniform", "--seed", "11",
                     "--matrix", str(mat), "--m", "20", "--trials", "20"]) == 0
    assert cli.main(["--out", str(out_dir / "trace.json"),
                     "hamilton", "--seed", "11", str(g)]) == 0
    assert cli.main(["--out", str(out_dir / "m.json"),
                     "match", "max", "--graph", str(g),
                     "--left", "0,1,2,3", "--right", "4,5,6,7"]) == 0
    return sorted(p for p in out_dir.iterdir()
                  if not p.name.endswith(".manifest.json"))


def test_criterion_11_byte_identical_reruns(tmp_path):
    started = time.monotonic()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_a.mkdir(), run_b.mkdir()
    files_a = _write_artifacts(run_a)
    files_b = _write_artifacts(run_b)
    assert [p.name for p in files_a] == [p.name for p in files_b]
    diffs = [a.name for a, b in zip(files_a, files_b)
             if a.read_bytes() != b.read_bytes()]
    _budget(11, started, 120)
    _report(11, not diffs,
            f"{len(files_a)} artifact files per run, byte-diffs: {diffs}")
