"""Golden digests: one line per output that must not drift when the code
is refactored.

Each line holds q, the config as compact JSON, the outcome, the SHA-256
of the trace JSON plus the cycle line (as `expanderlab hamilton` prints
them) and, in its own column, the SHA-256 of the outcome, the cycle line
and the ordered (phase, check) of the trace's failed records, which a
change of the trace's shape alone leaves as it is. The runs are the
criterion-9 table (Paley q in {401, 1009, 2029}, config seeds 0-9) and
Paley 401 configs that fail on each partition and repartition check
(P1, P5, Q3, Q4, Q5), on the perfect-matching gamma cap and on the
lambda/d gate. Then one line per spectral certificate holds q, the CLI
seed and `float.hex` of `certify_expander`'s lambda_hat and residual,
for Paley q in {13, 101, 401, 1009, 2029} at the certificate seeds
`expanderlab certify --seed 0` and `--seed 11` use. One line holds the SHA-256
of the edges of `greedy_matching_avoiding` on criterion 7's 100 seeded
draws on Paley 101, and one the SHA-256 of the closing paths, or the
ConnectFailed message, of `connect_pairs` on 200 seeded draws on Paley
101 that reach every exit of the connector, and one the same digest on a
seeded G(120, 0.3) with l_max up to 6, whose successful draws route
paths of 3 and 4 edges and whose failed ones tear paths down (at Paley
density every route has at most 2 edges). Two lines hold the SHA-256
of `count_edges_between`'s (ordered, unordered, S n T) on 200 seeded
pairs of vertex sets, disjoint, overlapping, or unsorted with repeats:
on Paley 1009, dense enough that the count reads bit-packed rows, and on
a seeded G(600, 0.01), too sparse for them, whose count reads the CSR
rows. Below the cycle, on
seeded random vertex pairs (L, R) of Paley 401 and 1009, one line per
pair holds the SHA-256 of its maximum matching's edges, of its left and
right Hall violators, and of `certify_bipartite_expander`'s results
under three windows; two lines per subgraph experiment hold the SHA-256
of its trials' `float.hex` s2 and degrees_ok and, below it, of its whole
record (every field and trial, floats as `float.hex`; the bipartite
record's `hypotheses_hold` is null, since that experiment checks no
hypothesis). Two lines hold the
SHA-256 of the graph file `write_graph` writes for Paley 401 and 2029
(the larger one spans several of the writer's and reader's chunks). The
last lines hold the SHA-256 of each artifact that `expanderlab` writes on
Paley 101, each command that draws at `--seed 7`: `certify` as CSV and
JSON, `eml` as CSV and JSON, two `subsample` summaries with their
`.trials.csv` files, `summarize` over the two, `submatrix` in both modes
on Paley 61's adjacency matrix, `match` in both modes, the `hamilton`
trace with its `.cycle.txt`, and `verify` of that cycle. The manifests
carry wall time and are not hashed. Neighbour
order feeds scipy's Hopcroft-Karp (`maximum_bipartite_matching`), the
greedy matching and the connector's shuffles, so a change of
tie-breaking anywhere in the pipeline changes these digests.

Two commits produce the same outputs when their printed lines are
identical. `tests/golden_digests.txt` holds the committed output, and
`tests/test_golden.py` checks every line of `lines()` against it. The
script pins one BLAS thread itself (the last bits of the certificate
and experiment s2 values depend on OpenBLAS's thread count), so it
needs no environment variables. After a declared output change,
re-pin from the root of the checkout (or with the package installed,
without PYTHONPATH):

    PYTHONPATH=src python3 scripts/golden_digests.py > tests/golden_digests.txt
"""

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

# One BLAS thread, set before anything imports numpy, as tests/conftest.py
# does.
os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from expanderlab import (cli, extend, graphs, hamilton,  # noqa: E402
                         matching, mixing, sampling)
from expanderlab.errors import ConnectFailed  # noqa: E402
from expanderlab.rng import child_seed, generator  # noqa: E402

# Config of one Paley 401 run failing on each check named by its key.
FAILURE_CONFIGS = {
    "P1": {"seed": 0, "gamma_caps": {"P1": 0.02}},
    "P5": {"seed": 0, "gamma_caps": {"P5": 0.05}},
    "Q3": {"seed": 0, "gamma_caps": {"Q3": 0.1}},
    "Q4": {"seed": 0, "gamma_caps": {"Q4": 0.1}},
    "Q5": {"seed": 0, "gamma_caps": {"Q5": 0.1}},
    "pm_gamma_cap": {"seed": 1, "constant_overrides": {"pm_gamma_cap": 0.05}},
    "lambda_ratio_cap": {"seed": 0, "constant_overrides": {"lambda_ratio_cap": 0.03}},
}
# (view seed, |L|, |R|) of the seeded vertex pairs: balanced, unbalanced
# (the larger side has a Hall violator) and small enough for a
# balanced pair to miss a perfect matching.
VIEWS = [(0, 24, 24), (1, 30, 18), (2, 5, 5), (3, 6, 6), (4, 4, 4)]
# (gamma, lambda as a multiple of sqrt(d')) of three bipartite
# certificates, d' being the pair's share of the mean degree: on these
# pairs the first fails a cross-degree window, the second the s2 bound,
# and the third holds.
BIPARTITE_WINDOWS = [(0.3, 1.0), (2.0, 1.0), (2.0, 3.0)]
EXPERIMENT_SEEDS = (0, 1)
# (output file, arguments) of each CLI run on Paley 101, with `--out` the
# output file in one directory and `--seed 7` on each command that draws;
# {graph} stands for the graph file, {matrix} for Paley 61's adjacency
# matrix, {summaries} for the directory of the subsample summaries and
# {cycle} for the cycle file of the `hamilton` run.
CLI_RUNS = [
    ("certify.csv", ["certify", "--seed", "7", "--format", "csv", "{graph}"]),
    ("certify.json", ["certify", "--seed", "7", "{graph}"]),
    ("eml.csv", ["eml", "--seed", "7", "--format", "csv", "--graph", "{graph}",
                 "--samples", "50"]),
    ("eml.json", ["eml", "--seed", "7", "--graph", "{graph}", "--samples", "50"]),
    *((f"summaries/subsample-{sigma}.json",
       ["subsample", "--seed", "7", "--graph", "{graph}", "--sigma", sigma,
        "--trials", "20", "--gamma-target", "0.3"]) for sigma in ("0.3", "0.5")),
    ("summarize.csv", ["summarize", "{summaries}"]),
    ("submatrix-bernoulli.json", ["submatrix", "two_sided_bernoulli", "--seed", "7",
                                  "--matrix", "{matrix}", "--sigma", "0.3", "--trials", "20"]),
    ("submatrix-uniform.json", ["submatrix", "symmetric_uniform", "--seed", "7",
                                "--matrix", "{matrix}", "--m", "20", "--trials", "20"]),
    ("match-max.json", ["match", "max", "--graph", "{graph}", "--left", "0,2,4,6,8,10",
                        "--right", "1,3,5,7,9,11,13"]),
    ("match-perfect.json", ["match", "perfect", "--seed", "7", "--graph", "{graph}",
                            "--left", "0,1,2,3,4,5,6,7,8,9",
                            "--right", "10,11,12,13,14,15,16,17,18,19"]),
    ("trace.json", ["hamilton", "--seed", "7", "{graph}"]),
    ("verify.json", ["verify", "{graph}", "{cycle}"]),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def config_key(cfg_data: dict) -> str:
    """The config as the compact JSON a run's line prints."""
    return json.dumps(cfg_data, sort_keys=True, separators=(",", ":"))


def run_digests(g, cfg_data: dict) -> tuple:
    """(outcome, trace digest, cycle digest) of one pipeline run: the
    SHA-256 of the trace JSON plus cycle line, and of repr((outcome, cycle
    line or None, [(phase, check) of each failed record, in order]))."""
    result = hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(**cfg_data))
    line = None if result.cycle is None else result.cycle.to_line()
    text = result.trace.to_json() + "\n" + ("" if line is None else line + "\n")
    failed = [(c["phase"], c["check"]) for c in result.trace.data["checks"]
              if not c["holds"]]
    return (result.trace.outcome, sha256(text),
            sha256(repr((result.trace.outcome, line, failed))))


def certificate_bits(g, cli_seed: int) -> tuple:
    """float.hex of (lambda_hat, residual) of the certificate that
    `expanderlab certify --seed cli_seed` computes."""
    cert = graphs.certify_expander(g, seed=child_seed(cli_seed, "certify"))
    return cert.lambda_hat.hex(), cert.residual.hex()


def greedy_digest(g, cert) -> str:
    """SHA-256 of the edges of `greedy_matching_avoiding` on the 100
    seeded draws of (V1, V2, S1, S2) that acceptance criterion 7 makes."""
    theta = mixing.one_edge_threshold(cert)
    rng = generator(0, "acceptance-greedy")
    edges = []
    for _ in range(100):
        perm = rng.permutation(g.n)
        a, b = int(rng.integers(30, 46)), int(rng.integers(30, 46))
        v1, v2 = perm[:a], perm[a:a + b]
        k1 = int(rng.integers(0, max(1, int(a - theta - 1))))
        k2 = int(rng.integers(0, max(1, int(b - theta - 1))))
        m = matching.greedy_matching_avoiding(g, cert, v1, v2, v1[:k1], v2[:k2])
        edges.append(m.to_json())
    return sha256("\n".join(edges))


def connector_digest(g, top_l_max: int) -> str:
    """SHA-256 of the closing paths, or the ConnectFailed message, of
    `connect_pairs` on 200 seeded draws of up to 7 port pairs, a reserve
    that fits the length budget and l_max in 2..top_l_max."""
    outputs = []
    for draw in range(200):
        rng = generator(0, "connector-draw", draw)
        k, l_max = int(rng.integers(1, 8)), int(rng.integers(2, top_l_max + 1))
        r = int(rng.integers(k, k * (l_max - 1) + 1))
        perm = rng.permutation(g.n)
        x, y, reserve = perm[:k], perm[k:2 * k], perm[2 * k:2 * k + r]
        pairs = list(zip(x.tolist(), rng.permutation(y).tolist()))
        conn = extend.build_connector(g, x, y, reserve, l_max,
                                      seed=int(rng.integers(2 ** 31)),
                                      min_reserve_ratio=1.0)
        try:
            outputs.append(json.dumps(conn.connect_pairs(pairs)))
        except ConnectFailed as exc:
            outputs.append(str(exc))
    return sha256("\n".join(outputs))


def gnp(n: int, p: float) -> graphs.Graph:
    """The seeded Erdos-Renyi graph G(n, p): each of the n(n-1)/2 pairs
    is an edge with probability p."""
    u, v = np.triu_indices(n, 1)
    keep = generator(0, "connector-gnp").random(len(u)) < p
    return graphs.Graph(n, np.column_stack([u[keep], v[keep]]))


def audit_digest(g) -> str:
    """SHA-256 of `count_edges_between`'s (ordered, unordered, S n T) on
    200 seeded pairs with sizes in [1, n/2): in turn disjoint slices of
    one permutation, independent draws that overlap, and draws with
    repeats, each passed unsorted."""
    rng = generator(0, "audit-counts")
    counts = []
    for i in range(200):
        a, b = (int(x) for x in rng.integers(1, g.n // 2, size=2))
        if i % 3 == 0:
            perm = rng.permutation(g.n)
            s, t = perm[:a], perm[a:a + b]
        else:
            replace = i % 3 == 2
            s = rng.choice(g.n, a, replace=replace)
            t = rng.choice(g.n, b, replace=replace)
        ordered, unordered, both = g.count_edges_between(s, t)
        counts.append((ordered, unordered, both.tolist()))
    return sha256(repr(counts))


def view_digests(g, cert, view_seed: int, a: int, b: int) -> tuple:
    """SHA-256 of the maximum matching, the (left, right) Hall violators
    and the bipartite certificates of one seeded pair."""
    perm = np.random.default_rng(view_seed).permutation(g.n)
    left, right = perm[:a], perm[a:a + b]
    view = graphs.BipartiteView(parent=g, left=left, right=right)
    edges = matching.max_matching(view).to_json()
    violators = [matching.hall_violator(pair) for pair in
                 (view, graphs.BipartiteView(parent=g, left=right, right=left))]
    d = cert.d * (a + b) / g.n
    certificates = [graphs.certify_bipartite_expander(view, gamma, scale * d ** 0.5)
                    for gamma, scale in BIPARTITE_WINDOWS]
    return (sha256(edges),
            sha256(repr([None if s is None else sorted(s) for s in violators])),
            sha256(repr(certificates)))


def experiment_digest(experiment) -> str:
    """SHA-256 of the (float.hex s2, degrees_ok) of each trial."""
    return sha256(repr([(r.s2.hex(), r.degrees_ok) for r in experiment.per_trial]))


def experiment_record_digest(experiment) -> str:
    """SHA-256 of every field of a `SubgraphExperiment`, its trials'
    included, with floats as `float.hex`."""
    return sha256(json.dumps(_hexed(dataclasses.asdict(experiment))))


def _hexed(value):
    """`value` with each float as `float.hex`, numpy scalars as Python
    ones, tuples as lists and None as it is."""
    if isinstance(value, dict):
        return {key: _hexed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return None if value is None else int(value)


def cli_digests():
    """(artifact path, SHA-256) of each file but the manifests that the
    `CLI_RUNS` write, in path order."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = {"graph": root / "paley101.txt", "matrix": root / "paley61.txt",
                  "summaries": root / "summaries", "cycle": root / "trace.cycle.txt"}
        graphs.write_graph(graphs.gen_paley(101), inputs["graph"])
        adjacency = graphs.gen_paley(61).adjacency_dense().astype(float)
        np.savetxt(inputs["matrix"], adjacency, header="61 61", comments="")
        inputs["summaries"].mkdir()
        for out, argv in CLI_RUNS:
            cli.main(["--out", str(root / out), *(a.format(**inputs) for a in argv)])
        artifacts = sorted(p for p in root.rglob("*") if p.is_file()
                           and p not in (inputs["graph"], inputs["matrix"])
                           and not p.name.endswith(".manifest.json"))
        return [(p.relative_to(root).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
                for p in artifacts]


def below_the_cycle(q: int, g):
    """Digest lines of the matching, bipartite-certificate and subgraph
    experiment layers on Paley q."""
    cert = graphs.certify_expander(g, seed=child_seed(0, "certify"))
    for view_seed, a, b in VIEWS:
        m, hall, bip = view_digests(g, cert, view_seed, a, b)
        yield (q, f"view {view_seed} {a}+{b}", "matching", m, "hall", hall,
               "bipartite", bip)
    for seed in EXPERIMENT_SEEDS:
        plain = sampling.induced_subgraph_experiment(
            g, cert, 0.5, trials=3, seed=seed, gamma_target=0.1)
        bipartite = sampling.bipartite_induced_experiment(
            g, cert, 0.25, 0.25, trials=3, seed=seed, gamma_target=0.1)
        yield q, f"induced-subgraph seed {seed}", experiment_digest(plain)
        yield (q, f"induced-subgraph record seed {seed}",
               experiment_record_digest(plain))
        yield q, f"bipartite-induced seed {seed}", experiment_digest(bipartite)
        yield (q, f"bipartite-induced record seed {seed}",
               experiment_record_digest(bipartite))


def lines():
    """Each digest line, as printed."""
    for fields in _fields():
        yield " ".join(map(str, fields))


def _fields():
    """The fields of each digest line."""
    runs = [(q, {"seed": s}) for q in (401, 1009, 2029) for s in range(10)]
    runs += [(401, cfg) for cfg in FAILURE_CONFIGS.values()]
    paley = {}
    for q, cfg_data in runs:
        g = paley.setdefault(q, graphs.gen_paley(q))
        yield q, config_key(cfg_data), *run_digests(g, cfg_data)
    for q in (13, 101, 401, 1009, 2029):
        g = paley.get(q) or graphs.gen_paley(q)
        for cli_seed in (0, 11):
            yield q, f"certify --seed {cli_seed}", *certificate_bits(g, cli_seed)
    p101 = graphs.gen_paley(101)
    yield 101, "greedy", greedy_digest(p101, graphs.certify_expander(p101, seed=0))
    yield 101, "connector", connector_digest(p101, 4)
    yield 120, "connector gnp-0.3", connector_digest(gnp(120, 0.3), 6)
    yield 1009, "audit-counts", audit_digest(paley[1009])
    yield 600, "audit-counts gnp-0.01", audit_digest(gnp(600, 0.01))
    for q in (401, 1009):
        yield from below_the_cycle(q, paley[q])
    for q in (401, 2029):
        graph_file = graphs.graph_file_bytes(paley[q])
        yield q, "graph-file", hashlib.sha256(graph_file).hexdigest()
    for artifact, digest in cli_digests():
        yield 101, "cli", artifact, digest


def main():
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
