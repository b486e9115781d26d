"""Golden digests: outputs that must not drift when the code is refactored.

The SHA-256 of the trace JSON plus cycle line (as `expanderlab hamilton`
prints them) for Paley 401 at config seeds 0-2, for Paley 1009 and 2029
at config seed 0, for Paley 401 runs that fail on each partition and
repartition check (their trace details name the failed check, the retry
and the offending value), and of the graph file `write_graph` writes for
Paley 401. Apart from the trace, the SHA-256 of each of those 13 runs'
outcome, cycle line and ordered (phase, check) of its failed records,
which a change of the trace's shape alone leaves as they are. The exact
bits of the spectral certificates of Paley 1009 and 2029 at the CLI's
certificate seeds. Below the cycle: the maximum matching, Hall violators
and bipartite certificates of seeded vertex pairs of Paley 401 and 1009,
the greedy matchings of acceptance criterion 7's draws on Paley 101, the
connector's paths or failures on seeded draws on Paley 101, and the
trials of both subgraph experiments. Neighbour order feeds scipy's
Hopcroft-Karp (`maximum_bipartite_matching`), the greedy matching and
the connector's shuffles, so a change of tie-breaking anywhere in the
pipeline changes these digests. `scripts/golden_digests.py` prints the
same digests for the larger criterion-9 table.
"""

import hashlib
import json

import numpy as np
import pytest

from expanderlab import extend, graphs, hamilton, matching, mixing, sampling
from expanderlab.errors import ConnectFailed
from expanderlab.rng import derive_seed, generator

PIPELINE_401 = {
    0: "c4b41d3244621562c2e83769c1712a0697bcf1060d3db763e4afd9496aac4075",
    1: "4de422ded130aa4b87bff4ff6d117013720f7bab534c90d6447cf68d7d57be40",
    2: "4fdf95e5852bd867b21959f1cd764b297c87014ddb92354470d96e35a402d77d",
}
# Config of one Paley 401 run failing on each check named by its key.
FAILURE_CONFIGS = {
    "P1": {"seed": 0, "gamma_caps": {"P1": 0.02}},
    "P5": {"seed": 0, "gamma_caps": {"P5": 0.05}},
    "Q3": {"seed": 0, "gamma_caps": {"Q3": 0.1}},
    "Q4": {"seed": 0, "gamma_caps": {"Q4": 0.1}},
    "Q5": {"seed": 0, "gamma_caps": {"Q5": 0.1}},
    "P2": {"seed": 1, "constant_overrides": {"p2_scale": 0.5}},
    "pm_gamma_cap": {"seed": 1, "constant_overrides": {"pm_gamma_cap": 0.05}},
    "lambda_ratio_cap": {"seed": 0, "constant_overrides": {"lambda_ratio_cap": 0.03}},
}
# (outcome, trace digest) of each run of FAILURE_CONFIGS.
FAILURES_401 = {
    "P1": (
        "failed:partition:PartitionRetriesExhausted",
        "cec6caa73308b9f4fee65c055907aa90524703041333b90829ed29b2d1dcccb6"),
    "P5": (
        "failed:partition:PartitionRetriesExhausted",
        "cf946760dac4112b3d70c90e364a3e59c51592f8f4ad3d4810fe9b7f349d4d37"),
    "Q3": (
        "failed:repartition:PartitionRetriesExhausted",
        "24abee1bd0529fa7183f9bf6e04db9b134764039a3c4935dede1e5abc946e035"),
    "Q4": (
        "failed:repartition:PartitionRetriesExhausted",
        "3116dfb9cc11a3fc0e70e72f624c1512dd9ed48da062e781c112b63952f5ee99"),
    "Q5": (
        "failed:repartition:PartitionRetriesExhausted",
        "8bab90ad080f53db315ec4b6e62c8e9d7432b5d33b0ac4b58f0afa80107ba059"),
    "P2": (
        "failed:partition:PartitionRetriesExhausted",
        "6dae5c18b9bb37bc5141212a57a5beeb6fd5fb7c15f99f4cedc4d1c376001fba"),
    "pm_gamma_cap": (
        "failed:path_cover:PreconditionViolated",
        "db7b06e7111b17ecbcc5f8e2406a18bda793af575c0f12b55a3de3dc1806a468"),
    "lambda_ratio_cap": (
        "failed:certification:PreconditionViolated",
        "8fdd743e5ae1c2e9e1e1b6e528e5c70c5a83043f5be9ae3f59556d1d878bd0d6"),
}
# Seed-0 runs on the larger criterion-9 graphs, as scripts/golden_digests.py
# prints them.
PIPELINE_SEED0 = {
    1009: "1ef81b78b5d275b42ffce863b5b78739bd7203cd9ee6ef41b9f089233daccc02",
    2029: "2762c76fb83c79ced41675314ab097b83e1500332fe828846df0194930c9bcc5",
}
# The 13 runs above by name, as (q, config).
RUNS = {**{f"401-seed{s}": (401, {"seed": s}) for s in PIPELINE_401},
        **{f"{q}-seed0": (q, {"seed": 0}) for q in PIPELINE_SEED0},
        **{name: (401, cfg) for name, cfg in FAILURE_CONFIGS.items()}}
# SHA-256 of repr((outcome, cycle line or None, [(phase, check) of each
# failed record, in order])) of each run of RUNS, as
# scripts/golden_digests.py prints them. The trace's shape does not enter.
CYCLES = {
    "401-seed0":
        "886927e9b02c05534ff6e8f9aba41e6178ccfbed3431b9ac1ca69b338cbb1884",
    "401-seed1":
        "4b6e22594e4daabb83ecd477eb904f9c630dbb4e36326e1c1d3cae32fc0531cc",
    "401-seed2":
        "3842b85ca6f1643f673f21005ad248ad93b939a2ba940324e4ad8f59b8db65a8",
    "1009-seed0":
        "55409f5cc812d3c899bfaec738688d2c9308ec0925d8ed0115ac6ee6f8bd7207",
    "2029-seed0":
        "968f0e6a01013a2eafbe1bba026aff5dedb5fe3e40a765ba72767b98fd19413b",
    "P1":
        "a15cbc18132d3fac1c61e366a23aa0ad354937398b40f30d41e2b6450f10d32e",
    "P5":
        "f24711653de347975520c8f1df3efd499f1f1f7a177c5149ca167439c9c8fdca",
    "Q3":
        "84163e36d1f9583774fb6b1bf87c2370650b674abbd86db241ab57acf64e1884",
    "Q4":
        "ea771972e165a3e9428f2d452eb79d0243779c554c0087b5bf87caf5cccf5b68",
    "Q5":
        "b149e08beebca8e51d25f9ce410b55824c52552dd843aa8631bf10e7baa50ef3",
    "P2":
        "2fa5d3db5cc6510f0554edcd7e3358ea393e25af899116218f9df9d810620516",
    "pm_gamma_cap":
        "88606959230952a2b0613595e248e12bed3a403a978326d37d474d27d413dfac",
    "lambda_ratio_cap":
        "c94fa765c14ee2239dd6a4afba0ed182433298192651a0dde0717b40a5742838",
}
# float.hex of certify_expander's (lambda_hat, residual) at the certificate
# seed of `expanderlab --seed <cli seed>`, as scripts/golden_digests.py
# prints them.
CERTIFICATE_BITS = {
    (1009, 0): ("0x1.061e3aac71f64p+4", "0x1.117731ef5f841p-39"),
    (1009, 11): ("0x1.061e3aac71f68p+4", "0x1.d17263575cf15p-40"),
    (2029, 0): ("0x1.705afa3177ba8p+4", "0x1.0d6146eaac7f9p-36"),
    (2029, 11): ("0x1.705afa3177ba8p+4", "0x1.227fa9329edf9p-36"),
}
GRAPH_FILE_401 = "44cbc459178be8675b49c3bbbd8c7b766f6579b5525dd58ee145dd1c3d556294"
# SHA-256 of the maximum matching, the (left, right) Hall violators and the
# three bipartite certificates of the pair (perm[:a], perm[a:a + b]), perm
# drawn with the view seed, as scripts/golden_digests.py prints them.
PAIRS = {
    (401, 3, 6, 6): (
        "4f8a464f08ed7498ee6ba3f4ddea48077291d3fbdf0ad7fe7c974f8663dec50d",
        "0c4f83368c7d9a3866da819944653c3d291ede6db32ed58351b053aff234adc4",
        "e2d6a6456d912f575fc1451bcde91811d85928a8d70eb684c9cde7750eca064b"),
    (1009, 1, 30, 18): (
        "3e12955ea57c7134d75a5deae5101a57254fa7741613240996bbac6477a23f09",
        "9984c368e99177611aaf63873a19389965650ce0a75df2adf9e0f78bf9a69ab6",
        "66693f9a723ea50afb094a33e35fec29c1300c43ab5e90c2c3e1d10ae806f250"),
    (1009, 4, 4, 4): (
        "bb7674ffeda642ab542ccefa8313ed3d82d4a79a48c2fb93ba8a35f4424d0dc9",
        "bf83f71455fa80612aba66e4a3c02e7c72dd80c28592c35d3f00b09d4686fed0",
        "f5ad01439c8ea759c06b0dff554ba4fbc6a8e2ad5069bc899d50e1bb57005965"),
}
# SHA-256 of the edges of greedy_matching_avoiding on acceptance criterion
# 7's 100 seeded draws on Paley 101, as scripts/golden_digests.py prints it.
GREEDY_101 = "e86731835e4680f3823e2126bb2e4bf43615cc42022fb73446391897cf89fa20"
# SHA-256 of the closing paths, or the ConnectFailed message, of
# connect_pairs on 200 seeded draws on Paley 101, as
# scripts/golden_digests.py prints it. The draws reach every exit of the
# connector: success, success after a teardown, the teardown cap and a
# reserve vertex with no splice point.
CONNECTOR_101 = "8a5c80046e4fe9e1984a2c22d9fad6928be4f83b3862ae94c1bc282b5b5b908a"
BIPARTITE_WINDOWS = [(0.3, 1.0), (2.0, 1.0), (2.0, 3.0)]   # (gamma, lambda / sqrt(d'))
# SHA-256 of the trials' (float.hex s2, degrees_ok) of three-trial
# experiments at gamma_target 0.1, as scripts/golden_digests.py prints them.
EXPERIMENTS = {
    (401, "induced-subgraph", 1):
        "155b3473b10ba6cedd987a34572935aff8208b94549e23f2522b9a44da10f2dd",
    (401, "bipartite-induced", 0):
        "e7bf9f19d5fdb9eb033ab06e450712986d94f888faa6cdee548091d52d1c59a9",
    (1009, "bipartite-induced", 0):
        "92dee7ea65f43e9c74fa2ed00913e8086c58af63cf672005751454a4790671f8",
}


@pytest.fixture(scope="module")
def paley401():
    return graphs.gen_paley(401)


@pytest.fixture(scope="module")
def run(paley401):
    """(outcome, trace digest, cycle digest) of a pipeline run on Paley q,
    each run made once per module."""
    done = {}

    def run(q, cfg_data):
        key = q, json.dumps(cfg_data, sort_keys=True)
        if key not in done:
            g = paley401 if q == 401 else graphs.gen_paley(q)
            done[key] = _digests(g, hamilton.PipelineConfig(**cfg_data))
        return done[key]
    return run


def _digests(g, cfg):
    result = hamilton.hamilton_pipeline(g, cfg)
    line = None if result.cycle is None else result.cycle.to_line()
    text = result.trace.to_json() + "\n" + ("" if line is None else line + "\n")
    failed = [(c["phase"], c["check"]) for c in result.trace.data["checks"]
              if not c["holds"]]
    return (result.trace.outcome, _sha256(text),
            _sha256(repr((result.trace.outcome, line, failed))))


@pytest.mark.parametrize("seed", sorted(PIPELINE_401))
def test_pipeline_trace_and_cycle_digest(run, seed):
    assert run(401, {"seed": seed})[:2] == ("success", PIPELINE_401[seed])


@pytest.mark.parametrize("q", sorted(PIPELINE_SEED0))
def test_larger_pipeline_trace_and_cycle_digest(run, q):
    assert run(q, {"seed": 0})[:2] == ("success", PIPELINE_SEED0[q])


@pytest.mark.parametrize("name", sorted(FAILURES_401))
def test_failed_run_trace_digest(run, name):
    assert run(401, FAILURE_CONFIGS[name])[:2] == FAILURES_401[name]


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_outcome_cycle_and_failed_checks_digest(run, name):
    assert run(*RUNS[name])[2] == CYCLES[name]


def test_graph_file_digest(paley401, tmp_path):
    path = tmp_path / "p401.txt"
    graphs.write_graph(paley401, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GRAPH_FILE_401


@pytest.mark.parametrize("q, cli_seed", sorted(CERTIFICATE_BITS))
def test_certificate_bits(q, cli_seed):
    cert = graphs.certify_expander(graphs.gen_paley(q),
                                   seed=derive_seed(cli_seed, "certify") % 2 ** 31)
    assert (cert.lambda_hat.hex(), cert.residual.hex()) == CERTIFICATE_BITS[q, cli_seed]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _certified(q):
    g = graphs.gen_paley(q)
    return g, graphs.certify_expander(g, seed=derive_seed(0, "certify") % 2 ** 31)


@pytest.mark.parametrize("q, view_seed, a, b", sorted(PAIRS))
def test_pair_matching_and_certificate_digests(q, view_seed, a, b):
    g, cert = _certified(q)
    perm = np.random.default_rng(view_seed).permutation(g.n)
    view = graphs.BipartiteView(parent=g, left=perm[:a], right=perm[a:a + b])
    violators = [matching.hall_violator(view, side) for side in ("left", "right")]
    d = cert.d * (a + b) / g.n
    certificates = [graphs.certify_bipartite_expander(view, d, gamma, scale * d ** 0.5)
                    for gamma, scale in BIPARTITE_WINDOWS]
    assert (_sha256(matching.max_matching(view).to_json()),
            _sha256(repr([None if s is None else sorted(s) for s in violators])),
            _sha256(repr(certificates))) == PAIRS[q, view_seed, a, b]


def test_greedy_matching_digest(paley101, cert101):
    theta = mixing.one_edge_threshold(cert101)
    rng = generator(0, "acceptance-greedy")
    edges = []
    for _ in range(100):
        perm = rng.permutation(101)
        a, b = int(rng.integers(30, 46)), int(rng.integers(30, 46))
        v1, v2 = perm[:a], perm[a:a + b]
        k1 = int(rng.integers(0, max(1, int(a - theta - 1))))
        k2 = int(rng.integers(0, max(1, int(b - theta - 1))))
        m = matching.greedy_matching_avoiding(paley101, cert101, v1, v2,
                                              v1[:k1], v2[:k2])
        edges.append(m.to_json())
    assert _sha256("\n".join(edges)) == GREEDY_101


def test_connector_digest(paley101):
    outputs = []
    for draw in range(200):
        rng = generator(0, "connector-draw", draw)
        k, l_max = int(rng.integers(1, 8)), int(rng.integers(2, 5))
        r = int(rng.integers(k, k * (l_max - 1) + 1))
        perm = rng.permutation(101)
        x, y, reserve = perm[:k], perm[k:2 * k], perm[2 * k:2 * k + r]
        pairs = list(zip(x.tolist(), rng.permutation(y).tolist()))
        conn = extend.build_connector(paley101, x, y, reserve, l_max,
                                      seed=int(rng.integers(2 ** 31)),
                                      min_reserve_ratio=1.0)
        try:
            outputs.append(json.dumps(conn.connect_pairs(pairs)))
        except ConnectFailed as exc:
            outputs.append(str(exc))
    assert _sha256("\n".join(outputs)) == CONNECTOR_101


@pytest.mark.parametrize("q, label, seed", sorted(EXPERIMENTS))
def test_subgraph_experiment_digests(q, label, seed):
    g, cert = _certified(q)
    if label == "induced-subgraph":
        exp = sampling.induced_subgraph_experiment(
            g, cert, 0.5, trials=3, seed=seed, gamma_target=0.1)
    else:
        exp = sampling.bipartite_induced_experiment(
            g, cert, 0.25, 0.25, trials=3, seed=seed, gamma_target=0.1)
    trials = [(r.s2.hex(), r.degrees_ok) for r in exp.per_trial]
    assert _sha256(repr(trials)) == EXPERIMENTS[q, label, seed]
