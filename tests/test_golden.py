"""Golden digests: outputs that must not drift when the code is refactored.

The SHA-256 of the trace JSON plus cycle line (as `expanderlab hamilton`
prints them) for Paley 401 at config seeds 0-2, for Paley 1009 and 2029
at config seed 0, for Paley 401 runs that fail on each partition and
repartition check (their trace details name the failed check, the retry
and the offending value), and of the graph file `write_graph` writes for
Paley 401; and the exact bits of the spectral certificates of Paley 1009
and 2029 at the CLI's certificate seeds. Below the cycle: the maximum
matching, Hall violators and bipartite certificates of seeded vertex
pairs of Paley 401 and 1009, and the trials of both subgraph
experiments. Neighbour order feeds
Hopcroft-Karp and the connector's shuffles, so a change of tie-breaking
anywhere in the pipeline changes these digests. `scripts/golden_digests.py`
prints the same digests for the larger criterion-9 table.
"""

import hashlib

import numpy as np
import pytest

from expanderlab import graphs, hamilton, matching, sampling
from expanderlab.rng import derive_seed

PIPELINE_401 = {
    0: "f85d4b4d3fdf8de78055e5136911a8617e8b8b8735595373ac19b0c3a1a7b5d6",
    1: "ef4ba9015a0b02b3cb128fa2f01ea332ab2d38a1281ffe80b1e6dad737e3c8c3",
    2: "d8f26f5c8118d5097746ef3ac0d6a59be84dd7a6935a9c41b0a928eb6918659a",
}
# (config, outcome, digest) of one run failing on each check named by its id.
FAILURES_401 = [
    pytest.param({"seed": 0, "gamma_caps": {"P1": 0.02}},
                 "failed:partition:PartitionRetriesExhausted",
                 "d4bdffe7859546111a803be3388d27518a95f507975d1daa7d994f8f2e1d8720",
                 id="P1"),
    pytest.param({"seed": 0, "gamma_caps": {"P5": 0.05}},
                 "failed:partition:PartitionRetriesExhausted",
                 "33d481f40a2ec6da7e14f63ce37a1b69dad282e0a1faeb106390ec74f2e5dcb3",
                 id="P5"),
    pytest.param({"seed": 0, "gamma_caps": {"Q3": 0.1}},
                 "failed:repartition:PartitionRetriesExhausted",
                 "2265b58ccf0cba3c3facbc94042941961385a4c1e331e2eb9bb71dd591b80841",
                 id="Q3"),
    pytest.param({"seed": 0, "gamma_caps": {"Q4": 0.1}},
                 "failed:repartition:PartitionRetriesExhausted",
                 "1fd8611e52bc91b28eb6dabeff0b4eac086e95d3c487a6120d3da2e287797a62",
                 id="Q4"),
    pytest.param({"seed": 0, "gamma_caps": {"Q5": 0.1}},
                 "failed:repartition:PartitionRetriesExhausted",
                 "3f50a5a93080569f9f16a0febfcecb8a7382d2c2796c17850ec1c25d339289ee",
                 id="Q5"),
    pytest.param({"seed": 1, "constant_overrides": {"p2_scale": 0.5}},
                 "failed:partition:PartitionRetriesExhausted",
                 "7bc1e22e62bdf67ec493bebd7d6bb0bef0c56a7df0e29c7bdd50b8033339f99e",
                 id="P2"),
    pytest.param({"seed": 1, "constant_overrides": {"pm_gamma_cap": 0.05}},
                 "failed:path_cover:PreconditionViolated",
                 "4dadf82853975b1ec77bacf6c2319b8e2ad87982835940ff0d602e48f02042ef",
                 id="pm_gamma_cap"),
    pytest.param({"seed": 0, "constant_overrides": {"lambda_ratio_cap": 0.03}},
                 "failed:certification:PreconditionViolated",
                 "a585e7bda6a50c61c98f785c388bc85ed3e3640e0e562add2a72dddba3ceaa76",
                 id="lambda_ratio_cap"),
]
# Seed-0 runs on the larger criterion-9 graphs, as scripts/golden_digests.py
# prints them.
PIPELINE_SEED0 = {
    1009: "be2b8992c3f323dfbcb5c4bafbc42fc0438a47608a2d86a0b71a74ae34f5b3c4",
    2029: "c28f32b819035f81e110bfcdf0865c20fbbb175befce855c0c1280269c2a135b",
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


def _digest(g, cfg):
    result = hamilton.hamilton_pipeline(g, cfg)
    text = result.trace.to_json() + "\n"
    if result.cycle is not None:
        text += result.cycle.to_line() + "\n"
    return result.trace.outcome, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(PIPELINE_401))
def test_pipeline_trace_and_cycle_digest(paley401, seed):
    outcome, digest = _digest(paley401, hamilton.PipelineConfig(seed=seed))
    assert (outcome, digest) == ("success", PIPELINE_401[seed])


@pytest.mark.parametrize("q", sorted(PIPELINE_SEED0))
def test_larger_pipeline_trace_and_cycle_digest(q):
    outcome, digest = _digest(graphs.gen_paley(q), hamilton.PipelineConfig(seed=0))
    assert (outcome, digest) == ("success", PIPELINE_SEED0[q])


@pytest.mark.parametrize("cfg_data, outcome, digest", FAILURES_401)
def test_failed_run_trace_digest(paley401, cfg_data, outcome, digest):
    assert _digest(paley401, hamilton.PipelineConfig(**cfg_data)) == (outcome, digest)


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
