"""Golden digests: outputs that must not drift when the code is refactored.

The SHA-256 of the trace JSON plus cycle line (as `expanderlab hamilton`
prints them) for Paley 401 at config seeds 0-2, and of the graph file
`write_graph` writes for Paley 401. Neighbour order feeds Hopcroft-Karp
and the connector's shuffles, so a change of tie-breaking anywhere in the
pipeline changes these digests.
"""

import hashlib

import pytest

from expanderlab import graphs, hamilton

PIPELINE_401 = {
    0: "f85d4b4d3fdf8de78055e5136911a8617e8b8b8735595373ac19b0c3a1a7b5d6",
    1: "ef4ba9015a0b02b3cb128fa2f01ea332ab2d38a1281ffe80b1e6dad737e3c8c3",
    2: "d8f26f5c8118d5097746ef3ac0d6a59be84dd7a6935a9c41b0a928eb6918659a",
}
GRAPH_FILE_401 = "44cbc459178be8675b49c3bbbd8c7b766f6579b5525dd58ee145dd1c3d556294"


@pytest.fixture(scope="module")
def paley401():
    return graphs.gen_paley(401)


@pytest.mark.parametrize("seed", sorted(PIPELINE_401))
def test_pipeline_trace_and_cycle_digest(paley401, seed):
    result = hamilton.hamilton_pipeline(paley401, hamilton.PipelineConfig(seed=seed))
    text = result.trace.to_json() + "\n"
    if result.cycle is not None:
        text += result.cycle.to_line() + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PIPELINE_401[seed]


def test_graph_file_digest(paley401, tmp_path):
    path = tmp_path / "p401.txt"
    graphs.write_graph(paley401, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GRAPH_FILE_401
