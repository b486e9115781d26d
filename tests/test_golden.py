"""Golden digests: outputs that must not drift when the code is refactored.

`scripts/golden_digests.py` is their one implementation; its docstring
says what each line pins. `tests/golden_digests.txt` holds its committed
output, and every line the script prints is checked against that file,
as are the values of the pins this module held before that file.
After a declared output change, re-pin with

    PYTHONPATH=src python3 scripts/golden_digests.py > tests/golden_digests.txt
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import golden_digests  # noqa: E402
from expanderlab import hamilton  # noqa: E402

GOLDEN = (ROOT / "tests" / "golden_digests.txt").read_text().splitlines()
# The first value of a line (outcome, digest or hex float) ends its name.
FIRST_VALUE = re.compile(r" (?:success|failed:|0x|matching |[0-9a-f]{64})")


@pytest.fixture(scope="module")
def printed():
    return list(golden_digests.lines())


def test_line_count(printed):
    assert len(printed) == len(GOLDEN)


@pytest.mark.parametrize("i", range(len(GOLDEN)),
                         ids=[FIRST_VALUE.split(line, 1)[0] for line in GOLDEN])
def test_line(printed, i):
    assert printed[i] == GOLDEN[i]


# The pins the suite held before the committed file, each reading its own
# values of one line, so that a drift names the digest that moved. A run's
# line holds (outcome, trace digest, cycle digest) after its name.
RUNS = {**{f"401-seed{s}": (401, {"seed": s}) for s in range(3)},
        **{f"{q}-seed0": (q, {"seed": 0}) for q in (1009, 2029)},
        **{name: (401, cfg) for name, cfg in golden_digests.FAILURE_CONFIGS.items()}}


def _values(lines, name):
    """The fields after the name of the line called `name`."""
    [line] = [line for line in lines if line.startswith(name + " ")]
    return line[len(name) + 1:].split(" ")


def _run_values(lines, run):
    q, cfg_data = RUNS[run]
    return _values(lines, f"{q} {golden_digests.config_key(cfg_data)}")


@pytest.mark.parametrize("seed", range(3))
def test_pipeline_trace_and_cycle_digest(printed, seed):
    run = f"401-seed{seed}"
    assert _run_values(printed, run)[:2] == _run_values(GOLDEN, run)[:2]


@pytest.mark.parametrize("q", (1009, 2029))
def test_larger_pipeline_trace_and_cycle_digest(printed, q):
    run = f"{q}-seed0"
    assert _run_values(printed, run)[:2] == _run_values(GOLDEN, run)[:2]


def test_every_window_row_has_a_failing_run():
    """A window row added to the pipeline needs a pinned run that fails on it."""
    assert set(hamilton.WINDOWS) <= set(golden_digests.FAILURE_CONFIGS)


@pytest.mark.parametrize("name", sorted(golden_digests.FAILURE_CONFIGS))
def test_failed_run_trace_digest(printed, name):
    assert _run_values(printed, name)[:2] == _run_values(GOLDEN, name)[:2]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outcome_cycle_and_failed_checks_digest(printed, name):
    assert _run_values(printed, name)[2] == _run_values(GOLDEN, name)[2]


def test_graph_file_digest(printed):
    # Paley 2029's file spans several of the writer's and reader's chunks.
    for name in ("401 graph-file", "2029 graph-file"):
        assert _values(printed, name) == _values(GOLDEN, name)


def test_greedy_matching_digest(printed):
    assert _values(printed, "101 greedy") == _values(GOLDEN, "101 greedy")


def test_connector_digest(printed):
    assert _values(printed, "101 connector") == _values(GOLDEN, "101 connector")


@pytest.mark.parametrize("q, cli_seed", [(1009, 0), (1009, 11), (2029, 0), (2029, 11)])
def test_certificate_bits(printed, q, cli_seed):
    name = f"{q} certify --seed {cli_seed}"
    assert _values(printed, name) == _values(GOLDEN, name)


@pytest.mark.parametrize("q, view_seed, a, b",
                         [(401, 3, 6, 6), (1009, 1, 30, 18), (1009, 4, 4, 4)])
def test_pair_matching_and_certificate_digests(printed, q, view_seed, a, b):
    name = f"{q} view {view_seed} {a}+{b}"
    assert _values(printed, name) == _values(GOLDEN, name)


@pytest.mark.parametrize("q, label, seed", [(401, "induced-subgraph", 1),
                                            (401, "bipartite-induced", 0),
                                            (1009, "bipartite-induced", 0)])
def test_subgraph_experiment_digests(printed, q, label, seed):
    name = f"{q} {label} seed {seed}"
    assert _values(printed, name) == _values(GOLDEN, name)


def test_script_pins_one_blas_thread():
    """The certificate bits hold under two BLAS threads in the caller's
    environment, since the script pins one before numpy loads."""
    env = {**os.environ, "OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])}
    code = ("import golden_digests as gd; from expanderlab import graphs; "
            "print(401, 'certify --seed 0', "
            "*gd.certificate_bits(graphs.gen_paley(401), 0))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == [line for line in GOLDEN
                                if line.startswith("401 certify --seed 0 ")]
