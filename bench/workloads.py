"""The benchmark's workloads and the loop that measures them.

Each workload drives the library's public API the way scripts/ and the
CLI do. Set-up is `expanderlab gen paley q` writing the graph file,
then reading it back as every other CLI command does, then certifying
it where the CLI command certifies first (`eml`, `subsample`). An
operation is one call a user makes. The library receives only the
inputs generated here: config seeds, vertex sets, experiment seeds.

A run repeats whole rounds of the same operations, so every count per
operation is the same in every run of one seed.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checks
from expanderlab import graphs, hamilton, mixing, sampling
from expanderlab.rng import derive_seed

SETUPS = 3           # set-ups per run; setup_s takes their median
CERT_SEED = derive_seed(0, "certify") % 2 ** 31   # the CLI's, at --seed 0
MAX_MESSAGES = 10    # failure and check messages kept per run


class Pipeline:
    """hamilton_pipeline, default desk profile, over config seeds drawn
    from the benchmark seed; the only workload that runs every phase."""

    name = "pipeline"
    certify = False      # the pipeline certifies inside each call
    round_size = 10
    ops_per_call = 1

    def __init__(self, seed: int, q: int = 2029):
        self.q = q
        rng = np.random.default_rng([1, seed])
        self.inputs = [int(s) for s in rng.integers(0, 2 ** 31, size=self.round_size)]
        self.mask = checks.residue_mask(q)
        self.counts = Counter()

    def call(self, g, cert, config_seed):
        return hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(seed=config_seed))

    def check(self, config_seed, result):
        for rec in result.trace.data["checks"]:
            if not rec["holds"] and rec["check"] != "error" \
                    and rec["phase"] in ("partition", "repartition"):
                self.counts[f"hamilton.{rec['phase']}.retries"] += 1
        if result.trace.outcome == "failed:verification":
            # The library's own verifier rejected the cycle it built: a
            # wrong output, not a failure the method may report.
            return f"config seed {config_seed}: {result.trace.outcome}", True
        if result.cycle is None:
            return f"config seed {config_seed}: {result.trace.outcome}", False
        return _wrong(checks.check_cycle(result.cycle.order, self.q, self.mask))


class Audit:
    """eml_graph_audit over (S, T) pairs drawn from the benchmark seed,
    |S| and |T| uniform in [1, q/2); even pairs disjoint as in
    `expanderlab eml`, odd pairs drawn independently so they overlap."""

    name = "audit"
    certify = True
    round_size = 440
    ops_per_call = 1

    def __init__(self, seed: int, q: int = 1009):
        self.q = q
        rng = np.random.default_rng([2, seed])
        adj = checks.paley_adjacency(q, checks.residue_mask(q))
        self.inputs = []
        for i in range(self.round_size):
            a, b = (int(x) for x in rng.integers(1, q // 2, size=2))
            if i % 2 == 0:
                perm = rng.permutation(q)
                s, t = perm[:a], perm[a:a + b]
            else:
                s = rng.choice(q, a, replace=False)
                t = rng.choice(q, b, replace=False)
            self.inputs.append((s, t, checks.audit_counts(adj, s, t)))
        self.counts = Counter()

    def call(self, g, cert, pair):
        return mixing.eml_graph_audit(cert, g, pair[0], pair[1])

    def check(self, pair, audit):
        return _wrong(checks.check_audit(audit, pair[2]))


class Subsample:
    """induced_subgraph_experiment at sigma = 0.5, gamma_target 0.25 (the
    README's `expanderlab subsample` example) over a fixed list of
    experiment seeds.

    The list does not follow the benchmark seed: one trial's time is
    set by the gap at the top of its subset's spectrum and differs
    threefold between subsets, so a round of seed-drawn subsets would
    move the run's figures more than any usable bound.
    """

    name = "subsample"
    certify = True
    experiment_seeds = (0, 1, 2, 3, 4, 5)
    trials = 3
    ops_per_call = trials
    sigma = 0.5
    gamma_target = 0.25

    def __init__(self, seed: int, q: int = 1009):
        self.q = q
        self.inputs = list(self.experiment_seeds)
        self.adj = checks.paley_adjacency(q, checks.residue_mask(q))
        self.counts = Counter()

    def call(self, g, cert, experiment_seed):
        return sampling.induced_subgraph_experiment(
            g, cert, self.sigma, trials=self.trials, seed=experiment_seed,
            gamma_target=self.gamma_target)

    def check(self, experiment_seed, experiment):
        # Paley graphs are regular, so the library's gamma is gamma_target.
        return _wrong(checks.check_experiment(
            experiment, self.q, self.adj, self.sigma, self.gamma_target))


def _wrong(message):
    """A workload's check result: None, or (message, whether the output
    is wrong rather than a failure the library reported)."""
    return None if message is None else (message, True)


WORKLOADS = {w.name: w for w in (Pipeline, Audit, Subsample)}


@dataclass
class Measurement:
    setup_s: list
    op_s: list = field(default_factory=list)   # one per call, per operation
    busy_s: float = 0.0                         # summed wall time of the calls
    ops: int = 0
    failed: int = 0
    wrong: int = 0
    rounds: int = 0
    messages: list = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def set_up(workload, path):
    """gen -> write -> read (-> certify): what a user's CLI session costs
    before the first operation."""
    g = graphs.gen_paley(workload.q)
    graphs.write_graph(g, path)
    del g
    g = graphs.read_graph(path)
    cert = graphs.certify_expander(g, seed=CERT_SEED) if workload.certify else None
    return g, cert


def measure(workload, seconds: float, workdir, tracer=None) -> Measurement:
    """Set up SETUPS times, then run whole rounds until one more round
    would end past `seconds`; at least one round runs."""
    path = workdir / f"paley{workload.q}-{os.getpid()}.txt"
    setup_s = []
    try:
        for _ in range(SETUPS):
            g = cert = None      # one graph in memory at a time
            t0 = time.perf_counter()
            g, cert = set_up(workload, path)
            setup_s.append(time.perf_counter() - t0)
    finally:
        path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.phase = tracer.OPS
    m = Measurement(setup_s=setup_s)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for inp in workload.inputs:
            t0 = time.perf_counter()
            try:
                out = workload.call(g, cert, inp)
            except Exception as exc:   # a raising call is a failed operation
                dt = time.perf_counter() - t0
                fault = f"{type(exc).__name__}: {exc}", False
            else:
                dt = time.perf_counter() - t0
                fault = workload.check(inp, out)
            m.op_s.append(dt / workload.ops_per_call)
            m.busy_s += dt
            m.ops += workload.ops_per_call
            if fault is not None:
                m.failed += workload.ops_per_call
                m.wrong += fault[1]
                m.note(fault[0])
        m.rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return m
