"""Outside-in layer trace: spans around the library's public functions.

A traced run replaces each function in SPANNED by a wrapper, at every
module or class attribute through which the library or the benchmark
calls it: hamilton reaches certify_expander through its own
`from .graphs import`, the other modules reach linalg, matching and
extend through module attributes, and methods are reached through
their class. Each call records a span (name, phase, start, end and the
span it ran inside). Spans stay in memory and are saved when the run
ends. A layer's self time is the duration of its spans minus that of
their direct child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from expanderlab import (extend, graphs, hamilton, linalg, matching, mixing,
                         sampling)

SPANNED = (
    (graphs, "gen_paley"), (graphs, "write_graph"), (graphs, "read_graph"),
    (graphs, "certify_expander"), (hamilton, "certify_expander"),
    (graphs.Graph, "adjacency_sparse"), (graphs.Graph, "induced"),
    (graphs.Graph, "count_edges_between"),
    (mixing, "eml_graph_audit"), (linalg, "singular_values_array"),
    (sampling, "induced_subgraph_experiment"),
    (hamilton, "partition_phase"), (hamilton, "repartition_phase"),
    (hamilton, "path_cover_phase"), (hamilton, "close_cycle"),
    (hamilton, "verify_hamilton_cycle"),
    (extend, "build_connector"), (extend.Connector, "connect_pairs"),
    (matching, "greedy_matching_avoiding"),
    (matching, "perfect_matching_expander"), (matching, "max_matching"),
)
# Called once per vertex from Python loops: counted, not timed.
COUNTED = ((graphs.Graph, "cross_degree"),)

# Layers that run during set-up. Their time metric adds one set-up's
# self time to one operation's, in s; every other time is per
# operation, in s/op.
SETUP_LAYERS = frozenset({
    "graphs.gen_paley", "graphs.write_graph", "graphs.read_graph",
    "graphs.certify_expander", "graphs.Graph.adjacency_sparse",
    "linalg.singular_values_array"})
# Layers whose calls per operation are reported.
CALL_COUNTS = frozenset({
    "graphs.Graph.induced", "graphs.Graph.cross_degree",
    "linalg.singular_values_array", "matching.max_matching"})


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Span recorder; `phase` says whether calls belong to set-up or to
    the timed operations."""

    SETUP, OPS = 0, 1

    def __init__(self):
        self.phase = self.SETUP
        self.names = []
        self.name_ids = array("i")
        self.phases = array("b")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {}             # name -> [set-up calls, operation calls]
        self._stack = [-1]
        self._restore = []

    def install(self) -> None:
        wrappers = {}
        for owner, attr in SPANNED:
            fn = owner.__dict__[attr]
            if fn not in wrappers:
                wrappers[fn] = self._span(fn)
            self._patch(owner, attr, wrappers[fn])
        for owner, attr in COUNTED:
            self._patch(owner, attr, self._count(owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, fn):
        name_id = len(self.names)
        self.names.append(layer_name(fn))
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.starts)
            self.name_ids.append(name_id)
            self.phases.append(self.phase)
            self.parents.append(stack[-1])
            self.ends.append(0.0)
            stack.append(span)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[span] = clock()
                stack.pop()
        return traced

    def _count(self, fn):
        calls = self.counts.setdefault(layer_name(fn), [0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[self.phase] += 1
            return fn(*args, **kwargs)
        return counted

    def totals(self) -> dict:
        """{layer: (self seconds, calls)}, each a [set-up, operations] pair."""
        name = np.frombuffer(self.name_ids, dtype=np.intc).astype(np.int64)
        phase = np.frombuffer(self.phases, dtype=np.int8).astype(np.int64)
        parent = np.frombuffer(self.parents, dtype=np.intc)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        inner = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(inner, parent[nested], duration[nested])
        key = 2 * name + phase
        size = 2 * len(self.names)
        seconds = np.bincount(key, weights=duration - inner, minlength=size)
        calls = np.bincount(key, minlength=size)
        out = {n: (seconds[2 * i:2 * i + 2], calls[2 * i:2 * i + 2])
               for i, n in enumerate(self.names)}
        for n, c in self.counts.items():
            out[n] = (None, np.array(c))
        return out

    def layer_metrics(self, setups: int, ops: int) -> dict:
        metrics = {}
        for name, (seconds, calls) in self.totals().items():
            if name in SETUP_LAYERS:
                metrics[f"{name}.s"] = {
                    "value": seconds[0] / setups + seconds[1] / ops, "unit": "s"}
            elif seconds is not None:
                metrics[f"{name}.s"] = {"value": seconds[1] / ops, "unit": "s/op"}
            if name in CALL_COUNTS:
                metrics[f"{name}.calls"] = {"value": calls[1] / ops,
                                            "unit": "calls/op"}
        return metrics

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_ids, dtype=np.intc),
                 phase=np.frombuffer(self.phases, dtype=np.int8),
                 parent=np.frombuffer(self.parents, dtype=np.intc),
                 start=np.frombuffer(self.starts), end=np.frombuffer(self.ends))
