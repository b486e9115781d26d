"""Constructive Hamilton-cycle pipeline on certified expanders.

Phases: certify, random partition into ports X and Y, a reserve and a
middle region, connector construction over the reserve, repartition of
the middle region into blocks of exactly k vertices (the size of X and
Y), a path cover that chains one perfect matching per consecutive pair
X -> B_1 -> ... -> B_{t-2} -> Y, and cycle closing through the
connector. Vertex sets travel between phases as sorted int arrays, the
cover paths as the rows of one k x t array, and the closing paths as
int tuples, path i closing the gap after cover path i. The partition
and repartition phases check the sets they sample against the rows of
`WINDOWS` (P1, P5, Q3-Q5), one `graphs.window_violation` call per check
over all its blocks or sampled pairs, on the run's one `SizePlan`; a
rejection names the first violator by block or pair, then check, then
side, then position. The certificate is the only spectrum a run solves.
Singular values of a principal submatrix never exceed the matrix's
(Thompson 1972), so s2(G[S]) <= lambda_hat for every vertex set S: no
induced s2 cap at or above lambda_hat can fail, and the gate lambda_hat
<= lambda_ratio_cap * d proves Q4's s2 cap and the matchings' lambda
precondition. The trace (schema 2) records only checks that ran and
could fail; failures name the violated check and never produce an
unverified cycle. Windows read degree counts (`Graph.cross_degree`, and
in the repartition one `Graph.degrees_into` table of block halves per
retry); only a path-cover link, whose matching needs its cross block, is
a `graphs.BipartiteView`, and no phase builds an induced subgraph.

The asymptotic regime of the underlying theorem is unreachable at desk
scale, so every threshold is a config knob with documented desk
defaults; the combinatorial structure of the construction is preserved
exactly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import extend, matching
from .errors import (ConfigError, ConnectFailed, ExpanderLabError,
                     PartitionRetriesExhausted, PreconditionViolated)
from .graphs import BipartiteView, Graph, _integers, certify_expander, window_violation
from .rng import SEED_RANGE, child_seed, generator

SCHEMA_VERSION = 2

# Desk-profile tolerances. Blocks of size ~sqrt(n) have cross-degree
# fluctuations of several standard deviations relative to tiny means,
# so the two-sided windows must be wide. Each sampled window is a row of
# WINDOWS: (1 +- caps * gamma) * d * |T| / n, |T| the named `SizePlan`
# field. At these defaults the lower ends of Q3, Q4 and Q5 are at most
# 0, so only their upper ends can fail. The trace does not say so: it
# writes `holds: true` for them as for any other check, naming only the
# gamma cap.
GAMMA_DEFAULTS = {"P1": 0.3, "P5": 0.8, "Q3": 0.8, "Q4": 1.0, "Q5": 1.5}
WINDOWS = {"P1": ("reserve_size", 2), "P5": ("k", 1), "Q3": ("half", 2),
           "Q4": ("k", 1), "Q5": ("half", 1)}
CONSTANT_DEFAULTS = {
    "lambda_ratio_cap": 0.2,    # certification gate; bounds Q4 and matching s2
    "pm_gamma_cap": 1.2,        # cross-degree tolerance for perfect matchings
    "q_pair_sample": 40,        # block pairs checked when t > 12
}
MAX_RETRIES = 1000    # upper end of both retry counts, far above the default 20


def _is_number(value, kind) -> bool:
    """A `kind` that is not a bool and, unless an integer, is finite."""
    return isinstance(value, kind) and not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or math.isfinite(value))


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline knobs; defaults form the documented desk profile."""

    k: int | None = None            # block size; None = ceil(sqrt(n))
    reserve_fraction: float = 0.1
    seed: int = 0
    l_max: int = 12
    max_partition_retries: int = 20
    max_repartition_retries: int = 20
    min_reserve_ratio: float = 2.0
    gamma_caps: dict = field(default_factory=dict)
    constant_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        ints = ["seed", "l_max", "max_partition_retries",
                "max_repartition_retries"] + (["k"] if self.k is not None else [])
        for name in ints:
            if not _is_number(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name}={getattr(self, name)!r} is not an integer")
        for name in ("reserve_fraction", "min_reserve_ratio"):
            if not _is_number(getattr(self, name), numbers.Real):
                raise ConfigError(f"{name}={getattr(self, name)!r} is not a finite number")
        for name in ("gamma_caps", "constant_overrides"):
            table = getattr(self, name)
            if not isinstance(table, dict) or not all(
                    _is_number(v, numbers.Real) for v in table.values()):
                raise ConfigError(f"{name}={table!r} is not a table of finite numbers")
        if int(self.seed) not in SEED_RANGE:    # range scans non-int types item by item
            raise ConfigError(f"seed={self.seed} outside [-2**127, 2**127)")
        if not 0 < self.reserve_fraction < 0.5:
            raise ConfigError(
                f"reserve_fraction={self.reserve_fraction} outside (0, 0.5)")
        if self.k is not None and self.k < 2:
            raise ConfigError(f"k={self.k} must be at least 2")
        if self.l_max < 1:
            raise ConfigError(f"l_max={self.l_max} must be at least 1")
        for name in ("max_partition_retries", "max_repartition_retries"):
            if not 1 <= getattr(self, name) <= MAX_RETRIES:
                raise ConfigError(
                    f"{name}={getattr(self, name)} outside [1, MAX_RETRIES={MAX_RETRIES}]")
        if self.min_reserve_ratio <= 0:
            raise ConfigError(
                f"min_reserve_ratio={self.min_reserve_ratio} must be positive")
        for key, cap in self.gamma_caps.items():
            if key not in GAMMA_DEFAULTS:
                raise ConfigError(f"unknown gamma cap {key!r}")
            if cap < 0:
                raise ConfigError(f"gamma cap {key}={cap} is negative")
        for key in self.constant_overrides:
            if key not in CONSTANT_DEFAULTS:
                raise ConfigError(f"unknown constant override {key!r}")
        sample = self.constant("q_pair_sample")
        if not _is_number(sample, numbers.Integral) or sample < 1:
            raise ConfigError(f"q_pair_sample={sample!r} is not a positive integer")

    def gamma(self, key: str) -> float:
        return self.gamma_caps.get(key, GAMMA_DEFAULTS[key])

    def constant(self, key: str) -> float:
        return self.constant_overrides.get(key, CONSTANT_DEFAULTS[key])

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config is a {type(data).__name__}, not a JSON object")
        known = {f for f in PipelineConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return PipelineConfig(**data)


@dataclass(frozen=True)
class SizePlan:
    k: int
    t: int              # total block count, middle blocks are 2..t-1
    reserve_size: int

    @property
    def half(self) -> int:    # size of a block's first half
        return (self.k + 1) // 2


def plan_sizes(n: int, cfg: PipelineConfig) -> SizePlan:
    """Derive (k, t, reserve) so the middle region splits into exact k-blocks.

    The reserve absorbs the divisibility remainder, so every block has
    size exactly k and the closing paths consume the reserve exactly.
    """
    k = cfg.k if cfg.k is not None else max(4, math.ceil(math.sqrt(n)))
    reserve_target = max(math.ceil(cfg.min_reserve_ratio * k),
                         round(cfg.reserve_fraction * n))
    middle = n - 2 * k - reserve_target
    t = middle // k + 2
    if t < 3:
        raise ConfigError(
            f"n={n} too small for k={k}: needs at least one middle block")
    reserve = n - t * k
    if reserve > k * (cfg.l_max - 1):
        raise ConfigError(
            f"reserve of {reserve} cannot be consumed by {k} closing paths "
            f"of length <= {cfg.l_max}")
    return SizePlan(k=k, t=t, reserve_size=reserve)


@dataclass(frozen=True)
class Parts:
    """The partition's vertex sets, each a sorted int array."""

    x: np.ndarray          # path starts, k vertices
    y: np.ndarray          # path ends, k vertices
    reserve: np.ndarray    # the connector's pool
    middle: np.ndarray     # (t - 2) * k vertices, split into blocks later


@dataclass(frozen=True)
class HamiltonCycle:
    order: tuple

    def to_line(self) -> str:
        return " ".join(str(v) for v in self.order)

    @staticmethod
    def from_line(line: str) -> "HamiltonCycle":
        return HamiltonCycle(order=tuple(int(tok) for tok in line.split()))


@dataclass(frozen=True)
class CycleVerification:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


class PipelineTrace:
    """Append-only record of every phase check; serializes to JSON."""

    def __init__(self, n: int, cfg: PipelineConfig):
        self.data = {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "config": cfg.to_dict(),
            "plan": None,
            "checks": [],
            "n_sizes": None,
            "connector": None,
            "outcome": "incomplete",
        }

    def check(self, phase: str, check: str, holds: bool, detail: str = ""):
        self.data["checks"].append({"phase": phase, "check": check,
                                    "holds": bool(holds), "detail": detail})

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2)

    @property
    def outcome(self) -> str:
        return self.data["outcome"]


@dataclass(frozen=True)
class PipelineResult:
    cycle: HamiltonCycle | None
    trace: PipelineTrace


class _Rejected(Exception):
    """A sampled set failed one check: args are (check, detail)."""


def _windows(plan: SizePlan, d: float, n: int, cfg: PipelineConfig) -> dict:
    """Each `WINDOWS` row's (target d * |T| / n, width caps * gamma)."""
    return {check: (d * getattr(plan, size) / n, caps * cfg.gamma(check))
            for check, (size, caps) in WINDOWS.items()}


def _window(windows: dict, check: str, sides, degrees):
    """The first vertex of `sides` outside the window of `check`, as (its
    side's index, "deg(v)=... outside [lo, hi]"); None if none is."""
    target, width = windows[check]
    bad = window_violation(sides, degrees, (target,) * len(sides), width)
    if bad is not None:
        side, v, deg, lo, hi = bad
        return side, f"deg({v})={deg} outside [{lo:.3f}, {hi:.3f}]"
    return None


def _retry(phase: str, retries: int, trace: PipelineTrace, attempt):
    """Return attempt(retry) for the first retry it does not reject; each
    rejection is logged as a failed check of `phase`."""
    for retry in range(retries):
        try:
            return attempt(retry)
        except _Rejected as rejected:
            check, detail = rejected.args
            trace.check(phase, check, False, f"retry {retry}: {detail}")
    raise PartitionRetriesExhausted(check, retries)


def partition_phase(g: Graph, cert, plan: SizePlan, cfg: PipelineConfig,
                    trace: PipelineTrace) -> Parts:
    """Random split V = X u Y u R u M with verified properties.

    P1: every degree into the reserve R is proportional within the P1
    gamma cap. P5: (X, Y) is a bipartite expander. The claim's P2, s2 of
    the graph induced on X u Y u R is O(lambda), needs no solve: by
    interlacing, s2(G[S]) <= lambda_hat for every S. Its P3/P4 quantify
    over exponentially many subset families; nothing checks them here,
    because Q3-Q5 and the path cover's perfect matchings check the
    concrete sets those families stand for.
    """
    n, k, r, everyone = g.n, plan.k, plan.reserve_size, np.arange(g.n)
    windows = _windows(plan, cert.d, n, cfg)

    def attempt(retry):
        perm = generator(cfg.seed, "partition", retry).permutation(n)
        parts = Parts(*(np.sort(part) for part in
                        np.split(perm, [k, 2 * k, 2 * k + r])))
        if bad := _window(windows, "P1", (everyone,),
                          (g.cross_degree(everyone, parts.reserve),)):
            raise _Rejected("P1", f"into R: {bad[1]}")
        x, y = parts.x, parts.y
        if bad := _window(windows, "P5", (x, y), (g.cross_degree(x, y), g.cross_degree(y, x))):
            raise _Rejected("P5", bad[1])
        return parts

    parts = _retry("partition", cfg.max_partition_retries, trace, attempt)
    target, width = windows["P1"]
    trace.check("partition", "P1", True, f"window ±{width:.2f} around {target:.3f}")
    trace.check("partition", "P5", True, f"cross-degree gamma cap {cfg.gamma('P5')}")
    return parts


def repartition_phase(g: Graph, cert, plan: SizePlan, parts: Parts,
                      cfg: PipelineConfig, trace: PipelineTrace) -> np.ndarray:
    """Split the middle region into t - 2 blocks of k vertices with
    verified properties; returns them as a (t - 2) x k array of sorted rows.

    The blocks and the reserve are disjoint parts of one permutation, and
    every block splits into halves of (k + 1) // 2 and k // 2 vertices,
    so neither needs a check. Q3: degrees into the first halves within
    the Q3 window. Q4/Q5: block pairs and first-half pairs are bipartite
    expanders (all pairs when t <= 12, a seeded sample above), read from
    one table of degrees into block halves. Q4's s2 cap needs no solve:
    s2(G[B_i u B_j]) <= lambda_hat <= lambda_ratio_cap * d (interlacing, gate).
    """
    n, k, t, half = g.n, plan.k, plan.t, plan.half
    vertices = np.sort(np.concatenate([parts.x, parts.y, parts.middle]))
    windows = _windows(plan, cert.d, n, cfg)

    def attempt(retry):
        rng = generator(cfg.seed, "repartition", retry)
        blocks = parts.middle[rng.permutation(len(parts.middle))].reshape(t - 2, k)
        blocks.sort(axis=1)
        # first[i, v], second[i, v]: deg(v, first half of B_i), deg(v, second half)
        first, second = (g.degrees_into(h) for h in np.split(blocks, [half], axis=1))
        if bad := _window(windows, "Q3", (vertices,) * (t - 2), first[:, vertices]):
            raise _Rejected("Q3", f"half of block {bad[0]}: {bad[1]}")

        pairs = [(i, j) for i in range(t - 2) for j in range(i + 1, t - 2)]
        if t > 12:
            sample = min(len(pairs), cfg.constant("q_pair_sample"))
            idx = rng.choice(len(pairs), size=sample, replace=False)
            pairs = [pairs[int(i)] for i in sorted(idx)]
        ends = np.array(pairs, dtype=int).reshape(-1, 2)
        found = []      # (pair index, check, detail), Q4 before Q5 on one pair
        for check, where, deg, rows in (("Q4", "pair", first + second, blocks),
                                        ("Q5", "half pair", first, blocks[:, :half])):
            sides = rows[ends.ravel()]      # B_i then B_j (or their halves), pair by pair
            facing = ends[:, ::-1].ravel()  # the block each side's degrees go into
            if bad := _window(windows, check, sides, deg[facing[:, None], sides]):
                i, j = pairs[bad[0] // 2]
                found.append((bad[0] // 2, check, f"{where} ({i},{j}): {bad[1]}"))
        if found:
            raise _Rejected(*min(found, key=lambda f: f[0])[1:])
        return blocks, len(pairs)

    blocks, checked = _retry("repartition", cfg.max_repartition_retries, trace, attempt)
    trace.check("repartition", "Q3", True, f"gamma cap {cfg.gamma('Q3')}")
    trace.check("repartition", "Q4", True, f"{checked} pairs, gamma cap {cfg.gamma('Q4')}")
    trace.check("repartition", "Q5", True, f"gamma cap {cfg.gamma('Q5')}")
    return blocks


def path_cover_phase(g: Graph, cert, parts: Parts, blocks, cfg: PipelineConfig,
                     trace: PipelineTrace) -> np.ndarray:
    """Thread k vertex-disjoint paths from X to Y through the middle blocks.

    The blocks, ordered by smallest vertex, form the chain X -> B_1 ->
    ... -> B_{t-2} -> Y. A perfect matching between each consecutive
    pair extends the returned k x t array of paths, one row per vertex
    of X in increasing order, by one column, so every path starts in X,
    ends in Y and the paths cover X, Y and every block exactly. Sides of
    unequal size stop at `matching.perfect_matching_expander`
    (UnbalancedSides). Each link's lambda is lambda_hat, a bound on its s2
    by interlacing; the matching reads d (2m/n, the certificate's d) and gamma
    off the link, so its lambda precondition is the gate's and cannot reject.
    """
    chain = [parts.x, *sorted(blocks, key=lambda block: block[0]), parts.y]  # rows sorted
    columns = [parts.x]
    n_sizes = []
    for left, right in zip(chain, chain[1:]):
        pm = matching.perfect_matching_expander(
            BipartiteView(parent=g, left=left, right=right), cert.lambda_hat,
            gamma_cap=cfg.constant("pm_gamma_cap"), ratio_cap=cfg.constant("lambda_ratio_cap"))
        n_sizes.append(pm.size)
        columns.append(pm.edges[np.searchsorted(pm.edges[:, 0], columns[-1]), 1])
    trace.data["n_sizes"] = n_sizes
    return np.column_stack(columns)


def close_cycle(paths, connector, trace: PipelineTrace) -> HamiltonCycle:
    """Splice the cover paths into one cycle through the connector reserve.

    Path i ends at b_i in Y and path i+1 starts at a_{i+1} in X; the
    connector's closing path i runs from b_i to a_{i+1} (cyclically)
    through the reserve, and the closing paths together consume it.
    """
    cover = np.asarray(paths).tolist()
    pairing = [(cover[i][-1], cover[(i + 1) % len(cover)][0])
               for i in range(len(cover))]
    closing = connector.connect_pairs(pairing)
    order = []
    for i, pair in enumerate(pairing):
        link = closing[i] if i < len(closing) else None
        if link is None or (link[0], link[-1]) != pair:
            raise ConnectFailed(pair, 0, "the connector returned no "
                                "path for this pair")
        order.extend(cover[i])
        order.extend(link[1:-1])
    trace.data["connector"] = {
        "pairs": len(pairing),
        "reserve": len(connector.reserved),
        "closing_lengths": [len(p) - 1 for p in closing],
    }
    return HamiltonCycle(order=tuple(order))


def verify_hamilton_cycle(g: Graph, cycle: HamiltonCycle) -> CycleVerification:
    """Independent verifier: spanning permutation, all steps are edges.
    Below three vertices no order is a cycle (n = 2 repeats its one edge);
    a bool, a non-integer or an integer past int64 is not a vertex."""
    if g.n < 3:
        return CycleVerification(False, f"n={g.n} < 3 has no Hamilton cycle")
    if len(cycle.order) != g.n:
        return CycleVerification(False, f"length {len(cycle.order)} != n={g.n}")
    try:
        order = _integers(cycle.order)
    except (ValueError, OverflowError):
        return CycleVerification(False, "not a permutation of V")
    ranked = np.sort(order)
    if (ranked[1:] == ranked[:-1]).any():
        return CycleVerification(False, "repeated vertex")
    if ranked[0] != 0 or ranked[-1] != g.n - 1:
        return CycleVerification(False, "not a permutation of V")
    following = np.roll(order, -1)
    missing = np.flatnonzero(~g.has_edge(order, following))
    if missing.size:
        i = missing[0]
        return CycleVerification(False, f"missing edge ({order[i]},{following[i]})")
    return CycleVerification(True, "ok")


def hamilton_pipeline(g: Graph, cfg: PipelineConfig | None = None
                      ) -> PipelineResult:
    """Run all phases; returns a cycle (verified) or a trace naming the failure."""
    cfg = cfg if cfg is not None else PipelineConfig()
    trace = PipelineTrace(g.n, cfg)
    phase = "certification"
    try:
        cert = certify_expander(g, seed=child_seed(cfg.seed, "certify"))
        ratio = cert.lambda_hat / cert.d
        cap = cfg.constant("lambda_ratio_cap")
        certified = cert.lambda_hat <= cap * cert.d
        trace.check("certification", "lambda_ratio", certified,
                    f"lambda/d = {ratio:.4f}, cap {cap}")
        if not certified:
            raise PreconditionViolated(
                "lambda_ratio", f"lambda/d = {ratio:.4f} > {cap}")
        phase = "partition"
        plan = plan_sizes(g.n, cfg)
        trace.data["plan"] = asdict(plan)
        parts = partition_phase(g, cert, plan, cfg, trace)
        phase = "connector"
        connector = extend.build_connector(
            g, parts.x, parts.y, parts.reserve, l_max=cfg.l_max,
            seed=child_seed(cfg.seed, "connector"),
            min_reserve_ratio=cfg.min_reserve_ratio)
        phase = "repartition"
        blocks = repartition_phase(g, cert, plan, parts, cfg, trace)
        phase = "path_cover"
        paths = path_cover_phase(g, cert, parts, blocks, cfg, trace)
        phase = "close"
        cycle = close_cycle(paths, connector, trace)
        phase = "verification"
        verdict = verify_hamilton_cycle(g, cycle)
        trace.check("verification", "hamilton", verdict.ok, verdict.reason)
        if not verdict:
            trace.data["outcome"] = "failed:verification"
            return PipelineResult(cycle=None, trace=trace)
        trace.data["outcome"] = "success"
        return PipelineResult(cycle=cycle, trace=trace)
    except ExpanderLabError as exc:
        trace.data["outcome"] = f"failed:{phase}:{type(exc).__name__}"
        trace.check(phase, "error", False, str(exc))
        return PipelineResult(cycle=None, trace=trace)
