"""Independent checks of the library's outputs on Paley graphs.

Every expectation here is computed from the definition of the Paley
graph on Z_q (a ~ b iff a - b is a nonzero quadratic residue, decided
by Euler's criterion) with numpy alone. Nothing in this module calls
the library, so a fault in the library cannot hide in its own check.

Each check returns None when the output is right and a one-line
description of the first fault otherwise.
"""

from __future__ import annotations

import math

import numpy as np

# Slack on the interlacing bound for s2: ARPACK converges to machine
# precision, far inside this.
S2_SLACK = 1e-8
# Largest distance allowed between a trial's reported s2 and the one
# recomputed with numpy.linalg.eigvalsh (the library asks ARPACK for a
# relative tolerance of 1e-8 on values near 11).
S2_MATCH = 1e-6


def residue_mask(q: int) -> np.ndarray:
    """mask[x] is True iff x is a nonzero quadratic residue mod q (Euler)."""
    half = (q - 1) // 2
    return np.array([x != 0 and pow(x, half, q) == 1 for x in range(q)])


def paley_adjacency(q: int, mask: np.ndarray) -> np.ndarray:
    """Boolean adjacency matrix of the Paley graph on Z_q."""
    z = np.arange(q)
    return mask[(z[None, :] - z[:, None]) % q]


def check_cycle(order, q: int, mask: np.ndarray) -> str | None:
    """A Hamilton cycle of Paley(q): a permutation of Z_q whose every step,
    the wrap-around step included, is a nonzero quadratic residue."""
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (q,) or not np.array_equal(np.sort(order), np.arange(q)):
        return f"cycle of length {order.size} is not a permutation of Z_{q}"
    steps = (np.roll(order, -1) - order) % q
    bad = np.flatnonzero(~mask[steps])
    if bad.size:
        i = int(bad[0])
        u, v = int(order[i]), int(order[(i + 1) % q])
        return f"step {i}: {u} -> {v} is not an edge ({v - u} mod {q} is not a residue)"
    return None


def audit_counts(adj: np.ndarray, s, t) -> tuple[int, int]:
    """(1_S^T A 1_T, the same minus the edges inside S n T)."""
    s, t = np.asarray(s), np.asarray(t)
    ordered = int(adj[np.ix_(s, t)].sum())
    both = np.intersect1d(s, t)
    inside = int(adj[np.ix_(both, both)].sum()) // 2
    return ordered, ordered - inside


def check_audit(audit, expected: tuple[int, int]) -> str | None:
    """Counts equal the independent ones and the window holds (a theorem)."""
    ordered, unordered = expected
    if audit.ordered_count != ordered:
        return f"ordered count {audit.ordered_count} != 1_S^T A 1_T = {ordered}"
    if audit.unordered_count != unordered:
        return f"unordered count {audit.unordered_count} != {unordered}"
    if not audit.holds:
        return (f"window [{audit.lower}, {audit.upper}] reported violated by "
                f"the ordered count {ordered}")
    return None


def s2_bound(q: int) -> float:
    """Cauchy interlacing: every eigenvalue of an induced subgraph of
    Paley(q) but the top one lies in [(-1 - sqrt q)/2, (-1 + sqrt q)/2]."""
    return (1 + math.sqrt(q)) / 2 + S2_SLACK


def trial_members(trial_seed: int, q: int, m: int) -> np.ndarray:
    """The vertex subset of one trial: the first m of a Philox(trial_seed)
    permutation of Z_q, sorted."""
    rng = np.random.Generator(np.random.Philox(key=trial_seed))
    return np.sort(rng.permutation(q)[:m])


def check_experiment(exp, q: int, adj: np.ndarray, sigma: float,
                     gamma: float) -> str | None:
    """Every trial's s2 obeys interlacing and matches the one recomputed
    from the trial's seed (its subset, then the second largest |eigenvalue|
    of the induced adjacency), as does its degree window; the success
    fraction matches the recomputed trials and meets the 1 - n^(-1/6)
    floor."""
    bound = s2_bound(q)
    d = (q - 1) // 2
    m = int(round(sigma * q))
    lo, hi = (1 - 2 * gamma) * sigma * d, (1 + 2 * gamma) * sigma * d
    lam_bound = 6 * sigma * (1 + math.sqrt(q)) / 2
    successes = 0
    for rec in exp.per_trial:
        members = trial_members(rec.seed, q, m)
        sub = adj[np.ix_(members, members)].astype(float)
        degs = sub.sum(axis=1)
        degrees_ok = bool(degs.min() >= lo and degs.max() <= hi)
        s2 = float(np.sort(np.abs(np.linalg.eigvalsh(sub)))[-2])
        if not rec.s2 <= bound:
            return f"trial {rec.trial}: s2 = {rec.s2!r} above interlacing bound {bound!r}"
        if not abs(rec.s2 - s2) <= S2_MATCH:
            return f"trial {rec.trial}: s2 = {rec.s2!r} but eigvalsh gives {s2!r}"
        if rec.degrees_ok != degrees_ok:
            return (f"trial {rec.trial}: degrees_ok = {rec.degrees_ok} but degrees "
                    f"[{degs.min():g}, {degs.max():g}] against [{lo:g}, {hi:g}]")
        successes += degrees_ok and s2 <= lam_bound
    floor = 1 - q ** (-1 / 6)
    if not exp.success_fraction >= floor:
        return f"success fraction {exp.success_fraction} below floor {floor:.4f}"
    if exp.success_fraction != successes / len(exp.per_trial):
        return (f"success fraction {exp.success_fraction} != "
                f"{successes}/{len(exp.per_trial)} recomputed")
    return None
