"""Monte Carlo norm and spectral experiments on random subsets.

Each experiment draws its own subsets per seeded trial: the
random-submatrix norm experiments take independent Bernoulli rows and
columns or a uniform fixed-size principal set, and the induced-subgraph
spectral experiments take uniform vertex sets: a trial reads the
degrees and s2 of G[S], or the cross degrees of (X, Y) and the s2 of
G[X u Y], each induced subgraph built once, under the one trial rule of
`_subgraph_trials` (certificate check, gamma and the 6 sigma lambda cap).
Hypergeometric Chernoff bounds come with an exact-tail oracle so the
inequalities can be tested against ground truth at small sizes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import (AsymmetricInput, BadParameter, BadRange,
                     CertificateMismatch)
from .graphs import Graph, SpectralCertificate, window_violation
from .rng import child_seed, derive_seed, generator

BATCHES = 10              # batch-means groups for standard errors


@dataclass(frozen=True)
class MomentEstimate:
    p: float
    trials: int
    empirical_lp: float
    std_error: float
    theoretical_bound: float
    seed: int

    @property
    def holds(self) -> bool:
        return self.empirical_lp <= self.theoretical_bound


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    s2: float
    degrees_ok: bool
    success: bool


@dataclass(frozen=True)
class SubgraphExperiment:
    sigma: float
    trials: int
    gamma_used: float
    lambda_bound: float
    success_fraction: float
    hypotheses_hold: bool | None
    per_trial: tuple

    def csv_rows(self):
        return [asdict(r) for r in self.per_trial]

    def summary(self, floor: float) -> dict:
        return {"params": {"sigma": self.sigma, "trials": self.trials,
                           "gamma_used": self.gamma_used,
                           "lambda_bound": self.lambda_bound,
                           "hypotheses_hold": self.hypotheses_hold},
                "success_fraction": self.success_fraction,
                "floor": floor,
                "pass": self.success_fraction >= floor}


def hypergeometric_tail(big_n: int, k: int, n: int, a: float,
                        side: str) -> float:
    """Chernoff bound on a hypergeometric tail with mean mu = n*k/N.

    lower: Pr[X < (1-a) mu] < exp(-a^2 mu / 2), valid for a > 0;
    upper: Pr[X > (1+a) mu] < exp(-a^2 mu / 3), valid for 0 < a < 3/2.
    """
    if not (0 <= k <= big_n and 0 <= n <= big_n):
        raise BadRange(f"need 0 <= K <= N and 0 <= n <= N, got N={big_n}, K={k}, n={n}")
    mu = n * k / big_n if big_n else 0.0
    if side == "lower":
        if a <= 0:
            raise BadRange(f"lower tail needs a > 0, got {a}")
        return math.exp(-a * a * mu / 2)
    if side == "upper":
        if not 0 < a < 1.5:
            raise BadRange(f"upper tail needs 0 < a < 3/2, got {a}")
        return math.exp(-a * a * mu / 3)
    raise BadRange(f"side must be 'lower' or 'upper', got {side!r}")


def exact_hypergeometric_tail(big_n: int, k: int, n: int, a: float,
                              side: str) -> float:
    """Exact tail probability by integer pmf summation (the oracle)."""
    if not (0 <= k <= big_n and 0 <= n <= big_n):
        raise BadRange(f"need 0 <= K <= N and 0 <= n <= N, got N={big_n}, K={k}, n={n}")
    mu = n * k / big_n if big_n else 0.0
    denom = math.comb(big_n, n)
    lo = max(0, n - (big_n - k))
    hi = min(n, k)
    total = 0
    for x in range(lo, hi + 1):
        if (side == "lower" and x < (1 - a) * mu) or \
           (side == "upper" and x > (1 + a) * mu):
            total += math.comb(k, x) * math.comb(big_n - k, n - x)
    return total / denom


def _finite(**params) -> None:
    """Refuse each given parameter that is NaN or infinite (None is unset)."""
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise BadParameter(f"{name}={value} is not finite")


def _batch_lp(values: np.ndarray, p: float):
    """Lp mean and batch-means standard error."""
    lp = float(np.mean(np.abs(values) ** p) ** (1 / p))
    per_batch = [float(np.mean(np.abs(chunk) ** p) ** (1 / p))
                 for chunk in np.array_split(values, BATCHES) if chunk.size]
    se = float(np.std(per_batch, ddof=1) / np.sqrt(len(per_batch))) \
        if len(per_batch) > 1 else 0.0
    return lp, se


def submatrix_norm_experiment(b: np.ndarray, mode: str,
                              sigma: float | None = None,
                              m: int | None = None,
                              p: float = 2.0, trials: int = 200,
                              seed: int = 0) -> MomentEstimate:
    """Empirical L_p norm of random principal/two-sided submatrices vs bound.

    two_sided_bernoulli: rows I ~ Subset(sigma), cols I' ~ Subset(sigma)
    independent; bound sigma*||B|| + 3 sqrt(q sigma)(||B||_{1->2} +
    ||B^T||_{1->2}) + 8 q ||B||_inf. symmetric_uniform: J a uniform
    m-subset, P_J B P_J; bound 4 sigma*||B|| + 24 sqrt(q sigma)
    ||B||_{1->2} + 35 q ||B||_inf with sigma = m/n. q = max(p, 2 ln n).
    An all-zero B raises BadParameter: the check would compare 0 with 0.
    """
    _finite(sigma=sigma, p=p)
    if p < 2:
        raise BadParameter(f"p={p} must be >= 2")
    if trials < 1:
        raise BadParameter(f"trials={trials} must be at least 1")
    arr = np.asarray(b, dtype=float)
    if not arr.any():
        raise BadParameter("B is all zero: every submatrix norm and the bound "
                           "are 0, so the check would be vacuous")
    nrows, ncols = arr.shape
    n = max(nrows, ncols)
    q = max(p, 2 * math.log(n))
    bundle = linalg.norm_bundle_array(arr, seed=seed)
    if mode == "two_sided_bernoulli":
        if sigma is None or not 0 < sigma < 1:
            raise BadParameter(f"two_sided_bernoulli needs sigma in (0,1), got {sigma}")
        bound = (sigma * bundle.operator
                 + 3 * math.sqrt(q * sigma) * (bundle.one_to_two
                                               + bundle.one_to_two_transpose)
                 + 8 * q * bundle.max_abs)
    elif mode == "symmetric_uniform":
        if not np.array_equal(arr, arr.T):
            raise AsymmetricInput("symmetric_uniform mode requires B symmetric")
        if m is None or not 1 <= m <= n:
            raise BadParameter(f"symmetric_uniform needs 1 <= m <= n, got {m}")
        sigma = m / n
        bound = (4 * sigma * bundle.operator
                 + 24 * math.sqrt(q * sigma) * bundle.one_to_two
                 + 35 * q * bundle.max_abs)
    else:
        raise BadParameter(f"unknown mode {mode!r}")

    norms = np.empty(trials)
    for t in range(trials):
        rng = generator(seed, f"submatrix-{mode}", t)
        if mode == "two_sided_bernoulli":
            rows = np.flatnonzero(rng.random(nrows) < sigma)
            cols = np.flatnonzero(rng.random(ncols) < sigma)
        else:
            rows = cols = rng.permutation(n)[:m]
        norms[t] = linalg.operator_norm(
            arr[np.ix_(rows, cols)], seed=child_seed(seed, f"submatrix-{mode}", t))
    lp, se = _batch_lp(norms, p)
    return MomentEstimate(p=p, trials=trials, empirical_lp=lp, std_error=se,
                          theoretical_bound=float(bound), seed=seed)


def _subgraph_trials(label: str, g: Graph, cert: SpectralCertificate,
                     sigma: float, gamma_target: float, trials: int, seed: int,
                     draw, hypothesis=None) -> SubgraphExperiment:
    """The trial rule of both subgraph experiments: gamma is gamma_hat, or
    `gamma_target` on an exactly regular graph (its window would be a
    point), and the s2 cap is 6 sigma lambda_hat. draw(rng, gamma) gives a
    trial's induced subgraph and whether its degree windows hold; the
    trial succeeds when they do and its s2 is at most the cap. Without a
    `hypothesis`, the record's hypotheses_hold is None."""
    if cert.n != g.n:
        raise CertificateMismatch("certificate does not match the graph")
    if trials < 1:
        raise BadParameter(f"trials={trials} must be at least 1")
    _finite(gamma_target=gamma_target)
    if gamma_target <= 0:
        raise BadParameter(f"gamma_target={gamma_target} must be positive")
    gamma = cert.gamma_hat if cert.gamma_hat > 0 else gamma_target
    lam_bound = 6 * sigma * cert.lambda_hat
    records = []
    for t in range(trials):
        trial_seed = derive_seed(seed, label, t)
        sample, degrees_ok = draw(generator(seed, label, t), gamma)
        s2 = sample.s2(child_seed(seed, label, t))
        records.append(TrialRecord(trial=t, seed=trial_seed, s2=s2,
                                   degrees_ok=degrees_ok,
                                   success=degrees_ok and s2 <= lam_bound))
    return SubgraphExperiment(
        sigma=sigma, trials=trials, gamma_used=gamma, lambda_bound=lam_bound,
        success_fraction=sum(r.success for r in records) / trials,
        hypotheses_hold=None if hypothesis is None else hypothesis(gamma),
        per_trial=tuple(records))


def induced_subgraph_experiment(g: Graph, cert: SpectralCertificate,
                                sigma: float, trials: int = 200,
                                seed: int = 0, gamma_target: float = 0.05
                                ) -> SubgraphExperiment:
    """Spot-check that uniform sigma*n-subsets induce (sigma*n, (1±2gamma)sigma*d, 6 sigma lambda)-graphs.

    Hypothesis satisfaction (sigma*d >= C gamma^-2 ln n and sigma*lambda
    >= C sqrt(sigma*d ln n), C = 1) is reported apart from the conclusion.
    """
    _finite(sigma=sigma)
    n, d = g.n, cert.d
    m = int(round(sigma * n))
    if m < 1:
        raise BadParameter(f"sigma*n = {sigma * n} < 1")
    if m > n:
        raise BadParameter(f"sigma*n = {sigma * n} > n")

    def draw(rng, gamma):
        sub, members = g.induced(rng.permutation(n)[:m])
        return sub, window_violation((members,), (sub.degrees(),), (sigma * d,),
                                     2 * gamma) is None

    def hypothesis(gamma):
        log_n = math.log(n)
        return (sigma * d >= gamma ** -2 * log_n
                and sigma * cert.lambda_hat >= math.sqrt(sigma * d * log_n))

    return _subgraph_trials("induced-subgraph", g, cert, sigma, gamma_target,
                            trials, seed, draw, hypothesis)


def bipartite_induced_experiment(g: Graph, cert: SpectralCertificate,
                                 sigma1: float, sigma2: float,
                                 trials: int = 200, seed: int = 0,
                                 gamma_target: float = 0.05
                                 ) -> SubgraphExperiment:
    """Bipartite variant: disjoint X (sigma1*n) and Y (sigma2*n), cross-degree windows.

    Per trial, deg(v, Y) for v in X must lie in (1±2gamma) sigma2 d,
    deg(v, X) for v in Y in (1±2gamma) sigma1 d, and s2(G[X u Y]) <=
    6 (sigma1+sigma2) lambda.
    """
    _finite(sigma1=sigma1, sigma2=sigma2)
    n, d = g.n, cert.d
    m1, m2 = int(round(sigma1 * n)), int(round(sigma2 * n))
    if m1 < 1 or m2 < 1:
        raise BadParameter("both sigma_i * n must be at least 1")
    if sigma1 + sigma2 > 1:
        raise BadParameter(f"sigma1 + sigma2 = {sigma1 + sigma2} > 1")

    def draw(rng, gamma):
        perm = rng.permutation(n)
        x, y = perm[:m1], perm[m1:m1 + m2]
        return g.induced(perm[:m1 + m2])[0], window_violation(
            (x, y), (g.cross_degree(x, y), g.cross_degree(y, x)),
            (sigma2 * d, sigma1 * d), 2 * gamma) is None

    return _subgraph_trials("bipartite-induced", g, cert, sigma1 + sigma2,
                            gamma_target, trials, seed, draw)
