"""Random-submatrix norm bounds against a battery of structured matrices.

Each matrix is run through both submatrix models:
  two_sided_bernoulli  -- independent Bernoulli(sigma) row/column subsets
  symmetric_uniform    -- one uniform m-subset applied on both sides
and the empirical L_p norm is compared to the corresponding bound.

Usage:
    python3 scripts/submatrix_battery.py --trials 500 --out results/battery.csv
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from expanderlab import graphs, sampling
from expanderlab.rng import generator


def battery(seed: int):
    """(name, symmetric matrix) pairs covering the interesting extremes."""
    mats = [("identity_64", np.eye(64)),
            ("all_ones_64", np.ones((64, 64)))]
    for q in (61, 101):
        g = graphs.gen_paley(q)
        a = g.adjacency_dense().astype(float)
        d = g.degree(0)
        # Centered adjacency: the mean is projected out, so the top
        # singular value reflects the spectral gap, not the degree.
        b = a - (d / q) * np.ones((q, q))
        mats.append((f"paley_{q}_centered", b))
    rng = generator(seed, "battery-rademacher")
    for i in range(4):
        m = rng.integers(0, 2, size=(80, 80)) * 2.0 - 1.0
        mats.append((f"rademacher_80_{i}", np.triu(m) + np.triu(m, 1).T))
    return mats


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigma", type=float, default=0.3)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/submatrix_battery.csv")
    args = ap.parse_args()

    rows = []
    for name, arr in battery(args.seed):
        n = arr.shape[0]
        for mode in ("two_sided_bernoulli", "symmetric_uniform"):
            est = sampling.submatrix_norm_experiment(
                arr, mode, sigma=args.sigma, m=max(1, int(args.sigma * n)),
                p=args.p, trials=args.trials, seed=args.seed)
            rows.append({"matrix": name, "mode": mode, "n": n,
                         "empirical_lp": est.empirical_lp,
                         "std_error": est.std_error,
                         "bound": est.theoretical_bound,
                         "ratio": est.empirical_lp / est.theoretical_bound,
                         "holds": est.holds})
            print(f"{name:22s} {mode:20s} emp={est.empirical_lp:9.3f} "
                  f"bound={est.theoretical_bound:9.3f} holds={est.holds}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
