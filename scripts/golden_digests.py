"""Print one digest line per Hamilton-pipeline run, for before/after diffs.

Each line holds q, the config as compact JSON, the outcome and the
SHA-256 of the trace JSON plus the cycle line (as `expanderlab hamilton`
prints them). The runs are the criterion-9 table (Paley q in {401, 1009,
2029}, config seeds 0-9) and Paley 401 configs that fail on each
partition and repartition check, on the perfect-matching gamma cap and
on the lambda/d gate. Then one line per spectral certificate holds q,
the CLI seed and `float.hex` of `certify_expander`'s lambda_hat and
residual, for Paley q in {13, 101, 401, 1009, 2029} at the certificate
seeds `expanderlab --seed 0` and `--seed 11` use. Two commits produce
the same outputs when their printed lines are identical. From the root
of each checkout (or with the package installed, without PYTHONPATH):

    PYTHONPATH=src python3 scripts/golden_digests.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import json

from expanderlab import graphs, hamilton
from expanderlab.rng import derive_seed

FAILURE_CONFIGS = [
    {"seed": 0, "gamma_caps": {"P1": 0.02}},
    {"seed": 0, "gamma_caps": {"P5": 0.05}},
    {"seed": 0, "gamma_caps": {"Q3": 0.1}},
    {"seed": 0, "gamma_caps": {"Q4": 0.1}},
    {"seed": 0, "gamma_caps": {"Q5": 0.1}},
    {"seed": 1, "constant_overrides": {"p2_scale": 0.5}},
    {"seed": 1, "constant_overrides": {"pm_gamma_cap": 0.05}},
    {"seed": 0, "constant_overrides": {"lambda_ratio_cap": 0.03}},
]


def run_digest(g, cfg_data: dict) -> tuple:
    """(outcome, SHA-256 of trace JSON plus cycle line) of one pipeline run."""
    result = hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(**cfg_data))
    text = result.trace.to_json() + "\n"
    if result.cycle is not None:
        text += result.cycle.to_line() + "\n"
    return result.trace.outcome, hashlib.sha256(text.encode()).hexdigest()


def certificate_bits(g, cli_seed: int) -> tuple:
    """float.hex of (lambda_hat, residual) of the certificate that
    `expanderlab --seed cli_seed certify` computes."""
    cert = graphs.certify_expander(g, seed=derive_seed(cli_seed, "certify") % 2 ** 31)
    return cert.lambda_hat.hex(), cert.residual.hex()


def main():
    runs = [(q, {"seed": s}) for q in (401, 1009, 2029) for s in range(10)]
    runs += [(401, cfg) for cfg in FAILURE_CONFIGS]
    paley = {}
    for q, cfg_data in runs:
        g = paley.setdefault(q, graphs.gen_paley(q))
        outcome, digest = run_digest(g, cfg_data)
        print(q, json.dumps(cfg_data, sort_keys=True, separators=(",", ":")),
              outcome, digest)
    for q in (13, 101, 401, 1009, 2029):
        g = paley.get(q) or graphs.gen_paley(q)
        for cli_seed in (0, 11):
            print(q, f"certify --seed {cli_seed}", *certificate_bits(g, cli_seed))


if __name__ == "__main__":
    main()
