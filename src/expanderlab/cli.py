"""Command-line front end.

One master seed per invocation; every subcommand derives labeled
child seeds, so a single integer reproduces an entire experiment.
`--seed` and `--out` are global; every other option belongs to the
subcommands that read it, and argparse refuses it anywhere else.
Exit codes: 0 success, 2 precondition/usage failure, 3 phase or
theorem failure, 4 verification failure. Each subcommand returns its
exit code and the files it wrote, which the `--out` manifest lists.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from . import graphs, hamilton, linalg, matching, mixing, sampling
from .errors import (BadParameter, ConnectFailed, ExpanderLabError,
                     NoConvergence, PartitionRetriesExhausted,
                     PerfectMatchingFailed, RetryExhausted, SchemaMismatch,
                     TheoremFalsified)
from .rng import SEED_RANGE, child_seed, generator

ARTIFACT_VERSION = 1

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PHASE = 3
EXIT_VERIFICATION = 4

_PHASE_ERRORS = (TheoremFalsified, NoConvergence, RetryExhausted,
                 PartitionRetriesExhausted, ConnectFailed,
                 PerfectMatchingFailed)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, cfg: dict, seed: int,
                    inputs: list, outputs: list, started: float):
    manifest = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "artifact_version": ARTIFACT_VERSION,
        "inputs": {str(p): _digest(Path(p)) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time": round(time.time() - started, 3),
    }
    path = out.with_suffix(out.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _emit(text: str, out: str | None) -> list:
    """Write `text` to the file `out`, or to stdout; the files written."""
    if out:
        Path(out).write_text(text)
        return [out]
    sys.stdout.write(text)
    return []


def _table(rows: list) -> str:
    """CSV text of `rows`, dicts with the same keys: a header, then a line each."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def _certified(args) -> tuple:
    """The graph file `args.graph` and its certificate at the CLI seed."""
    g = graphs.read_graph(args.graph)
    return g, graphs.certify_expander(g, seed=child_seed(args.seed, "certify"))


def _vertex_list(spec: str) -> list:
    return [int(tok) for tok in spec.replace(",", " ").split()]


def _cmd_gen(args) -> tuple:
    kind, params = args.kind, args.params
    needed = {"paley": 1, "regular": 2, "petersen": 0}.get(kind, 1)
    if len(params) != needed:
        raise BadParameter(f"gen {kind} takes {needed} size argument(s), "
                           f"got {len(params)}")
    if kind == "paley":
        g = graphs.gen_paley(*params)
    elif kind == "regular":
        g = graphs.gen_random_regular(*params, seed=args.seed)
    else:
        g = graphs.gen_named(kind, *params)
    if args.out:
        graphs.write_graph(g, args.out)
        return EXIT_OK, [args.out]
    return EXIT_OK, _emit(graphs.graph_file_bytes(g).decode("ascii"), None)


def _cmd_certify(args) -> tuple:
    cert = _certified(args)[1]
    row = {key: getattr(cert, key) for key in ("n", "d", "gamma_hat", "lambda_hat")}
    text = _table([row]) if args.format == "csv" else graphs.certificate_to_json(cert)
    return EXIT_OK, _emit(text, args.out)


def _cmd_eml(args) -> tuple:
    if args.samples < 1:
        raise BadParameter(f"--samples {args.samples} must be at least 1")
    g, cert = _certified(args)
    rng = generator(args.seed, "eml-samples")
    rows = []
    violated = 0
    for i in range(args.samples):
        sizes = rng.integers(1, max(2, g.n // 2), size=2)
        perm = rng.permutation(g.n)
        s = perm[:sizes[0]]
        t = perm[sizes[0]:sizes[0] + sizes[1]]
        audit = mixing.eml_graph_audit(cert, g, s, t)
        violated += not audit.holds
        rows.append({"sample": i, "size_s": int(sizes[0]),
                     "size_t": int(sizes[1]),
                     "count": audit.ordered_count,
                     "lower": audit.lower, "upper": audit.upper,
                     "holds": audit.holds})
    text = _table(rows) if args.format == "csv" else json.dumps(
        {"samples": args.samples, "violated": violated, "rows": rows}, indent=2) + "\n"
    return EXIT_PHASE if violated else EXIT_OK, _emit(text, args.out)


def _cmd_subsample(args) -> tuple:
    g, cert = _certified(args)
    exp = sampling.induced_subgraph_experiment(
        g, cert, args.sigma, trials=args.trials, seed=args.seed,
        gamma_target=args.gamma_target)
    floor = 1 - g.n ** (-1 / 6)
    summary = exp.summary(floor)
    summary["schema_version"] = ARTIFACT_VERSION
    outputs = _emit(json.dumps(summary, indent=2) + "\n", args.out)
    if args.out:
        csv_path = Path(args.out).with_suffix(".trials.csv")
        csv_path.write_text(_table(exp.csv_rows()), newline="")
        outputs.append(csv_path)
    return EXIT_OK if summary["pass"] else EXIT_PHASE, outputs


def _cmd_submatrix(args) -> tuple:
    m = linalg.read_matrix(args.matrix)
    est = sampling.submatrix_norm_experiment(
        m, args.mode, sigma=args.sigma, m=args.m, p=args.p,
        trials=args.trials, seed=args.seed)
    payload = {"schema_version": ARTIFACT_VERSION, "mode": args.mode,
               "p": est.p, "trials": est.trials,
               "empirical_lp": est.empirical_lp,
               "std_error": est.std_error,
               "theoretical_bound": est.theoretical_bound,
               "holds": est.holds}
    return (EXIT_OK if est.holds else EXIT_PHASE,
            _emit(json.dumps(payload, indent=2) + "\n", args.out))


def _cmd_match(args) -> tuple:
    g = graphs.read_graph(args.graph)
    view = graphs.BipartiteView(parent=g, left=_vertex_list(args.left),
                                right=_vertex_list(args.right))
    if args.mode == "max":
        m = matching.max_matching(view)
    else:   # argparse allows only "max" and "perfect"
        cert = graphs.certify_expander(g, seed=child_seed(args.seed, "certify"))
        m = matching.perfect_matching_expander(
            view, d=cert.d, gamma=view.observed_gamma(cert.d, g.n),
            lam=view.s2(child_seed(args.seed, "match-s2")),
            gamma_cap=args.gamma_cap, ratio_cap=args.ratio_cap)
    return EXIT_OK, _emit(m.to_json() + "\n", args.out)


def _cmd_hamilton(args) -> tuple:
    g = graphs.read_graph(args.graph)
    cfg_data = json.loads(Path(args.config).read_text()) if args.config else {}
    cfg = hamilton.PipelineConfig.from_dict(cfg_data)
    if "seed" not in cfg_data:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result = hamilton.hamilton_pipeline(g, cfg)
    outputs = _emit(result.trace.to_json() + "\n", args.out)
    if result.cycle:
        cycle_out = Path(args.out).with_suffix(".cycle.txt") if args.out else None
        outputs += _emit(result.cycle.to_line() + "\n", cycle_out)
    return EXIT_OK if result.cycle else EXIT_PHASE, outputs


def _cmd_verify(args) -> tuple:
    g = graphs.read_graph(args.graph)
    cycle = hamilton.HamiltonCycle.from_line(Path(args.cycle).read_text())
    verdict = hamilton.verify_hamilton_cycle(g, cycle)
    text = json.dumps({"ok": verdict.ok, "reason": verdict.reason}) + "\n"
    return EXIT_OK if verdict else EXIT_VERIFICATION, _emit(text, args.out)


def _cmd_summarize(args) -> tuple:
    files = sorted(Path(args.directory).glob("*.json"))
    records = []
    versions = {}
    for path in files:
        if path.name.endswith(".manifest.json"):
            continue
        data = json.loads(path.read_text())
        if not (isinstance(data, dict) and "schema_version" in data
                and "success_fraction" in data):
            continue
        versions[str(path)] = data["schema_version"]
        records.append((path, data))
    if not records:
        raise SchemaMismatch(f"no experiment summaries in {args.directory}")
    if any(v != records[0][1]["schema_version"] for v in versions.values()):
        raise SchemaMismatch(f"mixed schema versions: {versions}")
    rows = []
    for path, data in records:
        missing = [key for key in ("floor", "pass") if key not in data]
        if not isinstance(data.get("params"), dict) or "sigma" not in data["params"]:
            missing.insert(0, "params.sigma")
        if missing:
            raise SchemaMismatch(f"summary {path} has no {', '.join(missing)}")
        rows.append({"sigma": data["params"]["sigma"], "success_fraction": data["success_fraction"],
                     "floor": data["floor"], "pass": data["pass"]})
    return EXIT_OK, _emit(_table(rows), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expanderlab",
        description="Spectral-expander laboratory: certificates, mixing "
                    "audits, sampling experiments, matchings, and a "
                    "constructive Hamilton-cycle pipeline.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; all randomness derives from it")
    parser.add_argument("--out", help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("kind", choices=["paley", "regular", "complete", "cycle",
                                    "complete_bipartite", "petersen"])
    p.add_argument("params", nargs="*", type=int, help="kind-specific sizes")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("certify", help="spectral expander certificate")
    p.add_argument("graph")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("eml", help="random mixing-window audits")
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_eml)

    p = sub.add_parser("subsample", help="random induced-subgraph experiment")
    p.add_argument("--graph", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--gamma-target", type=float, default=0.05)
    p.set_defaults(func=_cmd_subsample)

    p = sub.add_parser("submatrix", help="random submatrix norm experiment")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mode", choices=["two_sided_bernoulli",
                                      "symmetric_uniform"], required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_submatrix)

    p = sub.add_parser("match", help="bipartite matchings")
    p.add_argument("--graph", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--mode", choices=["max", "perfect"], default="max")
    p.add_argument("--gamma-cap", type=float, default=hamilton.CONSTANT_DEFAULTS["pm_gamma_cap"])
    p.add_argument("--ratio-cap", type=float, default=hamilton.CONSTANT_DEFAULTS["lambda_ratio_cap"])
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("hamilton", help="run the Hamilton-cycle pipeline")
    p.add_argument("graph")
    p.add_argument("--config", help="JSON pipeline config file")
    p.set_defaults(func=_cmd_hamilton)

    p = sub.add_parser("verify", help="verify a cycle file against a graph")
    p.add_argument("graph")
    p.add_argument("cycle")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("summarize", help="collect experiment summaries to CSV")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PRECONDITION if exc.code else EXIT_OK
    started = time.time()
    try:
        if args.seed not in SEED_RANGE:
            raise BadParameter(f"--seed {args.seed} outside [-2**127, 2**127)")
        code, outputs = args.func(args)
    except _PHASE_ERRORS as exc:
        sys.stderr.write(f"phase failure: {exc}\n")
        return EXIT_PHASE
    except (ExpanderLabError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    if outputs:
        inputs = [p for p in (getattr(args, key, None)
                              for key in ("graph", "matrix", "cycle", "config"))
                  if p and Path(p).exists()]
        cfg = {k: v for k, v in vars(args).items() if k != "func"}
        _write_manifest(Path(args.out), args.command, cfg, args.seed,
                        inputs, outputs, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
