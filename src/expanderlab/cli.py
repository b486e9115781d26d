"""Command-line front end.

One master seed per invocation; every subcommand that draws takes
`--seed` and derives labeled child seeds from it, so a single integer
reproduces an entire experiment. `--out` is the only global option;
every other option belongs to the parsers whose code reads it, and
argparse refuses it anywhere else. Each subcommand returns its exit code
and its records by path suffix, and `main` writes them all with `_write`.
Exit codes: 0 success, 2 precondition/usage failure, 3 phase or
theorem failure, 4 verification failure.
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


def _write_manifest(out: Path, command: str, cfg: dict,
                    inputs: list, outputs: list, started: float):
    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed"),
        "artifact_version": ARTIFACT_VERSION,
        "inputs": {str(p): _digest(Path(p)) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time": round(time.time() - started, 3),
    }
    path = out.with_suffix(out.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _write(record, path: Path | None):
    """Write `record` to the file `path`, or to stdout: a graph as its
    graph file, a str as it is, a list of dicts with the same keys as CSV
    (a header, then a line each), anything else as indented JSON."""
    if isinstance(record, graphs.Graph):
        if path:
            return graphs.write_graph(record, path)     # streamed in chunks
        record = graphs.graph_file_bytes(record).decode("ascii")
    elif isinstance(record, list):
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=list(record[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(record)
        record = buf.getvalue()
    elif not isinstance(record, str):
        record = json.dumps(record, indent=2) + "\n"
    if path:
        path.write_text(record, newline="")
    else:
        sys.stdout.write(record)


def _certified(args) -> tuple:
    """The graph file `args.graph` and its certificate at the CLI seed."""
    g = graphs.read_graph(args.graph)
    return g, graphs.certify_expander(g, seed=child_seed(args.seed, "certify"))


def _vertex_list(spec: str) -> list:
    return [int(tok) for tok in spec.replace(",", " ").split()]


def _cmd_gen(args) -> tuple:
    if args.kind == "paley":
        g = graphs.gen_paley(*args.params)
    elif args.kind == "regular":
        g = graphs.gen_random_regular(*args.params, seed=args.seed)
    else:
        g = graphs.gen_named(args.kind, *args.params)
    return EXIT_OK, {"": g}


def _cmd_certify(args) -> tuple:
    cert = _certified(args)[1]
    row = {key: getattr(cert, key) for key in ("n", "d", "gamma_hat", "lambda_hat")}
    return EXIT_OK, {"": [row] if args.format == "csv" else dataclasses.asdict(cert)}


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
    record = rows if args.format == "csv" else {
        "samples": args.samples, "violated": violated, "rows": rows}
    return EXIT_PHASE if violated else EXIT_OK, {"": record}


def _cmd_subsample(args) -> tuple:
    g, cert = _certified(args)
    exp = sampling.induced_subgraph_experiment(
        g, cert, args.sigma, trials=args.trials, seed=args.seed,
        gamma_target=args.gamma_target)
    floor = 1 - g.n ** (-1 / 6)
    summary = exp.summary(floor)
    summary["schema_version"] = ARTIFACT_VERSION
    return (EXIT_OK if summary["pass"] else EXIT_PHASE,
            {"": summary, ".trials.csv": exp.csv_rows()})


def _cmd_submatrix(args) -> tuple:
    m = linalg.read_matrix(args.matrix)
    size = {"sigma": args.sigma} if args.mode == "two_sided_bernoulli" else {"m": args.m}
    est = sampling.submatrix_norm_experiment(
        m, args.mode, p=args.p, trials=args.trials, seed=args.seed, **size)
    payload = {"schema_version": ARTIFACT_VERSION, "mode": args.mode,
               "p": est.p, "trials": est.trials,
               "empirical_lp": est.empirical_lp,
               "std_error": est.std_error,
               "theoretical_bound": est.theoretical_bound,
               "holds": est.holds}
    return EXIT_OK if est.holds else EXIT_PHASE, {"": payload}


def _cmd_match(args) -> tuple:
    view = graphs.BipartiteView(graphs.read_graph(args.graph), _vertex_list(args.left),
                                _vertex_list(args.right))
    if args.mode == "max":
        m = matching.max_matching(view)
    else:   # argparse allows only "max" and "perfect"
        m = matching.perfect_matching_expander(
            view, view.s2(child_seed(args.seed, "match-s2")),
            gamma_cap=hamilton.CONSTANT_DEFAULTS["pm_gamma_cap"],
            ratio_cap=hamilton.CONSTANT_DEFAULTS["lambda_ratio_cap"])
    return EXIT_OK, {"": m.to_json() + "\n"}


def _cmd_hamilton(args) -> tuple:
    g = graphs.read_graph(args.graph)
    cfg_data = json.loads(Path(args.config).read_text()) if args.config else {}
    cfg = hamilton.PipelineConfig.from_dict(cfg_data)
    if "seed" in cfg_data:
        raise BadParameter(f"config {args.config} sets seed; the seed is --seed")
    result = hamilton.hamilton_pipeline(g, dataclasses.replace(cfg, seed=args.seed))
    artifacts = {"": result.trace.to_json() + "\n"}
    if result.cycle:
        artifacts[".cycle.txt"] = result.cycle.to_line() + "\n"
    return EXIT_OK if result.cycle else EXIT_PHASE, artifacts


def _cmd_verify(args) -> tuple:
    g = graphs.read_graph(args.graph)
    cycle = hamilton.HamiltonCycle.from_line(Path(args.cycle).read_text())
    verdict = hamilton.verify_hamilton_cycle(g, cycle)
    return (EXIT_OK if verdict else EXIT_VERIFICATION,
            {"": {"ok": verdict.ok, "reason": verdict.reason}})


def _cmd_summarize(args) -> tuple:
    records = []
    for path in sorted(Path(args.directory).glob("*.json")):
        if path.name.endswith(".manifest.json"):
            continue
        data = json.loads(path.read_text())
        if (isinstance(data, dict) and "schema_version" in data
                and "success_fraction" in data):
            records.append((path, data))
    if not records:
        raise SchemaMismatch(f"no experiment summaries in {args.directory}")
    versions = {str(path): data["schema_version"] for path, data in records}
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
    return EXIT_OK, {"": rows}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expanderlab",
        description="Spectral-expander laboratory: certificates, mixing "
                    "audits, sampling experiments, matchings, and a "
                    "constructive Hamilton-cycle pipeline.")
    parser.add_argument("--out", help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)    # a parent where code draws
    seeded.add_argument("--seed", type=int, default=0,
                        help="master seed; all randomness derives from it")

    kinds = sub.add_parser("gen", help="generate a graph file").add_subparsers(
        dest="kind", required=True)
    for kind, sizes in (("paley", "q"), ("regular", "n d"), ("complete", "n"),
                        ("cycle", "n"), ("complete_bipartite", "n"), ("petersen", "")):
        p = kinds.add_parser(kind, parents=[seeded] if kind == "regular" else [])
        if sizes:
            p.add_argument("params", nargs=len(sizes.split()), type=int, help=sizes)
        p.set_defaults(func=_cmd_gen, params=[])

    p = sub.add_parser("certify", parents=[seeded], help="spectral expander certificate")
    p.add_argument("graph")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("eml", parents=[seeded], help="random mixing-window audits")
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_eml)

    p = sub.add_parser("subsample", parents=[seeded],
                       help="random induced-subgraph experiment")
    p.add_argument("--graph", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--gamma-target", type=float, default=0.05)
    p.set_defaults(func=_cmd_subsample)

    modes = sub.add_parser("submatrix", help="random submatrix norm experiment"
                           ).add_subparsers(dest="mode", required=True)
    for mode, size, cast in (("two_sided_bernoulli", "--sigma", float),
                             ("symmetric_uniform", "--m", int)):
        p = modes.add_parser(mode, parents=[seeded], allow_abbrev=False)  # --m != --matrix
        p.add_argument("--matrix", required=True)
        p.add_argument(size, type=cast)
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--trials", type=int, default=200)
        p.set_defaults(func=_cmd_submatrix)

    modes = sub.add_parser("match", help="bipartite matchings").add_subparsers(
        dest="mode", required=True)
    for mode in ("max", "perfect"):
        p = modes.add_parser(mode, parents=[seeded] if mode == "perfect" else [])
        for option in ("--graph", "--left", "--right"):
            p.add_argument(option, required=True)
        p.set_defaults(func=_cmd_match)

    p = sub.add_parser("hamilton", parents=[seeded], help="run the Hamilton-cycle pipeline")
    p.add_argument("graph")
    p.add_argument("--config", help="JSON pipeline config file, without seed")
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
        if "seed" in args and args.seed not in SEED_RANGE:
            raise BadParameter(f"--seed {args.seed} outside [-2**127, 2**127)")
        code, artifacts = args.func(args)
        # Each record's path is --out with its suffix; without --out only
        # the main record (the first, suffix "") goes, to stdout.
        outputs = [Path(args.out).with_suffix(suffix) if suffix else Path(args.out)
                   for suffix in artifacts] if args.out else []
        for path, record in zip(outputs or [None], artifacts.values()):
            _write(record, path)
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
        _write_manifest(Path(args.out), args.command, cfg,
                        inputs, outputs, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
