"""Wall time and peak resident memory of each graph-sized step on Paley q.

    PYTHONPATH=src python3 scripts/memory_probe.py --q 10009 [--dir DIR]

Each step runs in a fresh Python process on one BLAS thread, so its
`ru_maxrss` is its own and not a leftover of an earlier step:

- `gen_paley`: generate the graph;
- `write_graph`: generate it, then write the graph file;
- `read_graph`: read that file back (written by the step before);
- `certify_expander`: generate it, then certify it (CLI seed 0);
- `hamilton_pipeline`: generate it, then one pipeline call (config seed 0).

One JSON line per step: q, the step, the seconds of the step alone, the
process's peak RSS in MB before the step and at its end, and the bytes
the graph keeps (its CSR arrays). The graph file goes to DIR (default a
temporary directory, removed at the end).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

STEPS = ("gen_paley", "write_graph", "read_graph", "certify_expander", "hamilton_pipeline")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_step(step: str, q: int, path: str) -> dict:
    from expanderlab import graphs, hamilton
    from expanderlab.rng import derive_seed

    g = None if step in ("gen_paley", "read_graph") else graphs.gen_paley(q)
    before, start = _peak_mb(), time.perf_counter()
    if step == "gen_paley":
        g = graphs.gen_paley(q)
    elif step == "write_graph":
        graphs.write_graph(g, path)
    elif step == "read_graph":
        g = graphs.read_graph(path)
    elif step == "certify_expander":
        graphs.certify_expander(g, seed=derive_seed(0, "certify") % 2 ** 31)
    elif step == "hamilton_pipeline":
        hamilton.hamilton_pipeline(g, hamilton.PipelineConfig(seed=0))
    seconds = time.perf_counter() - start
    kept = g.indptr.nbytes + g.indices.nbytes + len(g.indices)   # int8 data
    return {"q": q, "step": step, "seconds": round(seconds, 4),
            "peak_rss_mb_before": round(before, 1), "peak_rss_mb": round(_peak_mb(), 1),
            "graph_mb": round(kept / 2 ** 20, 1)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, required=True, help="Paley prime, 1 mod 4")
    parser.add_argument("--dir", help="directory for the graph file")
    parser.add_argument("--step", choices=STEPS, help=argparse.SUPPRESS)   # one child's step
    parser.add_argument("--path", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.step:
        print(json.dumps(_run_step(args.step, args.q, args.path)), flush=True)
        return
    env = {**os.environ, **{var: "1" for var in BLAS_VARIABLES}}
    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        path = os.path.join(tmp, f"paley{args.q}.txt")
        for step in STEPS:
            subprocess.run([sys.executable, __file__, "--q", str(args.q), "--step", step,
                            "--path", path], env=env, check=True)


if __name__ == "__main__":
    main()
