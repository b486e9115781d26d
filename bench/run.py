"""Run one benchmark workload in this process and print its result.

    python3 bench/run.py --workload pipeline --seed 0 --seconds 25 --trace 0

Run from the root of a checkout: the library is imported from src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, from
a run in which bench/tracer.py wraps the library's public functions.
A record of the run, with the machine it ran on, is written to
bench/out/, and a traced run's spans next to it.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# One BLAS/OpenMP thread: the machine has 2 cores and is shared, and one
# thread keeps ARPACK and LAPACK timings free of thread contention.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("pipeline", "audit", "subsample"))
    ap.add_argument("--seed", type=nonnegative, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_revision():
    """HEAD's commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def end_to_end_metrics(m, import_s: float) -> dict:
    return {
        "setup_s": {"value": import_s + statistics.median(m.setup_s), "unit": "s"},
        "ops_per_s": {"value": m.ops / m.busy_s, "unit": "1/s"},
        "op_s_p50": {"value": statistics.median(m.op_s), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer_metrics(tracer, workload, m) -> dict:
    metrics = tracer.layer_metrics(len(m.setup_s), m.ops)
    for name in ("hamilton.partition.retries", "hamilton.repartition.retries"):
        metrics[name] = {"value": workload.counts[name] / m.ops,
                         "unit": "retries/op"}
    metrics["traced.op_s_p50"] = {"value": statistics.median(m.op_s), "unit": "s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    package = SRC / "expanderlab"
    if not (package / "__init__.py").is_file():
        print(f"no library at {package}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import expanderlab  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - START

    import tracer as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        m = workloads.measure(workload, args.seconds, OUT, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    metrics = end_to_end_metrics(m, import_s) if tracer is None \
        else per_layer_metrics(tracer, workload, m)
    result = {"correct": m.wrong == 0, "attempted": m.ops, "failed": m.failed,
              "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(), "import_s": import_s,
              "setup_reps_s": m.setup_s, "rounds": m.rounds,
              "timed_s": m.busy_s, "messages": m.messages, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"{stem}.spans.npz")
    for message in m.messages:
        print(f"{args.workload}: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
