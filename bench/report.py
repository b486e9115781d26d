"""Run every workload untraced and traced, and print all its metrics.

    python3 bench/report.py                          # seed 0
    python3 bench/report.py --seeds 0 1 2 3 4 5 6 7 8 9

Each run is its own process (bench/run.py) with the run length of
BENCHMARK.json. Every metric is printed with its unit, next to the
operations attempted and failed. Over several seeds each end-to-end
metric gets its median and its spread: the distance between the first
and third quartiles as a share of the median, beside its bound. One
traced run per workload, on the first seed, gives the per-layer
metrics; the tracing overhead is its median operation time against
the untraced run's on the same seed. Everything is also saved to
bench/out/report.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 and not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def show(title: str, result: dict) -> None:
    print(f"{title}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        for seed, result in zip(args.seeds, runs):
            show(f"{workload} seed {seed}", result)
        summary = {}
        if len(runs) > 1:
            print(f"{workload} over seeds {args.seeds}:")
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in runs]
                s = summary[metric["name"]] = {
                    "median": statistics.median(values),
                    "spread": spread(values), "bound": metric["bound"]}
                print(f"  {metric['name']:12s} median {s['median']:.6g} "
                      f"{metric['unit']}, spread {s['spread']:.4f} "
                      f"(bound {metric['bound']})")
        traced = run(workload, args.seeds[0], seconds, 1)
        show(f"{workload} seed {args.seeds[0]} traced", traced)
        overhead = (traced["metrics"]["traced.op_s_p50"]["value"]
                    / runs[0]["metrics"]["op_s_p50"]["value"] - 1)
        noise = f", untraced runs spread {summary['op_s_p50']['spread']:.2%}" \
            if summary else ""
        print(f"  tracing overhead on op_s_p50: {overhead:+.2%} "
              f"(one pair of runs{noise})")
        report["workloads"][workload] = {
            "seeds": args.seeds, "runs": runs, "summary": summary,
            "traced": traced, "tracing_overhead": overhead}
    machine = json.loads((BENCH / "out" / f"{workload}-seed"
                          f"{args.seeds[0]}-trace0.json").read_text())["machine"]
    report["machine"] = machine
    print(f"machine: {json.dumps(machine)}")
    (BENCH / "out" / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    ok = all(r["correct"] and r["failed"] == 0
             for w in report["workloads"].values() for r in w["runs"] + [w["traced"]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
