"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --workload basin_sweep --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per (workload, seed), one after another, and
prints, per end-to-end metric, the median of the per-run values and the
distance between their first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound. A
spread below a third of the bound is marked steady. ``raw_wall_s``, the
pass time before scaling to the reference speed, is summarised beside them
from each run's results file. With ``--out`` the per-run results and the
summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace == 0:
        record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
        raw = json.loads(record.read_text(encoding="utf-8"))["extra"]["raw_wall_s"]
        result["metrics"]["raw_wall_s"] = {"value": raw, "unit": "s"}
    return result, time.perf_counter() - t0


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in workloads:
        results, elapsed = zip(*[run_once(workload, seed, args.seconds, args.trace)
                                 for seed in args.seeds])
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} failed operations, "
              f"all correct: {all(r['correct'] for r in results)}, "
              f"{max(elapsed):.1f} s for the longest run")
        summary[workload] = {"elapsed_s": list(elapsed), "correct": [r["correct"] for r in results],
                             "failed": [r["failed"] for r in results], "metrics": {}}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            bound = bounds.get(name)
            steady = "" if bound is None else ("steady" if rel < bound / 3 else "NOT STEADY")
            summary[workload]["metrics"][name] = {"median": med, "spread": rel,
                                                  "bound": bound, "values": values}
            print(f"  {name:40s} median {med:14.6g}  spread {rel:7.4f}  "
                  f"bound {bound}  {steady}")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "trace": args.trace, "summary": summary},
                                       indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
