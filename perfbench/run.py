"""samlab benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload moons_experiment --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones, plus ``trace.overhead_frac``. Either way the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it list every metric with its unit and direction, and the run
context. A fuller record, with that context, goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` in the checkout.

Workload and metric names, units and directions are read from
``BENCHMARK.json`` at the root of the checkout. Metric meanings are
documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

# one client, one thread: BLAS is pinned before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0


def load_spec() -> dict:
    """BENCHMARK.json: the one list of workloads and metrics, with units and directions."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        sys.exit(f"perfbench: cannot read BENCHMARK.json: {err}")


SPEC = load_spec()
# (name, unit, better)
END_TO_END = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]

# reported beside the end-to-end metrics where they apply; see README.md
EXTRA = [
    ("verify_ms", "ms", "lower"),
    ("verify_ms_tail", "ms", "lower"),
    ("report_ms", "ms", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("raw_wall_s", "s", "lower"),
    ("setup_import_s", "s", "lower"),
    ("setup_work_s", "s", "lower"),
    ("probe_ms", "ms", ""),
]

# fresh interpreters timed per run for the import part of setup_s
IMPORT_REPS = 15
# numpy is loaded first: samlab cannot change numpy's import, which scatters on a
# shared host by more than samlab's whole import takes
IMPORT_CODE = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); import speed; "
               "before = speed.probe(); t0 = time.perf_counter(); import samlab; "
               "t1 = time.perf_counter(); print(t1 - t0, before, speed.probe())")


def import_samlab():
    """Import samlab from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import samlab
    except ImportError as err:
        sys.exit(f"perfbench: cannot import samlab from {src}: {err}")
    if src.resolve() not in Path(samlab.__file__).resolve().parents:
        sys.exit(f"perfbench: samlab came from {samlab.__file__}, not from {src}")


def samlab_import_s() -> float:
    """Seconds a new interpreter takes to import samlab from src/, at reference speed."""
    from speed import scale

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(HERE)], cwd=ROOT, env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    seconds, before, after = map(float, out.stdout.split())
    return seconds * scale(before, after)


def platform_key() -> dict:
    """What the reference digests depend on: float results can differ across these."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": hashlib.sha256(
            ",".join(sorted(k for k, v in __cpu_features__.items() if v)).encode()
        ).hexdigest()[:16],
    }


def tail_percentile(samples):
    """Highest whole percentile (nearest rank) with at least ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, xs[rank - 1]
    return None, None


def median_or_none(values):
    return median(values) if values else None


def end_to_end_metrics(passes, setup_s, methods):
    """Medians over passes. A pass in which a method's run failed is left out of
    that method's metrics; a metric no pass measured is None."""
    def done(p, method):
        return method in p.opt_wall and p.opt_evals.get(method)

    m = {"setup_s": setup_s, "wall_s": median([p.wall_s for p in passes])}
    for method in methods:
        m[f"{method}_us_per_eval"] = median_or_none(
            [p.opt_wall[method] / p.opt_evals[method] * 1e6 for p in passes if done(p, method)])
    both = [p for p in passes if done(p, "vsam") and done(p, "sam")]
    m["vsam_over_sam_wall"] = median_or_none([p.opt_wall["vsam"] / p.opt_wall["sam"]
                                              for p in both])
    m["vsam_over_sam_evals"] = median_or_none([p.opt_evals["vsam"] / p.opt_evals["sam"]
                                               for p in both])
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def extra_metrics(passes, imports, setups, attempted, failed):
    verify = [x for p in passes for x in p.verify_ms]
    report = [x for p in passes for x in p.report_ms]
    q, tail = tail_percentile(verify)
    probes = [x for p in passes for x in p.speed.probes]
    m = {"failed_frac": failed / attempted,
         "raw_wall_s": median([p.raw_wall_s for p in passes]),
         "setup_import_s": median(imports),
         "setup_work_s": median(setups),
         "probe_ms": median(probes) * 1e3}
    if verify:
        m["verify_ms"] = median(verify)
        m["verify_ms_tail"] = tail
        m["verify_tail_percentile"] = q
        m["verify_samples"] = len(verify)
    if report:
        m["report_ms"] = median(report)
        m["report_samples"] = len(report)
    return m


def layer_metrics(totals, counters):
    """Per-layer metrics of one traced pass."""
    m = {}
    for name, (calls, self_s) in totals.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    eg_calls = m["objectives.eval_grad.calls"]
    m["objectives.eval_grad.us_per_call"] = (
        m["objectives.eval_grad.self_s"] / eg_calls * 1e6 if eg_calls else 0.0)
    for key in ("params.ParamVector.constructs", "metrics.MetricsRecord.constructs",
                "metrics.write_metrics_csv.bytes"):
        m[key] = counters.get(key, 0)
    decisions = m["sampler.should_sample.calls"]
    m["optim.reuse_share"] = m["optim.step_reuse.calls"] / decisions if decisions else 0.0
    post = counters.get("sampler.decisions", 0)
    m["sampler.fire_rate"] = counters.get("sampler.fires", 0) / post if post else 0.0
    return m


def context(args, load_avg, n_setup, n_untraced, n_traced, ref_status):
    """Run context: recorded beside the metrics, never a gate."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "load_avg_at_start": load_avg,
        "import_reps": IMPORT_REPS,
        "setup_reps": n_setup,
        "untraced_passes": n_untraced,
        "traced_passes": n_traced,
        "reference": ref_status,
        "platform": platform_key(),  # machine, Python, numpy, BLAS, CPU features
    }


def load_reference(workload, seed):
    """Reference digests for this workload, or None with the reason."""
    if seed != REFERENCE_SEED:
        return None, f"none for seed {seed} (recorded for seed {REFERENCE_SEED})"
    if not REFERENCE.exists():
        return None, "no reference file"
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if ref["platform"] != platform_key():
        return None, "recorded on another platform"
    if workload not in ref["workloads"]:
        return None, "no reference for this workload"
    return ref["workloads"][workload], "compared"


def save_reference(workload, digests):
    ref = {"platform": platform_key(), "seed": REFERENCE_SEED, "workloads": {}}
    if REFERENCE.exists():
        old = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if old["platform"] == ref["platform"]:
            ref["workloads"] = old["workloads"]
    ref["workloads"][workload] = dict(sorted(digests.items()))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store this run's digests as the seed-{REFERENCE_SEED} reference")
    args = ap.parse_args(argv)
    if args.record_reference and args.seed != REFERENCE_SEED:
        ap.error(f"the reference is recorded for seed {REFERENCE_SEED}")
    return args


class Checks:
    """Counts operations and failures.

    Each operation's digest is compared with its first digest in this run
    (same inputs, same bytes) and, where one applies, with the reference.
    """

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []   # (operation, reason)
        self.first = {}      # operation -> digest

    def fail(self, op, reason):
        self.failures.append((op, reason))

    def outputs(self, digests, failed, label):
        self.attempted += len(set(digests) | set(failed))
        for op, reason in failed.items():
            self.fail(op, reason)
        for op, digest in digests.items():
            if op in failed:
                continue
            if op not in self.first:
                self.first[op] = digest
                if self.reference is not None and self.reference.get(op) != digest:
                    self.fail(op, "digest differs from the reference")
            elif self.first[op] != digest:
                self.fail(op, f"{label} output differs from the first")

    def invariant(self, op, ok, detail):
        self.attempted += 1
        if not ok:
            self.fail(op, detail)

    def finish(self):
        if self.reference is not None:
            self.invariant("reference", set(self.reference) == set(self.first),
                           "operations differ from the reference's")


def measure_setup(workload, checks):
    """Import times of samlab in fresh interpreters, and the workload's set-up times.

    Each set-up times its calls into samlab one by one, as a pass does.
    setup_s is the median of the first plus the median of the second.
    """
    from workloads import PassResult

    imports = [samlab_import_s() for _ in range(IMPORT_REPS)]
    setups = []
    for rep in range(workload.setup_reps):
        gc.collect()
        res = PassResult()
        checks.outputs(workload.setup(res), res.failures, f"set-up {rep}")
        setups.append(res.wall_s)
    return imports, setups


def run_passes(workload, seconds, tracer, checks):
    """Passes until `seconds` have gone by; with a tracer, every other pass is traced.

    Returns the untraced passes and the traced ones as (run id, counters, pass).
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        is_traced = tracer is not None and index % 2 == 1
        gc.collect()
        if is_traced:
            tracer.install()
            tracer.begin_pass(index)
        try:
            res = workload.run_pass()
        finally:
            if is_traced:
                counters = tracer.end_pass()
                tracer.uninstall()
        try:
            digests = workload.check(res)
        except Exception as err:  # noqa: BLE001 - reported as a failed operation
            digests = {}
            res.failures[f"check/{index}"] = f"{type(err).__name__}: {err}"
        checks.outputs(digests, res.failures, f"pass {index}")
        res.outputs.clear()  # keep timings only, so memory does not grow with passes
        if is_traced:
            traced.append((index, counters, res))
        else:
            untraced.append(res)
        index += 1
        enough = len(untraced) >= 3 and (tracer is None or len(traced) >= 2)
        if time.perf_counter() >= deadline and enough:
            return untraced, traced


def per_layer_metrics(tracer, untraced, traced, checks):
    totals = tracer.layer_totals()
    per_pass = []
    for index, counters, res in traced:
        # one gradient per iteration plus one per sampled iteration, exactly
        evals = totals[index]["objectives.eval_grad"][0]
        second = totals[index]["optim.perturbation"][0]
        checks.invariant(f"invariants/{index}",
                         evals == res.expected_evals and second == res.expected_second,
                         f"eval_grad calls {evals} vs {res.expected_evals}, "
                         f"perturbation calls {second} vs {res.expected_second}")
        per_pass.append(layer_metrics(totals[index], counters))
    metrics = {name: median_low([p[name] for p in per_pass])
               for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (median([res.wall_s for _, _, res in traced])
                                      / median([res.wall_s for res in untraced]) - 1.0)
    return metrics


def print_result(checks, metrics, table):
    """The failures, then the result line, which is the last line of standard output."""
    for op, reason in checks.failures:
        print(f"# FAILED {op}: {reason}")
    print(json.dumps({"correct": not checks.failures, "attempted": max(checks.attempted, 1),
                      "failed": len(checks.failures),
                      "metrics": {name: {"value": metrics.get(name), "unit": unit}
                                  for name, unit, _ in table}}))


def main(argv=None):
    args = parse_args(argv)
    load_avg = os.getloadavg()
    os.environ.update(BLAS_ENV)
    import_samlab()
    from tracer import Tracer
    from workloads import METHODS, WORKLOADS

    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK)
    reference, ref_status = load_reference(args.workload, args.seed)
    if args.record_reference:
        reference, ref_status = None, "being recorded"
    checks = Checks(reference)
    table = END_TO_END if not args.trace else PER_LAYER
    imports, setups = measure_setup(workload, checks)
    if checks.failures:
        print(f"# {args.workload}: set-up failed, no pass was run")
        print_result(checks, {}, table)
        return 1
    tracer = Tracer() if args.trace else None
    untraced, traced = run_passes(workload, args.seconds, tracer, checks)
    if tracer is None:
        metrics = end_to_end_metrics(untraced, median(imports) + median(setups), METHODS)
    else:
        metrics = per_layer_metrics(tracer, untraced, traced, checks)
        tracer.write_spans(WORK / f"{args.workload}.spans.npz")
    checks.finish()
    for name, _, _ in table:
        if metrics.get(name) is None:
            checks.fail(name, "no pass measured this metric")

    all_passes = untraced + [res for _, _, res in traced]
    extras = extra_metrics(all_passes, imports, setups, checks.attempted, len(checks.failures))
    if args.record_reference:
        if checks.failures:
            sys.exit("perfbench: not recording a reference from a failing run: "
                     f"{checks.failures[:3]}")
        save_reference(args.workload, checks.first)

    ctx = context(args, load_avg, len(setups), len(untraced), len(traced), ref_status)
    units = {n: (u, b) for n, u, b in table + EXTRA}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced / {len(traced)} traced passes, "
          f"{len(imports)} imports, {len(setups)} set-ups, reference {ref_status}")
    for name, value in list(metrics.items()) + list(extras.items()):
        unit, better = units.get(name, ("", ""))
        direction = f"({better} is better)" if better else ""
        print(f"#   {name:40s} {value!r:>24} {unit:6s} {direction}")
    print("# context " + json.dumps(ctx, sort_keys=True))

    record = {"context": ctx, "metrics": metrics, "extra": extras,
              "import_times_s": imports, "setup_times_s": setups,
              "passes": [{"wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s,
                          "opt_wall_s": p.opt_wall, "opt_evals": p.opt_evals}
                         for p in all_passes],
              "failures": checks.failures}
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_result(checks, metrics, table)
    return 0 if all(metrics.get(name) is not None for name, _, _ in table) else 1


if __name__ == "__main__":
    sys.exit(main())
