"""Alternating base/change pairs of the benchmark, summarised for a speed claim.

    python tools/ab_bench.py --base <rev> --label <label> --work <dir> \\
        --run basin_sweep:0:10 --run basin_sweep:1:3

``--base`` is resolved to its commit's full hash, which the record keeps, and
unpacked from ``git archive`` under ``--work``. The change is this
checkout's working tree. Each ``--run WORKLOAD:SEED:PAIRS`` runs
``perfbench/run.py --seconds 20 --trace 0`` once on each side per pair, one
after the other, and swaps which side goes first from one pair to the next,
so that a drift in the host's speed falls on both sides alike. Then this
checkout's ``tools/run_digests.py`` runs on both trees' packages, and the
two sets of digests are compared.

Both sides import samlab from source: every run has
``PYTHONDONTWRITEBYTECODE=1``, and a tree whose ``src/samlab`` holds a
``__pycache__`` is refused (remove it first), because a compiled cache on
one side only lowers that side's ``setup_s``, which includes the import.

``BENCH_<label>.json``, written at the root of the checkout, holds, per run
and per end-to-end metric of ``BENCHMARK.json``:
both sides' medians and quartiles, the pairs in which the change was better,
the gap between the medians against the base's interquartile range, and the
relative change against the metric's bound. It also holds each side's
platform key, the load average before and after, every run's correctness,
and the digest comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
SECONDS = 20  # each benchmark run's --seconds
NO_BYTECODE = {"PYTHONDONTWRITEBYTECODE": "1"}


def quartiles(values):
    """(first quartile, median, third quartile), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base, change, better, bound):
    """Statistics of one metric over paired runs: ``base[i]`` and ``change[i]`` are pair i's.

    ``better`` is "lower" or "higher". ``gap`` is how much better the change's
    median is than the base's (negative when it is worse); the claim needs
    the change better in at least nine of ten pairs and ``gap`` above the
    base's interquartile range. ``worse_by`` is the change's median relative
    to the base's, counted in the direction that is worse, for the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0.0)
    gap, iqr = sign * (bm - cm), b3 - b1
    worse_by = -gap / abs(bm) if bm else 0.0
    return {
        "pairs": len(base), "better": better,
        "base_median": bm, "base_quartiles": [b1, b3],
        "change_median": cm, "change_quartiles": [c1, c3],
        "change_rel": (cm - bm) / bm if bm else None,
        "wins": wins, "gap": gap, "base_iqr": iqr,
        "gap_over_base_iqr": gap / iqr if iqr > 0.0 else None,
        "claim_holds": wins >= 0.9 * len(base) and gap > iqr,
        "bound": bound, "worse_by": worse_by, "within_bound": worse_by <= bound,
    }


def pair_order(pair):
    """The sides of pair ``pair`` in the order they run: the first side alternates."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def parse_run(stdout):
    """(result, context) of one ``perfbench/run.py`` run from its standard output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = next((json.loads(line[len("# context "):]) for line in lines
                    if line.startswith("# context ")), {})
    return result, context


def resolve(rev) -> str:
    """The full hash of the commit that ``rev`` names in this checkout."""
    done = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"ab_bench: {rev!r} names no commit: {done.stderr.strip()}")
    return done.stdout.strip()


def unpack(rev, dest: Path) -> Path:
    """The files of ``rev`` at ``dest``, from ``git archive``."""
    if dest.exists():
        raise SystemExit(f"ab_bench: {dest} exists; pick another --work or remove it")
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def check_tree(tree: Path) -> Path:
    """``tree``, once its ``src/samlab`` is seen to hold no compiled ``__pycache__``."""
    cache = tree / "src" / "samlab" / "__pycache__"
    if cache.exists():
        raise SystemExit(f"ab_bench: {cache} exists; remove it, so that both sides "
                         f"import samlab from source")
    return tree


def bench_once(tree: Path, workload, seed):
    """(metric values, correct, failed, platform key, error) of one benchmark run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=SECONDS * 20 + 300,
        env={**os.environ, **NO_BYTECODE})
    try:
        result, context = parse_run(done.stdout)
    except (ValueError, IndexError):
        return {}, False, None, None, (done.stderr or done.stdout)[-2000:]
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    return values, result["correct"], result["failed"], context.get("platform"), None


def run_pairs(trees, workload, seed, pairs, spec):
    """Every metric's statistics over ``pairs`` alternating pairs of one workload and seed."""
    runs = {side: [] for side in SIDES}
    for pair in range(pairs):
        for side in pair_order(pair):
            values, correct, failed, platform, error = bench_once(trees[side], workload, seed)
            runs[side].append({"values": values, "correct": correct, "failed": failed,
                               "platform": platform, "error": error})
            wall = values.get("wall_s")
            print(f"# {workload} seed {seed} pair {pair + 1}/{pairs} {side:6s} "
                  f"wall_s {wall} correct {correct} failed {failed}", flush=True)
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        both = [(b["values"].get(name), c["values"].get(name))
                for b, c in zip(runs["base"], runs["change"])]
        both = [(b, c) for b, c in both if b is not None and c is not None]
        if both:
            metrics[name] = compare([b for b, _ in both], [c for _, c in both],
                                    metric["better"], metric["bound"])
    return {
        "workload": workload, "seed": seed, "pairs": pairs, "seconds": SECONDS,
        "metrics": metrics,
        "all_correct": all(r["correct"] and r["failed"] == 0
                           for side in SIDES for r in runs[side]),
        "platforms": {side: sorted({json.dumps(r["platform"], sort_keys=True)
                                    for r in runs[side]}) for side in SIDES},
        "runs": runs,
    }


def digests(trees, work: Path):
    """This checkout's run_digests.py on both trees' packages, compared."""
    out = {}
    for side in SIDES:
        path = work / f"digests-{side}.json"
        subprocess.run([sys.executable, str(ROOT / "tools" / "run_digests.py"),
                        "--src", str(trees[side] / "src"), "--out", str(path)],
                       cwd=work, check=True, capture_output=True, timeout=1800,
                       env={**os.environ, **NO_BYTECODE})
        out[side] = json.loads(path.read_text(encoding="utf-8"))
    differing = sorted(name for name in set(out["base"]) | set(out["change"])
                       if out["base"].get(name) != out["change"].get(name))
    return {"cases": len(out["change"]), "identical": not differing, "differing": differing}


def parse_run_spec(text):
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--work", type=Path, required=True,
                        help="new directory for the unpacked trees and the digests")
    parser.add_argument("--run", type=parse_run_spec, action="append", required=True,
                        metavar="WORKLOAD:SEED:PAIRS", help="one workload and seed (repeatable)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = args.work.resolve()
    base = resolve(args.base)  # a name such as HEAD would later name another commit
    change = check_tree(ROOT)
    trees = {"base": check_tree(unpack(base, work / "base")), "change": change}
    load_before = os.getloadavg()
    runs = [run_pairs(trees, workload, seed, pairs, spec)
            for workload, seed, pairs in args.run]
    load_after = os.getloadavg()
    record = {
        "label": args.label, "base": base, "change": "working tree",
        "load_avg": {"before": load_before, "after": load_after},
        "nproc": os.cpu_count(),
        "runs": runs,
        "digests": digests(trees, work),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for run in runs:
        for name, row in run["metrics"].items():
            print(f"{run['workload']} seed {run['seed']} {name}: {row['base_median']:.6g} -> "
                  f"{row['change_median']:.6g} ({row['change_rel']:+.2%}), "
                  f"better in {row['wins']}/{row['pairs']}, gap {row['gap']:.4g} "
                  f"vs base IQR {row['base_iqr']:.4g}")
    print(f"digests: {record['digests']['cases']} cases, "
          f"identical: {record['digests']['identical']}; written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
