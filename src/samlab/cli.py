"""Command-line interface.

Subcommands:
    run <config.json>       execute every seed of an experiment config
    report <dir> [dir...]   cross-method comparison table (text + CSV)
    verify <seed-dir>       recheck accounting and summary consistency
    gen-data <kind> ...     write a dataset file
    check-bounds ...        curvature-bound sweep over random PD matrices
    selfcheck               tiny real runs, each checked by verify

Numbers that must survive a round-trip are printed with 17 significant
digits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import selfcheck as selfcheck_mod
from .data import dataset_checksum, generate_dataset, save_dataset
from .diagnostics import bound_sweep
from .errors import SamlabError
from .harness import (compare_report, load_config, run_experiment, verify_run,
                      write_report_csv)


def _cmd_run(args):
    config = load_config(args.config)
    out = run_experiment(config)
    print(f"run complete: {out}")
    return 0


def _cmd_report(args):
    text, rows = compare_report(args.dirs)
    print(text)
    if args.csv:
        write_report_csv(args.csv, rows)
        print(f"csv written: {args.csv}")
    return 0


def _cmd_verify(args):
    target = Path(args.dir)
    seed_dirs = [target]
    if not (target / "metrics.csv").exists():
        seed_dirs = sorted(target.glob("seed_*")) or [target]
    all_ok = True
    for seed_dir in seed_dirs:
        if len(seed_dirs) > 1:
            print(f"== {seed_dir.name}")
        ok, lines = verify_run(seed_dir)
        all_ok = all_ok and ok
        for line in lines:
            print(line)
    return 0 if all_ok else 1


def _cmd_gen_data(args):
    ds = generate_dataset(args.kind, args.n, args.noise, args.seed)
    out = Path(args.out)
    save_dataset(ds, out)
    print(f"dataset written: {out} (sha256 {dataset_checksum(ds)})")
    return 0


def _cmd_check_bounds(args):
    results = bound_sweep(args.cases, (args.min_dim, args.max_dim), args.seed, args.rho)
    violations = [r for r in results if not r.satisfied]
    worst = min(r.slack for r in results)
    print(f"cases: {len(results)}  satisfied: {len(results) - len(violations)}")
    print(f"smallest slack (rhs - lhs): {worst:.17g}")
    if violations:
        for r in violations[:5]:
            print(f"VIOLATION lhs={r.lhs:.17g} rhs={r.rhs:.17g}")
        return 1
    print("bound holds on every case")
    return 0


def _cmd_selfcheck(_args):
    ok = selfcheck_mod.run_selfcheck()
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="samlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="compare completed runs")
    p_rep.add_argument("dirs", nargs="+")
    p_rep.add_argument("--csv", default=None, help="also write the table as CSV")
    p_rep.set_defaults(fn=_cmd_report)

    p_ver = sub.add_parser("verify", help="verify one seed directory")
    p_ver.add_argument("dir")
    p_ver.set_defaults(fn=_cmd_verify)

    p_gen = sub.add_parser("gen-data", help="generate a dataset file")
    p_gen.add_argument("kind", choices=("blobs", "moons", "xor"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--noise", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=_cmd_gen_data)

    p_bnd = sub.add_parser("check-bounds", help="curvature-bound sweep")
    p_bnd.add_argument("--cases", type=int, default=1000)
    p_bnd.add_argument("--min-dim", type=int, default=2)
    p_bnd.add_argument("--max-dim", type=int, default=8)
    p_bnd.add_argument("--rho", type=float, default=0.1)
    p_bnd.add_argument("--seed", type=int, default=0)
    p_bnd.set_defaults(fn=_cmd_check_bounds)

    p_self = sub.add_parser("selfcheck", help="run tiny configs and verify each one")
    p_self.set_defaults(fn=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SamlabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
