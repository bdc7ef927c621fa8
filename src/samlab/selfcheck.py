"""The ``samlab selfcheck`` command: a few tiny real runs, each checked by ``verify_run``.

Each config goes through ``config_from_dict`` and ``run_experiment`` into one
temporary directory, by an absolute path, so ``SAMLAB_OUTPUT_ROOT`` cannot move
it. Every seed directory then gets one PASS/FAIL line from ``verify_run``, and
a FAIL line is followed by verify's own lines. The vSAM moons config runs a
second time, and every value outside ``WALL_CLOCK_FIELDS`` must repeat. A run
that raises counts as a FAIL, printed with its traceback. The checks behind
the package's numbers, at full budget and against independent oracles, are
the test suite's.
"""

from __future__ import annotations

import json
import tempfile
import traceback
from dataclasses import fields
from pathlib import Path

from .harness import config_from_dict, run_experiment, verify_run
from .metrics import WALL_CLOCK_FIELDS, read_metrics_csv

MOONS = {
    "objective": {"kind": "mlp_classifier", "layer_sizes": [2, 8, 2]},
    "dataset": {"kind": "moons", "n": 100, "noise": 0.15, "seed": 3},
    "optimizer_config": {"eta0": 0.5, "rho": 0.05},
    "epochs": 8,
    "batch_size": 16,
    "seeds": [0, 1],
}
SAMPLER = {"n_window": 10, "m_slices": 2, "s1": 5, "i_start": 10}
CONFIGS = {
    "sgd": dict(MOONS, optimizer="sgd"),
    "sam": dict(MOONS, optimizer="sam"),
    "sam_k": dict(MOONS, optimizer="sam_k", k=3),
    "vsam": dict(MOONS, optimizer="vsam", sampler_config=SAMPLER),
    # an analytic kernel: the sharp/flat landscape at its calibrated radius
    "sharp_flat_vsam": {
        "objective": {"kind": "sharp_flat", "width_sharp": 0.08, "width_flat": 0.5,
                      "depth_gap": 0.3, "separation": 2.0},
        "optimizer": "vsam",
        "optimizer_config": {"eta0": 0.004, "rho": 0.9, "lr_schedule": "constant"},
        "sampler_config": SAMPLER,
        "iterations": 100,
        "seeds": [0],
    },
}
RERUN = "vsam"


def _run(name, out):
    """(config, output directory) of ``CONFIGS[name]`` run into ``out``."""
    config = config_from_dict(dict(CONFIGS[name], output_dir=str(out)))
    return config, run_experiment(config)


def _values(config, out):
    """Every seed's metrics rows and summary, without ``WALL_CLOCK_FIELDS``, as text."""
    values = []
    for seed in config.seeds:
        seed_dir = out / f"seed_{seed}"
        rows = [{f.name: getattr(rec, f.name) for f in fields(rec)}
                for rec in read_metrics_csv(seed_dir / "metrics.csv")]
        rows.append(json.loads((seed_dir / "summary.json").read_text(encoding="utf-8")))
        values += [{k: v for k, v in row.items() if k not in WALL_CLOCK_FIELDS} for row in rows]
    return repr(values)


def run_selfcheck() -> bool:
    all_ok = True

    def report(name, ok, lines=()):
        nonlocal all_ok
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            for line in lines:
                print(f"    {line}")

    with tempfile.TemporaryDirectory(prefix="samlab-selfcheck-") as tmp:
        for name in CONFIGS:
            try:
                config, out = _run(name, Path(tmp) / name)
                for seed in config.seeds:
                    report(f"{name} seed_{seed} verifies", *verify_run(out / f"seed_{seed}"))
            except Exception as err:  # noqa: BLE001 - a crash is a failed check
                report(f"{name} ({err})", False, traceback.format_exc().splitlines())
        check = f"{RERUN} reruns identically outside the wall-clock fields"
        try:
            config, again = _run(RERUN, Path(tmp) / f"{RERUN}_again")
            report(check, _values(config, Path(tmp) / RERUN) == _values(config, again))
        except Exception as err:  # noqa: BLE001 - a crash is a failed check
            report(f"{check} ({err})", False, traceback.format_exc().splitlines())
    return all_ok
