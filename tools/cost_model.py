"""Fit the per-evaluation and per-iteration cost of a run, and print vSAM's excess.

A run of I iterations with G gradient evaluations is modelled as taking

    T = E*G + F*I

where E is the cost of one gradient evaluation and F the fixed cost of an
iteration that every optimizer pays. Timed SGD runs (G = I) and SAM runs
(G = 2I) of one task give E and F. What vSAM costs beyond that model is its
own bookkeeping (sampler, cached correction), per iteration:

    S = (T_vsam - E*G_vsam - F*I_vsam) / I_vsam

Every round times each optimizer once, in an order that rotates from round
to round. The model is fitted to each round's three runs, which saw the same
host conditions, and the tool prints the median of each quantity over the
rounds (with the quartiles of S), because single runs on a shared host vary
by about 15%. Two tasks:

- ``basin``: the sharp/flat landscape at its calibration, from a fixed set
  of starting points inside the sharp well, in memory;
- ``moons``: the MLP [2, 16, 2] on 2,000 moons points, 50 epochs of batches
  of 64, in memory.

Run it against any source tree, so that two trees compare on one host::

    python tools/cost_model.py --src src --repeats 9
    python tools/cost_model.py --src /tmp/base/src --repeats 9

The runs pin BLAS to one thread. Times are wall-clock microseconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from statistics import median, quantiles

METHODS = ("sgd", "sam", "vsam")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BASIN_SAMPLER = dict(n_window=50, m_slices=5, alpha=0.13, s1=25, i_start=250)
MOONS_SAMPLER = dict(n_window=50, m_slices=5, alpha=0.13, s1=15, i_start=100)
BASIN_STARTS = 8  # starting points per basin round


def basin_task():
    """(method -> callable running every start once) for the sharp/flat start set."""
    import numpy as np
    from samlab import objectives, optim, sampler
    from samlab.params import ParamVector

    cal = objectives.SHARP_FLAT_CALIBRATION
    spec = objectives.make_sharp_flat(cal["width_sharp"], cal["width_flat"],
                                      cal["depth_gap"], cal["separation"])
    opt = optim.OptimizerConfig(eta0=cal["eta0"], rho=cal["rho"], gamma=0.9,
                                lr_schedule=cal["lr_schedule"])
    scfg = sampler.SamplerConfig(**BASIN_SAMPLER)
    rng = np.random.default_rng(2024)
    half, x_sharp = cal["init_halfwidth"], -cal["separation"] / 2.0
    points = [np.array([x_sharp + rng.uniform(-half, half), rng.uniform(-half, half)])
              for _ in range(BASIN_STARTS)]
    iterations = cal["iterations"]
    runners = {
        "sgd": lambda w0, seed: optim.run_sgd(spec, None, opt, iterations, seed, w0=w0),
        "sam": lambda w0, seed: optim.run_sam(spec, None, opt, iterations, seed, w0=w0),
        "vsam": lambda w0, seed: optim.run_vsam(spec, None, opt, scfg, iterations, seed,
                                                w0=w0),
    }

    def runs(method):
        return [runners[method](ParamVector(p.copy()), seed) for seed, p in enumerate(points)]

    return {method: (lambda method=method: runs(method)) for method in METHODS}


def moons_task():
    """(method -> callable running the moons MLP once)."""
    from samlab import data, objectives, optim, sampler

    spec = objectives.make_mlp_classifier((2, 16, 2), activation="tanh", weight_decay=1e-4)
    dataset = data.generate_dataset("moons", 2000, 0.15, seed=3)
    opt = optim.OptimizerConfig(eta0=0.5, rho=0.05, gamma=0.9, lr_schedule="cosine")
    scfg = sampler.SamplerConfig(**MOONS_SAMPLER)
    iterations = 50 * data.batches_per_epoch(data.train_test_split(dataset)[0].n, 64)
    common = dict(batch_size=64)
    runners = {
        "sgd": lambda: optim.run_sgd(spec, dataset, opt, iterations, 0, **common),
        "sam": lambda: optim.run_sam(spec, dataset, opt, iterations, 0, **common),
        "vsam": lambda: optim.run_vsam(spec, dataset, opt, scfg, iterations, 0, **common),
    }
    return {method: (lambda method=method: [runners[method]()]) for method in METHODS}


def measure(task, repeats: int) -> list[dict]:
    """(seconds, iterations, evaluations) per method, one dict per round."""
    rounds = []
    for k in range(repeats):
        order = METHODS[k % len(METHODS):] + METHODS[:k % len(METHODS)]
        timings = {}
        for method in order:
            gc.collect()
            t0 = time.perf_counter()
            results = task[method]()
            timings[method] = (time.perf_counter() - t0,
                               sum(len(r.records) for r in results),
                               sum(r.records[-1].cumulative_grad_evals for r in results))
        rounds.append(timings)
    return rounds


def fit(timings: dict) -> dict:
    """E and F (us) from one round's SGD and SAM runs, and vSAM's excess S (us per iteration)."""
    (t1, i1, g1), (t2, i2, g2) = timings["sgd"], timings["sam"]
    det = g1 * i2 - g2 * i1
    if det == 0:
        raise ValueError("SGD and SAM runs must differ in evaluations per iteration")
    e = (t1 * i2 - t2 * i1) / det
    f = (g1 * t2 - g2 * t1) / det
    tv, iv, gv = timings["vsam"]
    return {
        "E_us": e * 1e6,
        "F_us": f * 1e6,
        "S_us": (tv - e * gv - f * iv) / iv * 1e6,
        "vsam_over_sam_wall": tv / t2,
        "vsam_over_sam_evals": gv / g2,
    }


def summarize(rounds: list[dict]) -> dict:
    """Each quantity's median over the rounds, and the quartiles of S."""
    fits = [fit(timings) for timings in rounds]
    row = {key: median(f[key] for f in fits) for key in fits[0]}
    s = sorted(f["S_us"] for f in fits)
    row["S_us_quartiles"] = quantiles(s, n=4) if len(s) > 1 else [s[0]] * 3
    row["rounds"] = len(fits)
    return row


def import_samlab(src: Path):
    sys.path.insert(0, str(src))
    import samlab

    if not Path(samlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"samlab was imported from {samlab.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the samlab package (default: src)")
    parser.add_argument("--repeats", type=int, default=9,
                        help="timed rounds per task; medians are taken over them (default: 9)")
    parser.add_argument("--out", type=Path, help="also write the fits to this JSON file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    import_samlab(args.src.resolve())
    fits = {}
    for name, build in (("basin", basin_task), ("moons", moons_task)):
        task = build()
        for method in METHODS:  # warm caches and lazy set-up before timing
            task[method]()
        fits[name] = row = summarize(measure(task, args.repeats))
        low, _, high = row["S_us_quartiles"]
        print(f"{name:6s} E {row['E_us']:8.2f} us/eval  F {row['F_us']:8.2f} us/iter  "
              f"S {row['S_us']:8.2f} us/iter [{low:.2f}-{high:.2f}]  "
              f"vsam/sam wall {row['vsam_over_sam_wall']:.3f}  "
              f"evals {row['vsam_over_sam_evals']:.4f}")
    if args.out is not None:
        args.out.write_text(json.dumps(fits, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
