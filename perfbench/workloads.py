"""The three benchmark workloads.

Each workload is a closed loop with one client: one pass calls into samlab,
waits for the result, and only then makes the next call. Every input (dataset
seed, run seeds, basin start points) is drawn from the workload seed; samlab
receives only those inputs.

A workload has three parts. ``setup`` builds the inputs (and, for
``run_audit``, the run tree it reads); it times each of its calls into samlab
like a pass does, and the benchmark runs it ``setup_reps`` times and reports
the median. ``run_pass`` is the timed work: it times each call into samlab
and returns the raw outputs. ``check`` runs after the pass,
outside the timed and traced region, and turns the outputs into one SHA-256
digest per operation over everything but wall-clock fields.

Calls go through the module attribute (``harness.run_experiment``, not a
name bound at import) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from samlab import data, harness, metrics, objectives, optim, params, sampler
from speed import SpeedScale

METHODS = ("sgd", "sam", "sam_k", "vsam")
# sam right before vsam, so that the two runs of the headline ratio see the same host
PASS_ORDER = ("sgd", "sam_k", "sam", "vsam")
SAM_K = 2

# criterion-10 task: MLP [2,16,2] on moons, 50 epochs of 25 batches
MOONS_OBJECTIVE = {"kind": "mlp_classifier", "layer_sizes": [2, 16, 2],
                   "activation": "tanh", "weight_decay": 1e-4}
MOONS_OPT = {"eta0": 0.5, "rho": 0.05, "gamma": 0.9, "lr_schedule": "cosine"}
MOONS_SAMPLER = {"n_window": 50, "m_slices": 5, "alpha": 0.13, "s1": 15, "i_start": 100}
MOONS_DATA = {"kind": "moons", "n": 2000, "noise": 0.15}
MOONS_EPOCHS = 50
MOONS_BATCH = 64

BASIN_TRAJECTORIES = 8
BASIN_SAMPLER = dict(n_window=50, m_slices=5, alpha=0.13, s1=25, i_start=250)

AUDIT_SEEDS = 2  # seed directories per method in the audited run tree

# wall-clock-class fields, outside the bit-identity contract
WALL_FIELDS = {"wall_clock_seconds", "ais", "ais_mean", "ais_std"}
# every other column of a metrics record, as written to metrics.csv
RECORD_FIELDS = attrgetter(*[f for f in metrics.FIELD_ORDER if f not in WALL_FIELDS])

clock = time.perf_counter


@dataclass
class PassResult:
    """Timings and raw outputs of one pass.

    Timings are scaled to the probe's reference speed (see speed.py);
    ``raw_wall_s`` keeps the unscaled sum.
    """

    speed: SpeedScale = field(default_factory=SpeedScale)
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    opt_wall: dict = field(default_factory=dict)     # method -> seconds
    opt_evals: dict = field(default_factory=dict)    # method -> gradient evaluations
    verify_ms: list = field(default_factory=list)
    report_ms: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)      # operation -> raw output
    failures: dict = field(default_factory=dict)     # operation -> error text
    expected_evals: int = 0      # iterations + sampling number, over all runs
    expected_second: int = 0     # sampling number, over all runs

    def timed(self, op, fn, *args, method=None, **kwargs):
        """Call fn, add its time to the pass (and to `method`); record a raise."""
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failures[op] = f"{type(err).__name__}: {err}"
            self.speed.scale()
            return None, 0.0
        raw = clock() - t0
        dt = raw * self.speed.scale()
        self.raw_wall_s += raw
        self.wall_s += dt
        if method is not None:
            self.opt_wall[method] = self.opt_wall.get(method, 0.0) + dt
        return result, dt


def derive_seeds(seed: int, tag: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _strip(payload):
    """Drop wall-clock-class keys (and the machine-specific output path)."""
    if isinstance(payload, dict):
        return {k: _strip(v) for k, v in payload.items()
                if k not in WALL_FIELDS and k != "output_dir"}
    if isinstance(payload, list):
        return [_strip(v) for v in payload]
    return payload


def _json_digest(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        return sha(json.dumps(_strip(json.load(fh)), sort_keys=True))


def _csv_digest(path: Path) -> str:
    """Digest of a CSV file with its wall-clock columns removed."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if name not in WALL_FIELDS]
    return sha("\n".join(",".join(row[j] for j in keep) for row in rows))


def run_dir_digest(run_dir: Path) -> str:
    """Every non-wall-clock byte of a run directory, seed by seed."""
    parts = [_json_digest(run_dir / "config.json"), _json_digest(run_dir / "aggregate.json")]
    for seed_dir in sorted(run_dir.glob("seed_*")):
        parts += [seed_dir.name, _csv_digest(seed_dir / "metrics.csv"),
                  _csv_digest(seed_dir / "norm_trace.csv"),
                  _json_digest(seed_dir / "summary.json")]
    return sha(*parts)


def read_summaries(run_dir: Path) -> list[dict]:
    return [json.loads((d / "summary.json").read_text(encoding="utf-8"))
            for d in sorted(run_dir.glob("seed_*"))]


def verify_digest(result) -> str:
    ok, lines = result
    return sha(ok, *lines)


def report_digest(result) -> str:
    _text, rows = result
    return sha(json.dumps(_strip(rows), sort_keys=True))


def moons_payloads(dataset_seed: int, run_seeds: list[int], out: Path) -> dict:
    """Config payloads of the moons task, one per optimizer, as `samlab run` reads them."""
    payloads = {}
    for method in METHODS:
        payload = {
            "objective": dict(MOONS_OBJECTIVE),
            "dataset": dict(MOONS_DATA, seed=dataset_seed),
            "optimizer": method,
            "optimizer_config": dict(MOONS_OPT),
            "epochs": MOONS_EPOCHS,
            "batch_size": MOONS_BATCH,
            "seeds": list(run_seeds),
            "output_dir": str(out / method),
        }
        if method == "sam_k":
            payload["k"] = SAM_K
        if method == "vsam":
            payload["sampler_config"] = dict(MOONS_SAMPLER)
        payloads[method] = payload
    return payloads


def verify_and_report(res: PassResult, run_dirs: dict, per_method: bool) -> None:
    """`verify_run` on every seed directory, then `compare_report` across the runs.

    With ``per_method`` each verification also counts toward its optimizer's time.
    """
    for method, run_dir in run_dirs.items():
        for j, seed_dir in enumerate(sorted(run_dir.glob("seed_*"))):
            op = f"verify_run/{method}/{j}"
            out, dt = res.timed(op, harness.verify_run, seed_dir,
                                method=method if per_method else None)
            if out is not None:
                res.outputs[op] = out
                res.verify_ms.append(dt * 1e3)
    out, dt = res.timed("compare_report", harness.compare_report,
                        [run_dirs[m] for m in METHODS if m in run_dirs])
    if out is not None:
        res.outputs["compare_report"] = out
        res.report_ms.append(dt * 1e3)


def read_side_digest(res: PassResult, op: str, out) -> str:
    """Digest of a `verify_run` or `compare_report` result; a failed check is a failure."""
    if op == "compare_report":
        return report_digest(out)
    if not out[0]:
        res.failures[op] = "verify_run reported a failed check"
    return verify_digest(out)


# ---------------------------------------------------------------------------

class MoonsExperiment:
    """`samlab run` then `samlab verify` for each optimizer on the moons MLP."""

    name = "moons_experiment"
    setup_reps = 5

    def __init__(self, seed: int, work: Path):
        self.work = work / self.name
        dataset_seed, run_seed = derive_seeds(seed, 0x30, 2)
        self.payloads = moons_payloads(dataset_seed, [run_seed], self.work)
        self.inputs_digest = None

    def setup(self, res: PassResult) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        ds_cfg = self.payloads["sgd"]["dataset"]

        def dataset():
            ds = data.generate_dataset(ds_cfg["kind"], ds_cfg["n"], ds_cfg["noise"],
                                       ds_cfg["seed"])
            return ds, data.dataset_checksum(ds)

        out, _ = res.timed("setup/dataset", dataset)
        if out is None:
            return {}
        ds, self.inputs_digest = out
        # short in-memory runs so that lazy set-up inside numpy ends before timing
        spec = harness.config_from_dict(self.payloads["sgd"]).objective
        opt = optim.OptimizerConfig(**MOONS_OPT)
        scfg = sampler.SamplerConfig(**dict(MOONS_SAMPLER, i_start=5))
        res.timed("setup/sgd", optim.run_sgd, spec, ds, opt, 10, 0, batch_size=MOONS_BATCH)
        res.timed("setup/sam", optim.run_sam, spec, ds, opt, 10, 0, batch_size=MOONS_BATCH)
        res.timed("setup/sam_k", optim.run_sam_k, spec, ds, opt, SAM_K, 10, 0,
                  batch_size=MOONS_BATCH)
        res.timed("setup/vsam", optim.run_vsam, spec, ds, opt, scfg, 10, 0,
                  batch_size=MOONS_BATCH)
        return {}

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.work, ignore_errors=True)
        res = PassResult()
        run_dirs = {}
        for method in PASS_ORDER:
            op = f"run_experiment/{method}"

            def run(payload=self.payloads[method]):
                return harness.run_experiment(harness.config_from_dict(payload))

            run_dir, _ = res.timed(op, run, method=method)
            if run_dir is not None:
                run_dirs[method] = res.outputs[op] = Path(run_dir)
        verify_and_report(res, run_dirs, per_method=False)
        return res

    def check(self, res: PassResult) -> dict:
        digests = {}
        for op, out in res.outputs.items():
            if not op.startswith("run_experiment/"):
                digests[op] = read_side_digest(res, op, out)
                continue
            method = op.split("/")[1]
            digests[op] = sha(self.inputs_digest, run_dir_digest(out))
            summaries = read_summaries(out)
            res.opt_evals[method] = sum(s["grad_evals"] for s in summaries)
            res.expected_evals += sum(s["iterations"] + s["sampling_number"] for s in summaries)
            res.expected_second += sum(s["sampling_number"] for s in summaries)
        return digests


class BasinSweep:
    """Criterion-9 calibration: trajectories from inside the sharp well, in memory."""

    name = "basin_sweep"
    setup_reps = 5

    def __init__(self, seed: int, work: Path):
        cal = objectives.SHARP_FLAT_CALIBRATION
        self.cal = cal
        rng = np.random.default_rng([seed, 0xB5])
        half = cal["init_halfwidth"]
        x_sharp = -cal["separation"] / 2.0
        self.starts = [np.array([x_sharp + rng.uniform(-half, half), rng.uniform(-half, half)])
                       for _ in range(BASIN_TRAJECTORIES)]
        self.run_seeds = derive_seeds(seed, 0xB6, BASIN_TRAJECTORIES)
        self.opt = optim.OptimizerConfig(eta0=cal["eta0"], rho=cal["rho"], gamma=0.9,
                                         lr_schedule=cal["lr_schedule"])
        self.scfg = sampler.SamplerConfig(**BASIN_SAMPLER)
        self.spec = None

    def setup(self, res: PassResult) -> dict:
        cal = self.cal

        def landscape():
            # the ridge is cached per landscape; clear it so that every set-up pays for the grid
            objectives._RIDGE_CACHE.clear()
            spec = objectives.make_sharp_flat(cal["width_sharp"], cal["width_flat"],
                                              cal["depth_gap"], cal["separation"])
            objectives.sharp_flat_ridge(spec)
            return spec

        self.spec, _ = res.timed("setup/landscape", landscape)
        if self.spec is None:
            return {}
        for method in METHODS:
            res.timed(f"setup/{method}", self._run, method,
                      params.ParamVector(self.starts[0].copy()), 0, 50)
        return {}

    def _run(self, method, w0, seed, iterations):
        spec, opt = self.spec, self.opt
        if method == "sgd":
            return optim.run_sgd(spec, None, opt, iterations, seed, w0=w0)
        if method == "sam":
            return optim.run_sam(spec, None, opt, iterations, seed, w0=w0)
        if method == "sam_k":
            return optim.run_sam_k(spec, None, opt, SAM_K, iterations, seed, w0=w0)
        return optim.run_vsam(spec, None, opt, self.scfg, iterations, seed, w0=w0)

    def run_pass(self) -> PassResult:
        res = PassResult()
        iterations = self.cal["iterations"]
        for k, (start, seed) in enumerate(zip(self.starts, self.run_seeds)):
            for method in METHODS:
                op = f"trajectory/{k}/{method}"

                def run(method=method, start=start, seed=seed):
                    result = self._run(method, params.ParamVector(start.copy()), seed, iterations)
                    return result, objectives.classify_basin(self.spec, result.w_final)

                out, _ = res.timed(op, run, method=method)
                if out is not None:
                    res.outputs[op] = out
        return res

    def check(self, res: PassResult) -> dict:
        digests = {}
        for op, (result, label) in res.outputs.items():
            method = op.split("/")[2]
            records = result.records
            sampled = sum(1 for r in records if r.sampled)
            evals = records[-1].cumulative_grad_evals
            if evals != len(records) + sampled:
                res.failures[op] = f"{evals} evaluations != {len(records)} + {sampled}"
            res.opt_evals[method] = res.opt_evals.get(method, 0) + evals
            res.expected_evals += len(records) + sampled
            res.expected_second += sampled
            digests[op] = sha(label, *[repr(float(v)) for v in result.w_final.values],
                              repr([RECORD_FIELDS(r) for r in records]))
        return digests


class RunAudit:
    """The read side: `samlab verify` on every seed directory, then `samlab report`."""

    name = "run_audit"
    setup_reps = 10  # each writes the whole run tree; with 5, setup_s scattered by 9% over seeds

    def __init__(self, seed: int, work: Path):
        self.work = work / self.name
        dataset_seed, *run_seeds = derive_seeds(seed, 0xA0, 1 + AUDIT_SEEDS)
        self.payloads = moons_payloads(dataset_seed, run_seeds, self.work)
        self.run_dirs = {}
        self.evals = {}

    def setup(self, res: PassResult) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        digests = {}
        for method in METHODS:
            op = f"setup/{method}"

            def run(payload=self.payloads[method]):
                return harness.run_experiment(harness.config_from_dict(payload))

            run_dir, _ = res.timed(op, run)
            if run_dir is None:
                continue
            run_dir = self.run_dirs[method] = Path(run_dir)
            self.evals[method] = sum(s["grad_evals"] for s in read_summaries(run_dir))
            digests[op] = run_dir_digest(run_dir)
        return digests

    def run_pass(self) -> PassResult:
        res = PassResult(opt_evals=dict(self.evals))
        verify_and_report(res, self.run_dirs, per_method=True)
        return res

    def check(self, res: PassResult) -> dict:
        return {op: read_side_digest(res, op, out) for op, out in res.outputs.items()}


WORKLOADS = {cls.name: cls for cls in (MoonsExperiment, BasinSweep, RunAudit)}
