"""Experiment harness: config files, seeded runs, metrics on disk, reports.

A run directory holds one subdirectory per seed, each with the metrics
stream (``metrics.csv``), the norm trace (``norm_trace.csv``), and a
``summary.json``; the parsed config snapshot and the cross-seed aggregate
live at the top. Everything except wall-clock columns is reproducible
bit-for-bit from the config. A run of several seeds runs them in parallel,
in up to one process per usable CPU (``run_experiment``), with the same bytes.

Report columns, in order: method, n_seeds, accuracy_mean, accuracy_std,
sampling_mean, sampling_std, grad_evals_mean, grad_evals_std, ais_mean,
ais_std, grad_evals_vs_ref. The "±" values are population standard
deviations over seeds.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from operator import ge, itemgetter
from pathlib import Path

from .data import batches_per_epoch, generate_dataset, train_test_split
# norm_trace, write_norm_trace and read_metrics_csv are imported for perfbench/tracer.py to wrap
from .diagnostics import NORM_TRACE_FIELDS, norm_trace, write_norm_trace
from .errors import ConfigurationError, NumericError, check_list, check_number
from .metrics import (FIELD_ORDER, MalformedRowError, _read_columns, _row_line,
                      read_metrics_csv, remove_regular_file, write_metrics_csv)
from .objectives import (ObjectiveSpec, make_mlp_classifier, make_quadratic,
                         make_rosenbrock, make_sharp_flat, param_segments)
from .optim import OptimizerConfig, run_sam, run_sam_k, run_sgd, run_vsam
from .params import ParamVector
from .sampler import SamplerConfig

OPTIMIZERS = ("sgd", "sam", "sam_k", "vsam")
OUTPUT_ROOT_ENV = "SAMLAB_OUTPUT_ROOT"
# what a run writes into each seed directory
SEED_FILES = ("metrics.csv", "norm_trace.csv", "summary.json", "error.json")
# the metrics columns that every row of a run fills (``optim._train``), in file order
FILLED_FIELDS = ["iteration", "epoch", "train_loss", "l2_sgd", "l2_sgd_subset", "sampled",
                 "cumulative_grad_evals", "wall_clock_seconds"]


def _write_json(path: Path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON to a new file at ``path``.

    A file already there is removed first, as ``SEED_FILES`` are, so a rerun
    writes a new file rather than truncating the old one in place: a hard link
    to the old file keeps the old bytes, and a symlink at ``path`` is replaced,
    not written through. It costs no more: on ext4 mounted with ``discard``,
    freeing the blocks of an old file that has reached the disk took 36-61 ms
    in the truncating ``open`` of a rewrite in place and about the same in the
    ``unlink``; while its bytes were only in the page cache, either took about
    0.2 ms.
    """
    path.unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


@dataclass
class ExperimentConfig:
    objective: ObjectiveSpec
    optimizer: str
    opt: OptimizerConfig
    seeds: list[int]
    output_dir: str
    dataset: dict | None = None          # {"kind", "n", "noise", "seed"}
    sampler: SamplerConfig | None = None  # vsam only
    iterations: int | None = None
    epochs: int | None = None
    batch_size: int | None = None
    k: int | None = None                 # sam_k only
    w0: list[float] | None = None        # analytic objectives only

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if not isinstance(self.seeds, list) or not self.seeds:
            raise ConfigurationError(f"seeds must be a non-empty list, not {self.seeds!r}")
        for seed in self.seeds:
            check_number("each seed", seed, int, 0)
        for name in ("iterations", "epochs", "batch_size", "k"):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name), int, 1)
        if (self.iterations is None) == (self.epochs is None):
            raise ConfigurationError("give exactly one of iterations or epochs")
        if self.epochs is not None and self.dataset is None:
            raise ConfigurationError("epochs require a dataset")
        if self.dataset is not None and self.batch_size is None:
            raise ConfigurationError("a dataset requires a batch_size")
        if self.optimizer == "vsam" and self.sampler is None:
            raise ConfigurationError("vsam requires a sampler config")
        if self.optimizer == "sam_k" and self.k is None:
            raise ConfigurationError("sam_k requires k >= 1")
        if self.w0 is not None and self.objective.kind == "mlp_classifier":
            raise ConfigurationError("w0 override applies to analytic objectives only")
        if self.sampler is not None and self.sampler.subset_segments is not None:
            known = [name for name, _, _ in param_segments(self.objective)]
            unknown = [n for n in self.sampler.subset_segments if n not in known]
            if unknown:
                raise ConfigurationError(
                    f"subset_segments {unknown} are not segments of the objective {known}")


# a finished run took at least one iteration, one gradient evaluation each, over a
# training split of at least one row; report divides by these counts
SUMMARY_MINIMUMS = {"iterations": 1, "sampling_number": 0, "grad_evals": 1, "d_per_epoch": 1}


@dataclass
class RunSummary:
    iterations: int
    sampling_number: int
    grad_evals: int
    final_train_loss: float
    ais: float
    wall_clock_seconds: float
    d_per_epoch: int
    epochs_completed: float
    final_eval_loss: float | None = None
    final_eval_accuracy: float | None = None
    speedup_vs_ref: float | None = None

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, payload):
        """The summary ``to_dict`` wrote; unknown or missing keys, non-numbers and counts
        below ``SUMMARY_MINIMUMS`` are errors."""
        if not isinstance(payload, dict):
            raise ConfigurationError("run summary must be a JSON object")
        names = [f.name for f in fields(cls)]
        _take(payload, names, names, "run summary")
        for f in fields(cls):
            value = payload[f.name]
            if value is None and f.default is None:
                continue
            integral = f.type == "int"
            if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
                raise ConfigurationError(f"run summary {f.name} must be "
                                         f"{'an integer' if integral else 'a number'}, "
                                         f"not {value!r}")
            if f.name in SUMMARY_MINIMUMS:
                check_number(f"run summary {f.name}", value, int, SUMMARY_MINIMUMS[f.name])
        return cls(**payload)


def compute_ais(d: float, e: float, t: float) -> float:
    """Average examples processed per second: d * e / t."""
    if d <= 0 or e <= 0 or t <= 0:
        raise ConfigurationError("AIS inputs must all be positive")
    return d * e / t


# ---------------------------------------------------------------------------
# config file parsing (strict: unknown keys are errors)

def _take(payload: dict, allowed, required, context: str) -> dict:
    unknown = set(payload) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown keys in {context}: {sorted(unknown)}")
    missing = set(required) - set(payload)
    if missing:
        raise ConfigurationError(f"missing keys in {context}: {sorted(missing)}")
    return payload


def _objective_from_dict(payload: dict) -> ObjectiveSpec:
    kind = payload.get("kind")
    wd = payload.get("weight_decay", 0.0)
    check_number("objective weight_decay", wd, float)
    if kind == "quadratic":
        _take(payload, {"kind", "a", "b", "weight_decay"}, {"kind", "a"}, "objective")
        check_list("objective a", payload["a"], list)
        for row in payload["a"]:
            check_list("objective a", row, float)
        if payload.get("b") is not None:
            check_list("objective b", payload["b"], float)
        return make_quadratic(payload["a"], payload.get("b"), wd)
    if kind == "rosenbrock":
        _take(payload, {"kind", "dim", "weight_decay"}, {"kind"}, "objective")
        check_number("objective dim", payload.get("dim", 2), int)
        return make_rosenbrock(payload.get("dim", 2), wd)
    if kind == "sharp_flat":
        names = ("width_sharp", "width_flat", "depth_gap", "separation")
        _take(payload, {"kind", *names}, {"kind", *names}, "objective")
        for name in names:
            check_number(f"objective {name}", payload[name], float)
        return make_sharp_flat(*(payload[name] for name in names))
    if kind == "mlp_classifier":
        _take(payload, {"kind", "layer_sizes", "activation", "weight_decay"},
              {"kind", "layer_sizes"}, "objective")
        check_list("objective layer_sizes", payload["layer_sizes"], int)
        return make_mlp_classifier(payload["layer_sizes"],
                                   payload.get("activation", "tanh"), wd)
    raise ConfigurationError(f"unknown objective kind {kind!r}")


def _objective_to_dict(spec: ObjectiveSpec) -> dict:
    if spec.kind == "quadratic":
        return {"kind": spec.kind, "a": spec.a.tolist(), "b": spec.b.tolist(),
                "weight_decay": spec.weight_decay}
    if spec.kind == "rosenbrock":
        return {"kind": spec.kind, "dim": spec.dim, "weight_decay": spec.weight_decay}
    if spec.kind == "sharp_flat":
        return {"kind": spec.kind, "width_sharp": spec.width_sharp,
                "width_flat": spec.width_flat, "depth_gap": spec.depth_gap,
                "separation": spec.separation}
    return {"kind": spec.kind, "layer_sizes": list(spec.layer_sizes),
            "activation": spec.activation, "weight_decay": spec.weight_decay}


_TOP_KEYS = {"objective", "dataset", "optimizer", "optimizer_config", "sampler_config",
             "iterations", "epochs", "batch_size", "seeds", "output_dir", "k", "w0"}
_DATASET_KEYS = {"kind", "n", "noise", "seed"}


def _settings(cls, payload, context):
    """``cls`` built from ``payload`` once its keys are checked; ``cls`` checks the values.

    An error names the section: "optimizer_config eta0 must be ...".
    """
    _take(payload, {f.name for f in fields(cls)}, set(), context)
    try:
        return cls(**payload)
    except ConfigurationError as err:
        raise ConfigurationError(f"{context} {err}") from None


def config_from_dict(payload: dict) -> ExperimentConfig:
    _take(payload, _TOP_KEYS, {"objective", "optimizer", "output_dir"}, "config")
    objective = _objective_from_dict(dict(payload["objective"]))
    opt = _settings(OptimizerConfig, dict(payload.get("optimizer_config", {})),
                    "optimizer_config")
    sampler = None
    if "sampler_config" in payload:
        sampler = _settings(SamplerConfig, dict(payload["sampler_config"]), "sampler_config")
    dataset = None
    if "dataset" in payload:
        dataset = dict(_take(dict(payload["dataset"]), _DATASET_KEYS,
                             {"kind", "n", "seed"}, "dataset"))
        dataset.setdefault("noise", 0.0)
        check_number("dataset n", dataset["n"], int)
        check_number("dataset noise", dataset["noise"], float)
        check_number("dataset seed", dataset["seed"], int, 0)
    return ExperimentConfig(
        objective=objective,
        optimizer=payload["optimizer"],
        opt=opt,
        sampler=sampler,
        dataset=dataset,
        iterations=payload.get("iterations"),
        epochs=payload.get("epochs"),
        batch_size=payload.get("batch_size"),
        seeds=payload.get("seeds", [0, 1, 2]),  # three-seed fan-out default
        output_dir=payload["output_dir"],
        k=payload.get("k"),
        w0=payload.get("w0"),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    payload = {
        "objective": _objective_to_dict(config.objective),
        "optimizer": config.optimizer,
        "optimizer_config": asdict(config.opt),
        "seeds": list(config.seeds),
        "output_dir": config.output_dir,
    }
    if config.sampler is not None:
        payload["sampler_config"] = asdict(config.sampler)
    if config.dataset is not None:
        payload["dataset"] = dict(config.dataset)
    extra = {key: getattr(config, key) for key in ("iterations", "epochs", "batch_size", "k", "w0")}
    payload.update({key: value for key, value in extra.items() if value is not None})
    return payload


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# running experiments

def resolve_output_dir(output_dir) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(output_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _plan_iterations(config, dataset):
    """Iterations per seed; rejects a config whose runs could not all run.

    That is a repeated seed, which would share a seed directory, a ``w0``
    that is not one finite number per parameter, vSAM with nothing to fill
    the correction cache before its first reuse step, and a batch size the
    training split cannot fill.
    """
    if len(set(config.seeds)) < len(config.seeds):
        raise ConfigurationError(f"seeds must not repeat, got {config.seeds}")
    if config.w0 is not None:
        check_list("w0", config.w0, float)
        if len(config.w0) != config.objective.param_count:
            raise ConfigurationError(f"w0 must hold {config.objective.param_count} values, "
                                     f"one per parameter, not {len(config.w0)}")
    if config.optimizer == "vsam" and config.sampler.i_start < 1 \
            and config.sampler.force != "always":
        raise ConfigurationError("vsam needs i_start >= 1 or force 'always' "
                                 "to fill the correction cache")
    if dataset is None:
        return config.iterations
    train, _ = train_test_split(dataset)
    if not 1 <= config.batch_size <= train.n:
        raise ConfigurationError(
            f"batch_size must be in [1, {train.n}] (the training split), got {config.batch_size}")
    if config.iterations is not None:
        return config.iterations
    return config.epochs * batches_per_epoch(train.n, config.batch_size)


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute every seed of the experiment; returns the output directory.

    The dataset is generated and the plan checked before anything is written.
    Each seed directory's ``SEED_FILES`` are removed before that seed runs,
    so a run into an existing output directory leaves no file of an earlier
    run beside its own, and ``config.json`` and ``aggregate.json`` are removed
    just before they are written (``_write_json``).

    The seeds run in parallel when they can (``_usable_cpus``): one share in
    this process and each other share in a forked process (``_run_shares``).
    Seeds are independent and deterministic, so every byte outside the
    wall-clock fields is the same as in a run of one seed after another. The
    forked processes' memory is not this process's: ``RUSAGE_CHILDREN`` holds
    it, not ``RUSAGE_SELF``. The aggregate is taken in ``config.seeds`` order,
    and an exception that a seed raises, other than a ``NumericError``, is the
    one that the serial loop would raise first: that of the earliest such
    seed in ``config.seeds``. Then ``aggregate.json`` is not written.
    """
    dataset = None
    if config.dataset is not None:
        ds = config.dataset
        dataset = generate_dataset(ds["kind"], ds["n"], ds["noise"], ds["seed"])
    iterations = _plan_iterations(config, dataset)

    out = resolve_output_dir(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", config_to_dict(config))

    outcomes = _run_shares(config, dataset, iterations, out, _shares(config.seeds))
    summaries = {}
    for seed in config.seeds:
        # a seed after an exception in its share has no outcome, but comes after that exception
        outcome = outcomes.get(seed)
        if isinstance(outcome, Exception):
            raise outcome
        if outcome is not None:
            summaries[seed] = outcome
    _write_aggregate(out, summaries)
    return out


def _run_seed(config, dataset, iterations, out, seed):
    """Run one seed into ``out/seed_<seed>``: its summary, or None after a ``NumericError``,
    which leaves the partial metrics and ``error.json``."""
    seed_dir = out / f"seed_{seed}"
    seed_dir.mkdir(exist_ok=True)
    for name in SEED_FILES:
        (seed_dir / name).unlink(missing_ok=True)
    try:
        result = _dispatch(config, dataset, iterations, seed)
    except NumericError as err:
        partial = getattr(err, "partial_records", [])
        write_metrics_csv(seed_dir / "metrics.csv", partial)
        _write_json(seed_dir / "error.json", {"error": str(err), "iteration": err.iteration})
        return None
    # the norm trace is a column projection of the metrics, written from the same cells
    write_metrics_csv(seed_dir / "metrics.csv", result.records,
                      [(seed_dir / "norm_trace.csv", NORM_TRACE_FIELDS)])
    summary = summarize(result.records, dataset, config.batch_size)
    _write_json(seed_dir / "summary.json", summary.to_dict())
    return summary


def _usable_cpus():
    """The CPUs that this process may run on when it may fork; 1 when it may not.

    It may fork when ``os.fork`` exists and the process runs one thread,
    counting threads that are not Python's, such as a BLAS pool's: a fork
    copies only the forking thread, so a lock that another thread holds would
    stay held in the child, and Python 3.12 warns of such a fork. So a
    process whose BLAS runs threads (``OPENBLAS_NUM_THREADS``, say, unset on a
    host of several CPUs) runs its seeds one after another.
    """
    try:
        if hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1:
            return len(os.sched_getaffinity(0))
    except OSError:  # no /proc: the threads cannot be counted
        pass
    return 1


def _shares(seeds):
    """``seeds`` dealt round-robin into min(seeds, ``_usable_cpus()``) shares."""
    workers = min(len(seeds), _usable_cpus())
    return [seeds[i::workers] for i in range(workers)]


def _run_share(config, dataset, iterations, out, seeds, forked=False):
    """Seed -> outcome of ``seeds`` run in order: a summary or None (``_run_seed``), or the
    exception that ended the share, which runs none of its seeds after that one."""
    outcomes = {}
    for seed in seeds:
        try:
            outcomes[seed] = _run_seed(config, dataset, iterations, out, seed)
        except Exception as err:  # noqa: BLE001 - run_experiment raises it in seed order
            if forked and hasattr(err, "add_note"):  # pickle drops the traceback; a note keeps it
                import traceback
                err.add_note("".join(traceback.format_exception(err)))
            outcomes[seed] = err
            break
    return outcomes


def _run_shares(config, dataset, iterations, out, shares):
    """Seed -> outcome over all ``shares``: the first runs here, each other in a forked process
    (``_child``).

    A process that ends without sending outcomes that unpickle raises a
    ``RuntimeError`` that names its seeds. Every process is reaped before this
    returns or raises; one still running when this raises is killed first.
    """
    children = []  # (pid, reader of its pipe, its seeds) not yet reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(write, config, dataset, iterations, out, share)
            os.close(write)
            children.append((pid, open(read, "rb"), share))
        outcomes = _run_share(config, dataset, iterations, out, shares[0])
        while children:
            pid, reader, share = children[0]
            with reader:
                payload = reader.read()
            os.waitpid(pid, 0)
            children.pop(0)
            try:
                outcomes.update(pickle.loads(payload))
            except Exception:  # noqa: BLE001 - no pickle, or one cut off
                raise RuntimeError(f"the process that ran seeds {share} ended without "
                                   f"sending their outcomes") from None
    finally:
        for pid, reader, _ in children:
            import signal
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return outcomes


def _child(write, config, dataset, iterations, out, seeds):
    """A forked process's whole life: run ``seeds``, send their outcomes down ``write`` as one
    pickle, and end with ``os._exit``, so that it flushes no stdio buffer and runs no exit
    handler of the caller's."""
    try:
        payload = pickle.dumps(_run_share(config, dataset, iterations, out, seeds, forked=True))
        with open(write, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def _dispatch(config, dataset, iterations, seed):
    w0 = None if config.w0 is None else ParamVector(config.w0)
    common = dict(batch_size=config.batch_size, w0=w0)
    if config.optimizer == "sgd":
        return run_sgd(config.objective, dataset, config.opt, iterations, seed, **common)
    if config.optimizer == "sam":
        return run_sam(config.objective, dataset, config.opt, iterations, seed, **common)
    if config.optimizer == "sam_k":
        return run_sam_k(config.objective, dataset, config.opt, config.k,
                         iterations, seed, **common)
    return run_vsam(config.objective, dataset, config.opt, config.sampler,
                    iterations, seed, **common)


def summarize(records, dataset, batch_size) -> RunSummary:
    """Fold a metrics stream into its run summary."""
    if not records:
        raise ConfigurationError("cannot summarize an empty run")
    last = records[-1]
    sampling_number = sum(1 for r in records if r.sampled)
    if dataset is not None:
        train, _ = train_test_split(dataset)
        d_per_epoch = train.n
        epochs_completed = len(records) / batches_per_epoch(train.n, batch_size)
    else:
        d_per_epoch = 1
        epochs_completed = float(len(records))
    final_eval_loss = final_eval_acc = None
    for rec in reversed(records):
        if rec.eval_loss is not None:
            final_eval_loss = rec.eval_loss
            final_eval_acc = rec.eval_accuracy
            break
    return RunSummary(
        iterations=len(records),
        sampling_number=sampling_number,
        grad_evals=last.cumulative_grad_evals,
        final_train_loss=last.train_loss,
        final_eval_loss=final_eval_loss,
        final_eval_accuracy=final_eval_acc,
        ais=compute_ais(d_per_epoch, epochs_completed, last.wall_clock_seconds),
        wall_clock_seconds=last.wall_clock_seconds,
        d_per_epoch=d_per_epoch,
        epochs_completed=epochs_completed,
    )


def _mean_std(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def _write_aggregate(out: Path, summaries: dict) -> None:
    payload = {"seeds": sorted(summaries), "mean": {}, "std": {},
               "per_seed": {str(seed): summary.to_dict() for seed, summary in summaries.items()}}
    if summaries:
        for field_name in ("sampling_number", "grad_evals", "ais", "final_train_loss"):
            mean, std = _mean_std([getattr(s, field_name) for s in summaries.values()])
            payload["mean"][field_name] = mean
            payload["std"][field_name] = std
        accs = [s.final_eval_accuracy for s in summaries.values()
                if s.final_eval_accuracy is not None]
        if accs:
            mean, std = _mean_std(accs)
            payload["mean"]["final_eval_accuracy"] = mean
            payload["std"]["final_eval_accuracy"] = std
    _write_json(out / "aggregate.json", payload)


# ---------------------------------------------------------------------------
# verification

def verify_run(run_dir) -> tuple[bool, list[str]]:
    """Recompute every summary quantity from the metrics stream and compare.

    Returns (all_passed, per-check report lines). Checks the schema header,
    that every row fills ``FILLED_FIELDS``, the gradient-evaluation accounting
    (increment 2 on sampled rows, 1 otherwise, total = iterations + sampling
    number), the stored summary and the norm trace. ``metrics.csv`` is read
    once, into columns and the text of its norm-trace projection; a trace with
    exactly that text and no cell that may be NaN matches. Any other trace is
    parsed, and matches when its columns equal the metrics file's (so ``0.5``
    matches ``0.50``); the files are parsed apart, so a NaN never does.
    """
    run_dir = Path(run_dir)
    lines = []
    ok = True

    def check(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))

    try:
        columns, projection = _read_columns(run_dir / "metrics.csv", FIELD_ORDER,
                                            projection=NORM_TRACE_FIELDS)
        check("metrics schema header", True)
    except MalformedRowError as err:
        check("metrics schema header", True)
        check("metrics rows", False, str(err))
        return ok, lines
    except Exception as err:  # noqa: BLE001 - report any read failure as a check
        check("metrics schema header", False, str(err))
        return ok, lines

    column = dict(zip(FIELD_ORDER, columns))
    sampled, evals = column["sampled"], column["cumulative_grad_evals"]
    if not evals:
        check("non-empty trace", False)
        return ok, lines

    gaps = [(column[name].index(None), name) for name in FILLED_FIELDS if None in column[name]]
    if gaps:  # printed only on failure: the first empty cell of the first row that has one
        row, name = min(gaps, key=itemgetter(0))
        line = _row_line(run_dir / "metrics.csv", row)
        check("every row fills its columns", False, f"line {line}: empty {name} cell")

    check("grad-eval increments (2 sampled / 1 reused)",
          list(accumulate(2 if s else 1 for s in sampled)) == evals)
    # an empty cell parses to None, which orders against no count
    check("cumulative grad evals non-decreasing",
          None not in evals and all(map(ge, evals[1:], evals)))

    sampling_number = sampled.count(True)
    total = evals[-1]
    check("total = iterations + sampling number",
          total == len(evals) + sampling_number,
          f"{total} vs {len(evals)} + {sampling_number}")

    try:
        with open(run_dir / "summary.json", "r", encoding="utf-8") as fh:
            stored = RunSummary.from_dict(json.load(fh))
    except FileNotFoundError:
        check("summary present", False)
    except (OSError, ValueError, ConfigurationError) as err:
        check("summary readable", False, str(err))
    else:
        check("summary iterations", stored.iterations == len(evals))
        check("summary sampling number", stored.sampling_number == sampling_number)
        check("summary grad evals", stored.grad_evals == total)
        check("summary final train loss", stored.final_train_loss == column["train_loss"][-1])
        try:
            recomputed_ais = compute_ais(stored.d_per_epoch, stored.epochs_completed,
                                         stored.wall_clock_seconds)
        except ConfigurationError as err:
            check("summary AIS consistent with D*E/T", False, str(err))
        else:
            check("summary AIS consistent with D*E/T",
                  math.isclose(stored.ais, recomputed_ais, rel_tol=1e-12))

    trace_path = run_dir / "norm_trace.csv"
    # text equal to the metrics' projection parses to their values, unless a cell is NaN: n is
    # in every spelling of nan (and of inf) and in no other cell, so such a trace is parsed
    body = projection.partition("\n")[2] if projection is not None else "n"
    if trace_path.exists():
        try:
            same = "n" not in body and "N" not in body \
                and trace_path.read_bytes() == projection.encode()
            trace = None if same else _read_columns(trace_path, NORM_TRACE_FIELDS)
        except Exception as err:  # noqa: BLE001 - report any read failure as a check
            check("norm trace readable", False, str(err))
        else:
            check("norm trace matches metrics",
                  same or trace == [column[name] for name in NORM_TRACE_FIELDS])
    else:
        check("norm trace present", False)
    return ok, lines


# ---------------------------------------------------------------------------
# comparison report

REPORT_FIELDS = [
    "method", "n_seeds", "accuracy_mean", "accuracy_std", "sampling_mean",
    "sampling_std", "grad_evals_mean", "grad_evals_std", "ais_mean", "ais_std",
    "grad_evals_vs_ref",
]


def _report_config(payload):
    """(method label, seeds) of a run's ``config.json``; a missing key is a ConfigurationError."""
    if not isinstance(payload, dict):
        raise ConfigurationError("run config must be a JSON object")
    required = ["optimizer", "seeds"] + (["k"] if payload.get("optimizer") == "sam_k" else [])
    missing = [key for key in required if key not in payload]
    if missing:
        raise ConfigurationError(f"missing keys in run config: {missing}")
    if not isinstance(payload["seeds"], list) or not payload["seeds"]:
        raise ConfigurationError("run config seeds must be a non-empty list")
    name = payload["optimizer"]
    return (f"sam_{payload['k']}" if name == "sam_k" else name), payload["seeds"]


def compare_report(run_dirs) -> tuple[str, list[dict]]:
    """Cross-method table over completed runs: mean ± population std per seed.

    Runs whose config lacks the optimizer or the seeds, or whose summaries
    are missing or unreadable, are excluded and reported as warning rows. The
    cost ratio column is each method's mean gradient evaluations over the
    'sam' run's mean (when a sam run is present).
    """
    if len(run_dirs) < 2:
        raise ConfigurationError("comparison needs at least two run directories")
    rows = []
    warnings = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        try:
            with open(run_dir / "config.json", "r", encoding="utf-8") as fh:
                method, seeds = _report_config(json.load(fh))
            summaries = []
            for seed in seeds:
                with open(run_dir / f"seed_{seed}" / "summary.json", encoding="utf-8") as fh:
                    summaries.append(RunSummary.from_dict(json.load(fh)))
        except (OSError, ValueError, ConfigurationError) as err:
            warnings.append(f"WARNING: excluded incomplete run {run_dir}: {err}")
            continue
        accs = [s.final_eval_accuracy for s in summaries if s.final_eval_accuracy is not None]
        acc_mean, acc_std = _mean_std(accs) if accs else (None, None)
        samp_mean, samp_std = _mean_std([s.sampling_number for s in summaries])
        evals_mean, evals_std = _mean_std([s.grad_evals for s in summaries])
        ais_mean, ais_std = _mean_std([s.ais for s in summaries])
        rows.append({
            "method": method,
            "n_seeds": len(summaries),
            "accuracy_mean": acc_mean, "accuracy_std": acc_std,
            "sampling_mean": samp_mean, "sampling_std": samp_std,
            "grad_evals_mean": evals_mean, "grad_evals_std": evals_std,
            "ais_mean": ais_mean, "ais_std": ais_std,
            "grad_evals_vs_ref": None,
        })
    ref = next((r for r in rows if r["method"] == "sam"), None)
    if ref is not None:
        for row in rows:
            row["grad_evals_vs_ref"] = row["grad_evals_mean"] / ref["grad_evals_mean"]
    text = _render_report(rows, warnings)
    return text, rows


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _render_report(rows, warnings):
    header = ["method", "seeds", "accuracy", "sampling", "grad_evals", "ais", "evals/sam"]
    best = {}
    if rows:
        with_acc = [r for r in rows if r["accuracy_mean"] is not None]
        if with_acc:
            best["accuracy"] = max(r["accuracy_mean"] for r in with_acc)
        best["sampling"] = min(r["sampling_mean"] for r in rows)
        best["ais"] = max(r["ais_mean"] for r in rows)
    lines = ["\t".join(header)]
    for row in rows:
        acc = "-"
        if row["accuracy_mean"] is not None:
            star = "*" if row["accuracy_mean"] == best.get("accuracy") else ""
            acc = f"{row['accuracy_mean']:.4f}±{row['accuracy_std']:.4f}{star}"
        samp_star = "*" if row["sampling_mean"] == best.get("sampling") else ""
        ais_star = "*" if row["ais_mean"] == best.get("ais") else ""
        lines.append("\t".join([
            row["method"], str(row["n_seeds"]), acc,
            f"{_fmt(row['sampling_mean'])}±{_fmt(row['sampling_std'])}{samp_star}",
            f"{_fmt(row['grad_evals_mean'])}±{_fmt(row['grad_evals_std'])}",
            f"{_fmt(row['ais_mean'])}±{_fmt(row['ais_std'])}{ais_star}",
            _fmt(row["grad_evals_vs_ref"]),
        ]))
    lines.extend(warnings)
    return "\n".join(lines)


def write_report_csv(path, rows) -> None:
    """Write the report table to ``path``, as ``metrics.remove_regular_file`` says."""
    remove_regular_file(path)
    with open(path, "w", newline="", encoding="ascii") as fh:
        csv.writer(fh).writerows([REPORT_FIELDS] + [["" if row[f] is None else row[f]
                                                     for f in REPORT_FIELDS] for row in rows])
