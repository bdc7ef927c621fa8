"""One SHA-256 per gate case over every non-wall-clock byte a samlab run produces.

A speedup must leave run output unchanged except for wall-clock data. This
script builds a fixed set of runs with the samlab package found under
``--src`` and writes one digest per case, so that two source trees compare
with one ``diff``::

    git archive <base> | tar -x -C /tmp/base
    python tools/run_digests.py --src /tmp/base/src --out base.json
    python tools/run_digests.py --src src --out change.json
    diff base.json change.json

The cases:

- the four optimizers on a moons MLP through ``run_experiment`` (2 seeds,
  with a short last batch), each followed by ``verify_run`` on every seed;
- vSAM with momentum 0.9, vSAM with
  ``subset_segments=["layer1.W", "layer0.W"]`` (indices that are not one
  range), vSAM with ``subset_segments=["layer0.W", "layer0.b"]`` (one range
  that is not the tail), vSAM on a ReLU ``[2, 8, 8, 2]`` MLP (a gradient over
  three layers, with dead units), vSAM on a ``[2, 8, 3]`` MLP (a softmax over
  three columns), a short vSAM run on a ``[2, 64, 64, 2]`` MLP (layers wider
  than the moons task's 16 units), vSAM with 10 slices of its 20-sample
  window (short and ragged windows), and vSAM with ``batch_size`` 120, the
  held-out split's row count (training and held-out batches of one size);
- each optimizer with ``grad_eval_budget`` 50 and 51;
- vSAM with a 25-iteration warmup and ``grad_eval_budget`` 57: samples
  settle inside a warmup that ends off a window boundary, and the budget
  stops the run in the middle of a window;
- runs that fail with a NumericError and write ``error.json``: a diverging
  quadratic under SAM (non-finite loss at iteration 92), under vSAM (the
  same, after reuse rows) and under vSAM with a 150-iteration warmup (its 91
  samples settle in one block when it raises); an SGD step that overflows
  the weights at iteration 1; and a vSAM step that overflows them at
  iteration 2, after that iteration's sample was noted, so that the sample
  has no row;
- Rosenbrock vSAM;
- the ``inverse_t`` learning-rate schedule under vSAM; a quadratic with
  ``weight_decay`` 0.05 under SAM; SAM and vSAM started at a quadratic's
  minimum, where every gradient is zero and the perturbation is the zero
  vector; vSAM with ``gamma`` 1.0 (reuse rows never decay); and vSAM with
  ``gamma`` 0.02, whose powers fall below the 1e-12 cutoff at a staleness
  of 8, inside the run's longer stretches between samples;
- vSAM with ``force`` "always" and with ``force`` "never"; Rosenbrock vSAM
  whose sample cap binds (``p_max`` 0.3 and ``s1`` 15 on a 50-sample
  window), so that ``should_sample`` refuses without a draw; and a moons
  vSAM run of 7 epochs, whose iteration count ends in the middle of a
  window, with no budget;
- runs of more than one seed, which run in parallel where they can: moons
  vSAM with seeds ``[2, 0, 1]``, and a Rosenbrock vSAM run of four seeds of
  which two fail with a NumericError and two finish;
- ``moons_2001_batch_64_sam`` and ``moons_2001_batch_64_vsam``: SAM and
  vSAM on a moons set of 2001 rows in batches of 64: the 1601 training rows
  end every epoch in a one-row batch, whose products the MLP kernel takes
  through ``np.matmul``;
- sections that leave their defaults out: ``moons_sgd_section_defaults``
  (a dataset without ``noise``, an MLP objective without ``activation`` or
  ``weight_decay``) and ``rosenbrock_sam_default_dim`` (a Rosenbrock
  objective without ``dim``), so that ``config.json`` shows the defaults;
- 20 sharp/flat seeds x 4 optimizers in memory with ``collect_params=True``:
  records, final weights and momentum, every parameter snapshot and the
  sampler state; and ``sharp_flat_basin_labels``, the ``classify_basin``
  label of each of those 80 runs' final weights;
- ``sharp_flat_ridges``: the bits of ``sharp_flat_ridge`` on the
  calibration, two other test geometries, two whose grid is not finite (a
  quartic that overflows, NaN at the ends) and 20 geometries drawn from a
  fixed seed, each computed with the ridge cache cleared;
- the same for two in-memory vSAM runs on the moons ``[2, 16, 2]`` task
  started from ``init_params``: one with the default subset (the last
  layer) and one with ``subset_segments=["layer1.W"]``;
- ``mlp_shared_spec``: SGD, SAM and vSAM in memory on that task at batch
  sizes 50 and 64, all six on one spec object, each followed by a lone
  ``mlp_accuracy`` on 37 other rows; the spec's plan keeps the MLP's scratch
  memory, so this digest shows that runs sharing it leak nothing into each
  other;
- damaged copies of one vSAM seed directory (80 rows: two blocks of the
  CSV codec), each digesting what ``verify_run`` reports on it, with the
  copy's path replaced by a placeholder: a norm-trace cell set to another
  value; one value written as ``0.5`` in the metrics and ``0.50`` in the
  trace; ``nan`` in the same cell of both files; a metrics cell that does
  not parse; a short metrics row; a metrics byte outside ASCII; a trace one
  row short; a wrong trace header; no ``norm_trace.csv``; a quoted metrics
  cell holding a CR, an LF or a CRLF, with its text copied unquoted into the
  trace; ``-0.0`` in the trace against ``0.0`` in the metrics; ``inf`` in the
  same cell of both files; a trace with LF line ends; a trace without its
  final CRLF; a trace with one extra blank line; a metrics file with LF line
  ends, without its final CRLF, with a blank line after line 40, with a NUL
  in a cell, with a cell longer than 131,072 characters (the codec's limit),
  with a first line of 200,000 characters, with a quoted ``"0.5"`` cell (the
  trace holding ``0.5``) and with a cell ending in a lone CR; and, in
  the middle of a sampler window, whose rows repeat one ``p``, ``s``,
  ``c_var`` and ``c_norm``, a ``p`` cell that is not a number and an emptied
  ``c_var`` cell;
- ``report``: ``compare_report`` over the four ``moons_<optimizer>`` runs
  and a copy of the vSAM one without seed 1's ``summary.json``, which the
  report excludes: its rows without wall-clock keys, and its warning lines
  with the copy's path replaced by a placeholder.

A run directory's digest covers every file in it: CSV files without their
wall-clock columns, JSON files without wall-clock keys and the output path.
An in-memory run's sampler state is digested without ``window_iter``, a
counter that earlier versions of samlab kept and nothing read.
The wall-clock fields are ``samlab.metrics.WALL_CLOCK_FIELDS`` of this
checkout, whichever tree ``--src`` names.
``--case NAME`` (repeatable) builds only the named cases.
BLAS is pinned to one thread before numpy loads, so that the runs of more
than one seed run in parallel on a host of several CPUs: samlab forks only
a process that runs one thread.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})


def wall_clock_fields():
    """This checkout's ``samlab.metrics.WALL_CLOCK_FIELDS``, read from its source.

    Not from the package under ``--src``: the digests of every tree leave out
    the same fields, those outside the bit-identity contract.
    """
    source = Path(__file__).resolve().parent.parent / "src" / "samlab" / "metrics.py"
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["WALL_CLOCK_FIELDS"]:
            return ast.literal_eval(node.value)
    raise SystemExit(f"run_digests: no WALL_CLOCK_FIELDS in {source}")


WALL_CLOCK_FIELDS = wall_clock_fields()
METHODS = ("sgd", "sam", "sam_k", "vsam")

MOONS = {
    "objective": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 2],
                  "activation": "tanh", "weight_decay": 1e-4},
    "dataset": {"kind": "moons", "n": 600, "noise": 0.15, "seed": 3},
    "optimizer_config": {"eta0": 0.5, "rho": 0.05, "gamma": 0.9, "lr_schedule": "cosine"},
    "epochs": 8,
    "batch_size": 50,  # 480 training rows: the last batch of an epoch has 30
    "seeds": [0, 1],
}
SAMPLER = {"n_window": 20, "m_slices": 4, "alpha": 0.13, "s1": 5, "i_start": 20}


def _payload(optimizer, **changes):
    payload = json.loads(json.dumps(MOONS))
    payload["optimizer"] = optimizer
    if optimizer == "sam_k":
        payload["k"] = 2
    if optimizer == "vsam":
        payload["sampler_config"] = dict(SAMPLER)
    for key, value in changes.items():
        if isinstance(value, dict):
            payload.setdefault(key, {}).update(value)
        else:
            payload[key] = value
    return payload


def config_cases():
    """Case name -> config payload (without ``output_dir``), for ``run_experiment``."""
    cases = {f"moons_{m}": _payload(m) for m in METHODS}
    cases["vsam_momentum_0.9"] = _payload("vsam", optimizer_config={"momentum": 0.9})
    cases["vsam_subset_layer1W_layer0W"] = _payload(
        "vsam", sampler_config={"subset_segments": ["layer1.W", "layer0.W"]})
    cases["vsam_subset_layer0W_layer0b"] = _payload(
        "vsam", sampler_config={"subset_segments": ["layer0.W", "layer0.b"]})
    cases["vsam_relu_2_8_8_2"] = _payload(
        "vsam", objective={"layer_sizes": [2, 8, 8, 2], "activation": "relu"})
    cases["vsam_mlp_2_8_3"] = _payload("vsam", objective={"layer_sizes": [2, 8, 3]})
    # two layers of 64 units, four times the moons task's: 40 iterations, 20 after warmup
    cases["vsam_mlp_2_64_64_2"] = _payload(
        "vsam", objective={"layer_sizes": [2, 64, 64, 2]}, epochs=4, seeds=[0])
    # the first nine windows hold fewer values than slices, and windows of
    # 10-19 values split into slices of unequal width
    cases["vsam_slices_10"] = _payload("vsam", sampler_config={"m_slices": 10})
    # 120 rows per batch, as many as the held-out split: training and held-out
    # evaluation share one set of row buffers
    cases["vsam_batch_120"] = _payload("vsam", batch_size=120)
    for m in METHODS:
        for budget in (50, 51):
            cases[f"budget_{m}_{budget}"] = _payload(
                m, optimizer_config={"grad_eval_budget": budget}, seeds=[0])
    cases["vsam_warmup_25_budget_57"] = _payload(
        "vsam", sampler_config={"i_start": 25}, optimizer_config={"grad_eval_budget": 57},
        seeds=[0])
    cases["diverging_quadratic_sam"] = {
        "objective": {"kind": "quadratic", "a": [[50.0, 0.0], [0.0, 1.0]]},
        "optimizer": "sam", "optimizer_config": {"eta0": 1.0, "lr_schedule": "constant"},
        "iterations": 400, "seeds": [0], "w0": [1.0, 1.0]}
    cases["diverging_quadratic_vsam"] = dict(
        cases["diverging_quadratic_sam"], optimizer="vsam", sampler_config=dict(SAMPLER))
    # the warmup outlasts the run: all 91 samples are settled in one block when it raises
    cases["diverging_quadratic_vsam_long_warmup"] = dict(
        cases["diverging_quadratic_vsam"], sampler_config=dict(SAMPLER, i_start=150))
    cases["overflowing_step_sgd"] = {
        "objective": {"kind": "quadratic", "a": [[1.0, 0.0], [0.0, 1.0]]},
        "optimizer": "sgd", "optimizer_config": {"eta0": 1e306},
        "iterations": 10, "seeds": [0], "w0": [1e3, 1.0]}
    # the step of iteration 2 overflows after its sample was noted: that sample has no row
    cases["overflowing_step_vsam"] = {
        "objective": {"kind": "quadratic", "a": [[1.0]]},
        "optimizer": "vsam", "optimizer_config": {"eta0": 1e155, "lr_schedule": "constant"},
        "sampler_config": dict(SAMPLER), "iterations": 10, "seeds": [0], "w0": [1e-10]}
    cases["rosenbrock_vsam"] = {
        "objective": {"kind": "rosenbrock", "dim": 3},
        "optimizer": "vsam", "optimizer_config": {"eta0": 1e-3, "lr_schedule": "constant"},
        "sampler_config": dict(SAMPLER), "iterations": 600, "seeds": [0, 1]}
    cases["vsam_inverse_t"] = _payload("vsam", optimizer_config={"lr_schedule": "inverse_t"})
    cases["quadratic_weight_decay_sam"] = {
        "objective": {"kind": "quadratic", "a": [[3.0, 0.5], [0.5, 1.0]], "b": [1.0, -1.0],
                      "weight_decay": 0.05},
        "optimizer": "sam", "optimizer_config": {"eta0": 0.1, "rho": 0.2, "lr_schedule": "cosine"},
        "iterations": 300, "seeds": [0, 1]}
    minimum = {"objective": {"kind": "quadratic", "a": [[2.0, 0.0], [0.0, 1.0]], "b": [2.0, 1.0]},
               "optimizer_config": {"eta0": 0.1, "lr_schedule": "constant"},
               "iterations": 120, "seeds": [0], "w0": [1.0, 1.0]}
    cases["quadratic_at_minimum_sam"] = dict(minimum, optimizer="sam")
    cases["quadratic_at_minimum_vsam"] = dict(minimum, optimizer="vsam",
                                              sampler_config=dict(SAMPLER))
    cases["vsam_gamma_1"] = _payload("vsam", optimizer_config={"gamma": 1.0})
    cases["vsam_gamma_0.02"] = dict(cases["rosenbrock_vsam"],
                                    optimizer_config={"eta0": 1e-3, "gamma": 0.02,
                                                      "lr_schedule": "constant"})
    for force in ("always", "never"):
        cases[f"vsam_force_{force}"] = _payload("vsam", sampler_config={"force": force})
    # at most floor(0.3 * 50) = 15 samples a window, and s1 = 15 starts p at that rate:
    # the cap refuses 49 decisions of seed 0 and 56 of seed 1, each without a draw
    cases["vsam_sample_cap"] = dict(cases["rosenbrock_vsam"], sampler_config=dict(
        SAMPLER, n_window=50, m_slices=5, s1=15, p_max=0.3))
    # 70 iterations: the windows end at 40 and 60, and the run in the middle of the next
    cases["vsam_ends_mid_window"] = _payload("vsam", epochs=7)
    # three seeds, not in order: the aggregate sums in the order of the config's seeds
    cases["moons_vsam_3_seeds"] = _payload("vsam", seeds=[2, 0, 1])
    # seeds 1 and 3 start where the step diverges (iterations 13 and 6); 0 and 2 finish
    cases["rosenbrock_vsam_some_seeds_fail"] = dict(
        cases["rosenbrock_vsam"], objective={"kind": "rosenbrock", "dim": 2},
        optimizer_config={"eta0": 5e-3, "lr_schedule": "constant"}, iterations=300,
        seeds=[0, 1, 2, 3])
    for m in ("sam", "vsam"):  # 1601 training rows: 25 batches of 64, then one of a single row
        cases[f"moons_2001_batch_64_{m}"] = _payload(m, dataset={"n": 2001}, batch_size=64)
    # sections that leave their defaults out: noise 0.0, a tanh MLP without weight decay
    cases["moons_sgd_section_defaults"] = dict(
        _payload("sgd", seeds=[0]), dataset={"kind": "moons", "n": 600, "seed": 3},
        objective={"kind": "mlp_classifier", "layer_sizes": [2, 16, 2]})
    cases["rosenbrock_sam_default_dim"] = {  # dim 2, no weight decay
        "objective": {"kind": "rosenbrock"}, "optimizer": "sam",
        "optimizer_config": {"eta0": 1e-3, "lr_schedule": "constant"},
        "iterations": 600, "seeds": [0]}
    return cases


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _strip(payload):
    if isinstance(payload, dict):
        return {k: _strip(v) for k, v in payload.items()
                if k not in WALL_CLOCK_FIELDS and k != "output_dir"}
    if isinstance(payload, list):
        return [_strip(v) for v in payload]
    return payload


def file_digest(path: Path) -> str:
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            return sha(json.dumps(_strip(json.load(fh)), sort_keys=True))
    if path.suffix == ".csv":
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        keep = [j for j, name in enumerate(rows[0]) if name not in WALL_CLOCK_FIELDS]
        return sha(*[",".join(row[j] for j in keep) for row in rows])
    return sha(path.read_bytes())


def run_dir_digest(harness, run_dir: Path) -> str:
    """Every file of the run directory, then ``verify_run`` on each seed."""
    parts = []
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        parts += [path.relative_to(run_dir).as_posix(), file_digest(path)]
    for seed_dir in sorted(run_dir.glob("seed_*")):
        if (seed_dir / "error.json").exists():
            continue
        ok, lines = harness.verify_run(seed_dir)
        parts += [seed_dir.name, ok, *lines]
    return sha(*parts)


def _edit_line(path: Path, line: int, edit) -> None:
    """Apply ``edit`` to the cells (bytes) of 1-based ``line`` of a CSV file."""
    lines = path.read_bytes().split(b"\r\n")
    lines[line - 1] = b",".join(edit(lines[line - 1].split(b",")))
    path.write_bytes(b"\r\n".join(lines))


def _set_cell(name, line, column, text):
    """A damage that writes ``text`` into one cell of the seed directory's file ``name``."""
    def damage(seed_dir):
        path = seed_dir / name
        header = path.read_bytes().split(b"\r\n", 1)[0].split(b",")

        def edit(cells):
            cells[header.index(column)] = text
            return cells
        _edit_line(path, line, edit)
    return damage


def _both(*damages):
    """A damage that does each of ``damages`` in turn."""
    def damage(seed_dir):
        for one in damages:
            one(seed_dir)
    return damage


def _drop_last_trace_row(seed_dir):
    path = seed_dir / "norm_trace.csv"
    lines = path.read_bytes().split(b"\r\n")  # the last item is the empty one after the final CRLF
    path.write_bytes(b"\r\n".join(lines[:-2] + lines[-1:]))


def _edit_file(name, edit):
    """A damage that replaces the bytes of the seed directory's file ``name`` with ``edit``
    of them."""
    def damage(seed_dir):
        path = seed_dir / name
        path.write_bytes(edit(path.read_bytes()))
    return damage


def _blank_line_after(line):
    """An edit that puts a blank line after 1-based ``line`` of a CSV file's bytes."""
    def edit(text):
        lines = text.split(b"\r\n")
        return b"\r\n".join([*lines[:line], b"", *lines[line:]])
    return edit


def _line_break_in_cell(brk):
    """A quoted metrics cell holding ``brk`` (it parses), its text copied unquoted into the trace."""
    return _both(_set_cell("metrics.csv", 3, b"l2_sgd", b'"0.5' + brk + b'"'),
                 _set_cell("norm_trace.csv", 3, b"l2_sgd", b"0.5" + brk))


# case name -> damage done to a copy of a vSAM seed directory; line 70 is in the second block
DAMAGES = {
    "damaged_trace_other_value": _set_cell("norm_trace.csv", 3, b"l2_sgd", b"1.5"),
    "damaged_same_value_other_text": _both(_set_cell("metrics.csv", 3, b"l2_sgd", b"0.5"),
                                           _set_cell("norm_trace.csv", 3, b"l2_sgd", b"0.50")),
    "damaged_nan_in_both": _both(_set_cell("metrics.csv", 3, b"l2_psf", b"nan"),
                                 _set_cell("norm_trace.csv", 3, b"l2_psf", b"nan")),
    "damaged_metrics_bad_cell": _set_cell("metrics.csv", 70, b"train_loss", b"0.5.1"),
    "damaged_metrics_short_row": lambda seed_dir: _edit_line(
        seed_dir / "metrics.csv", 70, lambda cells: cells[:-1]),
    "damaged_metrics_non_ascii": _set_cell("metrics.csv", 70, b"l2_sgd", b"1.5\xc3"),
    "damaged_trace_row_short": _drop_last_trace_row,
    "damaged_trace_header": lambda seed_dir: _edit_line(
        seed_dir / "norm_trace.csv", 1, lambda cells: cells[::-1]),
    "damaged_trace_missing": lambda seed_dir: (seed_dir / "norm_trace.csv").unlink(),
    "damaged_cr_in_quoted_cell": _line_break_in_cell(b"\r"),
    "damaged_lf_in_quoted_cell": _line_break_in_cell(b"\n"),
    "damaged_crlf_in_quoted_cell": _line_break_in_cell(b"\r\n"),
    "damaged_trace_negative_zero": _both(_set_cell("metrics.csv", 3, b"l2_sgd", b"0.0"),
                                         _set_cell("norm_trace.csv", 3, b"l2_sgd", b"-0.0")),
    "damaged_inf_in_both": _both(_set_cell("metrics.csv", 3, b"l2_psf", b"inf"),
                                 _set_cell("norm_trace.csv", 3, b"l2_psf", b"inf")),
    "damaged_trace_lf_line_ends": _edit_file("norm_trace.csv",
                                             lambda text: text.replace(b"\r\n", b"\n")),
    "damaged_trace_no_final_crlf": _edit_file("norm_trace.csv", lambda text: text[:-2]),
    "damaged_trace_extra_blank_line": _edit_file("norm_trace.csv", lambda text: text + b"\r\n"),
    "damaged_metrics_lf_line_ends": _edit_file("metrics.csv",
                                               lambda text: text.replace(b"\r\n", b"\n")),
    "damaged_metrics_no_final_crlf": _edit_file("metrics.csv", lambda text: text[:-2]),
    "damaged_metrics_blank_line": _edit_file("metrics.csv", _blank_line_after(40)),
    "damaged_metrics_nul_in_cell": _set_cell("metrics.csv", 70, b"l2_sgd", b"1.5\x00"),
    "damaged_metrics_over_long_cell": _set_cell("metrics.csv", 70, b"l2_sgd", b"5" * 200_000),
    "damaged_metrics_over_long_header": lambda seed_dir: _edit_line(
        seed_dir / "metrics.csv", 1, lambda cells: [b"5" * 200_000, *cells[1:]]),
    "damaged_metrics_quoted_cell": _both(_set_cell("metrics.csv", 3, b"l2_sgd", b'"0.5"'),
                                         _set_cell("norm_trace.csv", 3, b"l2_sgd", b"0.5")),
    "damaged_metrics_lone_cr_in_cell": _set_cell("metrics.csv", 70, b"l2_sgd", b"0.5\r"),
    # cells in the middle of a sampler window, whose rows repeat one p, s, c_var and c_norm:
    # p's windows are lines 42-61 and 62-81 (c_var's start a line earlier)
    "damaged_window_p_not_a_number": _set_cell("metrics.csv", 51, b"p", b"0.27x"),
    "damaged_window_c_var_empty": _set_cell("metrics.csv", 70, b"c_var", b""),
}


def damaged_digests(harness, tmp: Path, wanted):
    """Case name -> digest of ``verify_run``'s (ok, lines) on a damaged seed directory."""
    payload = dict(_payload("vsam", seeds=[0]), output_dir=str(tmp / "damaged_source"))
    source = Path(harness.run_experiment(harness.config_from_dict(payload))) / "seed_0"
    digests = {}
    for name, damage in DAMAGES.items():
        if name in wanted:
            seed_dir = tmp / name
            shutil.copytree(source, seed_dir)
            damage(seed_dir)
            ok, lines = harness.verify_run(seed_dir)
            digests[name] = sha(ok, *[line.replace(str(seed_dir), "<seed_dir>")
                                      for line in lines])
    return digests


def _result_digest(result):
    """Records, final weights and momentum, every parameter snapshot and the sampler state.

    A record's values are listed by name in ``FIELD_ORDER``, the file's column
    order, whatever order the record's class declares its fields in.
    """
    from samlab.metrics import FIELD_ORDER

    names = [name for name in FIELD_ORDER if name not in WALL_CLOCK_FIELDS]
    records = [{name: getattr(r, name) for name in names} for r in result.records]
    state = result.sampler_state
    state_part = None
    if state is not None:
        state_part = {k: v for k, v in vars(state).items()
                      if k not in ("rng_stream", "window_iter")}
        state_part["rng"] = state.rng_stream.bit_generator.state
    return sha(repr(records), result.w_final.values.tobytes(), result.momentum_final.tobytes(),
               *[snapshot.tobytes() for snapshot in result.params_history or []],
               repr(state_part))


def sharp_flat_digests(wanted):
    """Case name -> digest of in-memory sharp/flat runs, 20 seeds x 4 optimizers.

    ``sharp_flat_basin_labels`` digests the ``classify_basin`` label of
    every run's final weights.
    """
    import numpy as np
    from samlab import objectives, optim, sampler
    from samlab.params import ParamVector

    cal = objectives.SHARP_FLAT_CALIBRATION
    spec = objectives.make_sharp_flat(cal["width_sharp"], cal["width_flat"],
                                      cal["depth_gap"], cal["separation"])
    opt = optim.OptimizerConfig(eta0=cal["eta0"], rho=cal["rho"], gamma=0.9,
                                lr_schedule=cal["lr_schedule"])
    scfg = sampler.SamplerConfig(n_window=50, m_slices=5, alpha=0.13, s1=25, i_start=250)
    x_sharp = -cal["separation"] / 2.0
    half = cal["init_halfwidth"]
    rng = np.random.default_rng(2024)
    digests, labels = {}, []
    for seed in range(20):
        start = np.array([x_sharp + rng.uniform(-half, half), rng.uniform(-half, half)])
        for method in METHODS:
            w0 = ParamVector(start.copy())
            common = dict(w0=w0, collect_params=True)
            if method == "sgd":
                result = optim.run_sgd(spec, None, opt, cal["iterations"], seed, **common)
            elif method == "sam":
                result = optim.run_sam(spec, None, opt, cal["iterations"], seed, **common)
            elif method == "sam_k":
                result = optim.run_sam_k(spec, None, opt, 2, cal["iterations"], seed, **common)
            else:
                result = optim.run_vsam(spec, None, opt, scfg, cal["iterations"], seed,
                                        **common)
            if f"sharp_flat_{seed}_{method}" in wanted:
                digests[f"sharp_flat_{seed}_{method}"] = _result_digest(result)
            labels.append(objectives.classify_basin(spec, result.w_final))
    if "sharp_flat_basin_labels" in wanted:
        digests["sharp_flat_basin_labels"] = sha(*labels)
    return digests


def report_digest(harness, run_dirs, tmp: Path) -> str:
    """Digest of ``compare_report`` over ``run_dirs`` and a copy of the last without seed 1's
    summary: the rows without wall-clock keys, and the warnings without the copy's path."""
    broken = tmp / "report_missing_summary"
    shutil.copytree(run_dirs[-1], broken)
    (broken / "seed_1" / "summary.json").unlink()
    text, rows = harness.compare_report([*run_dirs, broken])
    warnings = [line.replace(str(broken), "<run_dir>") for line in text.splitlines()
                if line.startswith("WARNING")]
    return sha(repr([{k: v for k, v in row.items() if k not in WALL_CLOCK_FIELDS}
                     for row in rows]), *warnings)


# (width_sharp, width_flat, depth_gap, separation) of the ridge case, besides 20 random ones
RIDGE_GEOMETRIES = [
    (0.08, 0.5, 0.3, 2.0),  # the calibration
    (0.1, 0.7, 0.1, 1.5),
    (0.05, 0.3, 0.5, 3.0),
    (0.08, 0.5, 0.3, 1e80),  # a quartic that overflows between the wells
    (1e-160, 0.5, 0.3, 2.0),  # NaN at both ends of the grid
]


def ridge_digest():
    """Digest of ``sharp_flat_ridge`` on RIDGE_GEOMETRIES and 20 seeded random geometries."""
    import numpy as np
    from samlab import objectives

    rng = np.random.default_rng(31)
    geometries = list(RIDGE_GEOMETRIES)
    for _ in range(20):
        width = 10.0 ** rng.uniform(-3.0, 0.0)
        geometries.append((width, width * 10.0 ** rng.uniform(0.005, 3.0),
                           rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-1.3, 1.3)))
    parts = []
    for geometry in geometries:
        objectives._RIDGE_CACHE.clear()  # each ridge from its grid, not from the cache
        parts.append(objectives.sharp_flat_ridge(objectives.make_sharp_flat(*geometry)).hex())
    return sha(*parts)


# case name -> the vSAM run's subset_segments (None: the default subset)
MLP_SUBSETS = {"moons_vsam_in_memory": None, "moons_vsam_in_memory_layer1W": ["layer1.W"]}


def mlp_digests(wanted):
    """Case name -> digest of in-memory runs on the moons task, from ``init_params``."""
    from samlab import data, objectives, optim, sampler

    objective, dataset = MOONS["objective"], MOONS["dataset"]
    spec = objectives.make_mlp_classifier(objective["layer_sizes"], objective["activation"],
                                          objective["weight_decay"])
    ds = data.generate_dataset(dataset["kind"], dataset["n"], dataset["noise"], dataset["seed"])
    opt = optim.OptimizerConfig(**MOONS["optimizer_config"])
    iterations = MOONS["epochs"] * 10  # 480 training rows in batches of 50: 10 per epoch
    digests = {}
    for name, subset in MLP_SUBSETS.items():
        if name in wanted:
            scfg = sampler.SamplerConfig(**SAMPLER, subset_segments=subset)
            result = optim.run_vsam(spec, ds, opt, scfg, iterations, 0,
                                    batch_size=MOONS["batch_size"],
                                    w0=objectives.init_params(spec, 0), collect_params=True)
            digests[name] = _result_digest(result)
    if "mlp_shared_spec" in wanted:
        probe = data.generate_dataset(dataset["kind"], 37, dataset["noise"], 5)
        parts = []
        for batch_size in (50, 64):  # the last batch of an epoch has 30 and 32 rows
            for method in ("sgd", "sam", "vsam"):
                common = dict(batch_size=batch_size, w0=objectives.init_params(spec, 0),
                              collect_params=True)
                if method == "vsam":
                    result = optim.run_vsam(spec, ds, opt, sampler.SamplerConfig(**SAMPLER),
                                            iterations, 0, **common)
                else:
                    result = getattr(optim, f"run_{method}")(spec, ds, opt, iterations, 0,
                                                             **common)
                accuracy = objectives.mlp_accuracy(spec, result.w_final, probe.inputs,
                                                   probe.targets)
                parts += [_result_digest(result), accuracy.hex()]
        digests["mlp_shared_spec"] = sha(*parts)
    return digests


def import_samlab(src: Path):
    sys.path.insert(0, str(src))
    import samlab
    from samlab import harness

    if not Path(samlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"samlab was imported from {samlab.__file__}, not from {src}")
    return harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the samlab package (default: src)")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to write the digests to")
    parser.add_argument("--case", action="append", default=[],
                        help="build only this case (repeatable)")
    args = parser.parse_args(argv)

    configs = config_cases()
    sharp_flat_names = [f"sharp_flat_{s}_{m}" for s in range(20) for m in METHODS]
    sharp_flat_names.append("sharp_flat_basin_labels")
    names = [*configs, *DAMAGES, *sharp_flat_names, *MLP_SUBSETS, "mlp_shared_spec",
             "sharp_flat_ridges", "report"]
    unknown = sorted(set(args.case) - set(names))
    if unknown:
        parser.error(f"unknown cases: {unknown}")
    wanted = set(args.case or names)
    # the runs that the report case compares
    report_runs = [f"moons_{m}" for m in METHODS] if "report" in wanted else []

    harness = import_samlab(args.src.resolve())
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        run_dirs = {}
        for name, payload in configs.items():
            if name in wanted or name in report_runs:
                payload = dict(payload, output_dir=str(Path(tmp) / name))
                run_dirs[name] = Path(harness.run_experiment(harness.config_from_dict(payload)))
            if name in wanted:
                digests[name] = run_dir_digest(harness, run_dirs[name])
        if report_runs:
            digests["report"] = report_digest(harness, [run_dirs[n] for n in report_runs],
                                              Path(tmp))
        if wanted & set(DAMAGES):
            digests.update(damaged_digests(harness, Path(tmp), wanted))
    digests.update(mlp_digests(wanted))
    if wanted & set(sharp_flat_names):
        digests.update(sharp_flat_digests(wanted))
    if "sharp_flat_ridges" in wanted:
        digests["sharp_flat_ridges"] = ridge_digest()
    args.out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
