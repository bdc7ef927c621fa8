import dataclasses
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samlab.data import DATASET_KINDS, generate_dataset, save_dataset
from samlab.diagnostics import NORM_TRACE_FIELDS
from samlab import harness
from samlab.errors import ConfigurationError, NumericError
from samlab.harness import (FILLED_FIELDS, OPTIMIZERS, ExperimentConfig, RunSummary,
                            compare_report, compute_ais, config_from_dict, config_to_dict,
                            run_experiment, summarize, verify_run,
                            write_report_csv, REPORT_FIELDS)
from samlab.metrics import (FIELD_ORDER, WALL_CLOCK_FIELDS, MetricsRecord, read_metrics_csv,
                            write_metrics_csv)
from samlab.objectives import ACTIVATIONS, OBJECTIVE_KINDS, param_segments
from samlab.optim import LR_SCHEDULES, OptimizerConfig
from samlab.sampler import SamplerConfig

from helpers import grad_eval_ratio


def _base_config(tmp_path, **overrides):
    payload = {
        "objective": {"kind": "mlp_classifier", "layer_sizes": [2, 6, 2],
                      "activation": "tanh", "weight_decay": 1e-4},
        "dataset": {"kind": "moons", "n": 80, "noise": 0.15, "seed": 3},
        "optimizer": "vsam",
        "optimizer_config": {"eta0": 0.1, "rho": 0.05, "gamma": 0.9},
        "sampler_config": {"n_window": 10, "m_slices": 2, "s1": 5, "i_start": 10},
        "iterations": 40,
        "batch_size": 16,
        "seeds": [0, 1, 2],
        "output_dir": str(tmp_path / "run"),
    }
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# metrics csv

def test_metrics_round_trip_exact(tmp_path):
    recs = [MetricsRecord(iteration=1, epoch=0, train_loss=0.123456789012345678,
                          l2_sgd=1e-17, sampled=True, cumulative_grad_evals=2,
                          wall_clock_seconds=0.5, l2_psf=None, p=0.3)]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, recs)
    back = read_metrics_csv(path)
    assert back == recs
    header = path.read_text().splitlines()[0]
    assert header == ",".join(FIELD_ORDER)


def test_metrics_wrong_header_is_configuration_error(tmp_path):
    seed_dir = tmp_path / "seed_0"
    seed_dir.mkdir()
    path = seed_dir / "metrics.csv"
    path.write_text(",".join(reversed(FIELD_ORDER)) + "\n", encoding="ascii")
    with pytest.raises(ConfigurationError, match="metrics.csv"):
        read_metrics_csv(path)
    ok, lines = verify_run(seed_dir)
    assert not ok
    assert lines[0].startswith("[FAIL] metrics schema header")


def _tamper_line(path, line, edit):
    """Apply ``edit`` to the cells of 1-based ``line`` of a CSV file."""
    lines = path.read_bytes().decode("ascii").split("\r\n")
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    path.write_bytes("\r\n".join(lines).encode("ascii"))


def _bad_l2_sgd(header):
    def edit(cells):
        cells[header.index("l2_sgd")] = "nope"
        return cells
    return edit


# (line, header -> cell edit) for each way a file can be malformed
MALFORMED = {
    "extra cell": (3, lambda header: lambda cells: cells + ["1"]),
    "short row": (3, lambda header: lambda cells: cells[:-1]),
    "bad cell": (3, _bad_l2_sgd),
    "header": (1, lambda header: lambda cells: cells[::-1]),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_verify_reports_malformed_metrics(tmp_path, case):
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    line, edit = MALFORMED[case]
    _tamper_line(seed_dir / "metrics.csv", line, edit(FIELD_ORDER))
    ok, lines = verify_run(seed_dir)
    assert not ok
    if case == "header":
        assert len(lines) == 1 and lines[0].startswith("[FAIL] metrics schema header")
    else:
        assert lines[0] == "[PASS] metrics schema header"
        assert lines[1].startswith("[FAIL] metrics rows: ")
        assert f"metrics.csv, line {line}: " in lines[1] and len(lines) == 2


@pytest.mark.parametrize("edit, failure", [
    (lambda cells: cells[:2] + ["0.5.1"] + cells[3:],
     "[FAIL] metrics rows: {path}, line 31: cannot parse train_loss cell '0.5.1'"),
    (lambda cells: cells[:-1],
     "[FAIL] metrics rows: {path}, line 31: expected 21 cells, found 20"),
    (lambda cells: cells[:1] + [""] + cells[2:],
     "[FAIL] every row fills its columns: line 31: empty epoch cell"),
])
def test_verify_names_the_physical_line_after_a_cell_with_a_line_break(tmp_path, edit, failure):
    # line 3's train_loss cell is quoted with a CRLF inside, so the row it is on
    # spans lines 3-4 and the row written as line 30 starts on line 31
    config = _base_config(tmp_path, optimizer="sgd", seeds=[0])
    del config["sampler_config"]
    seed_dir = run_experiment(config_from_dict(config)) / "seed_0"
    path = seed_dir / "metrics.csv"
    _tamper_line(path, 30, edit)
    _tamper_line(path, 3, lambda cells: cells[:2] + [f'"{cells[2]}\r\n"'] + cells[3:])
    ok, lines = verify_run(seed_dir)
    assert not ok
    assert failure.format(path=path) in lines


@pytest.mark.parametrize("case", MALFORMED)
def test_verify_reports_malformed_norm_trace(tmp_path, case):
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    _, clean = verify_run(seed_dir)
    line, edit = MALFORMED[case]
    _tamper_line(seed_dir / "norm_trace.csv", line, edit(NORM_TRACE_FIELDS))
    ok, lines = verify_run(seed_dir)
    assert not ok
    # every earlier check still reported; the trace check becomes one failure line
    assert lines[:-1] == clean[:-1]
    assert lines[-1].startswith("[FAIL] norm trace readable: ")
    assert "norm_trace.csv" in lines[-1]
    if case != "header":
        assert f"line {line}: " in lines[-1]


def _set_cell(path, line, name, header, text):
    def edit(cells):
        cells[header.index(name)] = text
        return cells
    _tamper_line(path, line, edit)


def _set_both(name, metrics_text, trace_text):
    """An edit that writes one cell of line 3 in both files."""
    def edit(seed_dir):
        _set_cell(seed_dir / "metrics.csv", 3, name, FIELD_ORDER, metrics_text)
        _set_cell(seed_dir / "norm_trace.csv", 3, name, NORM_TRACE_FIELDS, trace_text)
    return edit


def _edit_trace(edit):
    """An edit of the norm trace's whole text."""
    def apply(seed_dir):
        path = seed_dir / "norm_trace.csv"
        path.write_bytes(edit(path.read_bytes()))
    return apply


# edits after which metrics.csv still parses: (edit, verify's verdict on the norm trace)
PARSEABLE = {
    "other value": (lambda seed_dir: _set_cell(seed_dir / "norm_trace.csv", 3, "l2_sgd",
                                               NORM_TRACE_FIELDS, "1.5"),
                    "[FAIL] norm trace matches metrics"),
    "same value, other text": (lambda seed_dir: _tamper_line(
        seed_dir / "norm_trace.csv", 3,
        lambda cells: cells[:1] + ["+" + cells[1]] + cells[2:]),
        "[PASS] norm trace matches metrics"),
    # nan never equals itself, so a parsed nan never matches, even against a nan
    "nan in both files": (_set_both("l2_psf", "nan", "nan"), "[FAIL] norm trace matches metrics"),
    # a quoted metrics cell holding a line break parses (float strips it); the
    # same text unquoted splits the trace's row, although the two texts agree
    "cr in a quoted metrics cell": (_set_both("l2_sgd", '"0.5\r"', "0.5\r"),
                                    "[FAIL] norm trace readable"),
    "lf in a quoted metrics cell": (_set_both("l2_sgd", '"0.5\n"', "0.5\n"),
                                    "[FAIL] norm trace readable"),
    "crlf in a quoted metrics cell": (_set_both("l2_sgd", '"0.5\r\n"', "0.5\r\n"),
                                      "[FAIL] norm trace readable"),
    "negative zero in the trace": (_set_both("l2_sgd", "0.0", "-0.0"),
                                   "[PASS] norm trace matches metrics"),
    "inf in both files": (_set_both("l2_psf", "inf", "inf"), "[PASS] norm trace matches metrics"),
    "lf line ends": (_edit_trace(lambda text: text.replace(b"\r\n", b"\n")),
                     "[PASS] norm trace matches metrics"),
    "no final crlf": (_edit_trace(lambda text: text[:-2]), "[PASS] norm trace matches metrics"),
    "extra blank line": (_edit_trace(lambda text: text + b"\r\n"), "[FAIL] norm trace readable"),
}


def _parsed_trace_verdict(seed_dir):
    """The norm-trace line of the parsed comparison: the parse error, or whether the values match."""
    from samlab.diagnostics import norm_trace, read_norm_trace

    try:
        parsed = read_norm_trace(seed_dir / "norm_trace.csv")
    except ConfigurationError as err:
        return f"[FAIL] norm trace readable: {err}"
    matches = parsed == norm_trace(read_metrics_csv(seed_dir / "metrics.csv"))
    return f"[{'PASS' if matches else 'FAIL'}] norm trace matches metrics"


def test_verify_run_builds_no_metrics_record(tmp_path, monkeypatch):
    # verify reads the columns its checks use; it builds no record per row
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    built = []
    init = MetricsRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MetricsRecord, "__init__", counted)
    ok, lines = verify_run(out / "seed_0")
    assert ok and lines[-1] == "[PASS] norm trace matches metrics"
    assert built == []
    # the counter sees records when they are built: one per row of the file
    assert len(read_metrics_csv(out / "seed_0" / "metrics.csv")) == len(built) == 40


@pytest.mark.parametrize("line", [2, 3, 41])  # the first, second and last of 40 rows
def test_verify_reports_an_empty_grad_evals_cell(tmp_path, line):
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    _set_cell(seed_dir / "metrics.csv", line, "cumulative_grad_evals", FIELD_ORDER, "")
    ok, lines = verify_run(seed_dir)
    assert not ok
    assert "[FAIL] cumulative grad evals non-decreasing" in lines
    assert "[FAIL] grad-eval increments (2 sampled / 1 reused)" in lines
    assert lines[-1] == "[PASS] norm trace matches metrics"


# the summary is checked against the last row's train loss
@pytest.mark.parametrize("column, line", [("iteration", 3), ("sampled", 3), ("train_loss", 41)])
def test_verify_reports_other_empty_cells(tmp_path, column, line):
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    _set_cell(seed_dir / "metrics.csv", line, column, FIELD_ORDER, "")
    ok, lines = verify_run(seed_dir)
    assert not ok
    assert any(text.startswith("[FAIL] ") for text in lines)


@pytest.mark.parametrize("case", PARSEABLE)
def test_verify_norm_trace_verdict_is_the_parsed_comparison(tmp_path, case):
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    _, clean = verify_run(seed_dir)
    assert clean[-1] == "[PASS] norm trace matches metrics"
    edit, verdict = PARSEABLE[case]
    edit(seed_dir)
    parsed = _parsed_trace_verdict(seed_dir)
    assert parsed.startswith(verdict)
    ok, lines = verify_run(seed_dir)
    assert ok is verdict.startswith("[PASS]")
    assert lines == clean[:-1] + [parsed]


def test_verify_parses_the_norm_trace_only_when_its_text_differs(tmp_path, monkeypatch):
    from samlab import harness

    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    read = []
    real = harness._read_columns

    def spy(path, *args, **kwargs):
        read.append(path.name)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(harness, "_read_columns", spy)
    ok, clean = verify_run(seed_dir)
    assert ok and read == ["metrics.csv"]
    # the same value as other text: the trace is parsed, and its values match
    _set_both("l2_sgd", "0.5", "0.50")(seed_dir)
    read.clear()
    ok, lines = verify_run(seed_dir)
    assert ok and lines == clean
    assert read == ["metrics.csv", "norm_trace.csv"]


def _first_unsampled_line(seed_dir, after):
    rows = read_metrics_csv(seed_dir / "metrics.csv")
    return next(i + 2 for i, row in enumerate(rows) if i + 2 > after and not row.sampled)


@pytest.mark.parametrize("column", FILLED_FIELDS)
def test_verify_reports_an_empty_cell_in_a_filled_column(tmp_path, column):
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    _, clean = verify_run(seed_dir)
    # row 20; a row that did not sample for sampled, where an empty cell counts as 1 evaluation
    line = _first_unsampled_line(seed_dir, 20) if column == "sampled" else 21
    _set_cell(seed_dir / "metrics.csv", line, column, FIELD_ORDER, "")
    if column in NORM_TRACE_FIELDS:  # the same empty cell in the trace, which then still matches
        _set_cell(seed_dir / "norm_trace.csv", line, column, NORM_TRACE_FIELDS, "")
    ok, lines = verify_run(seed_dir)
    assert not ok
    failure = f"[FAIL] every row fills its columns: line {line}: empty {column} cell"
    if column == "cumulative_grad_evals":  # the accounting checks fail as well
        assert lines[:2] == clean[:1] + [failure]
    else:
        assert lines == clean[:1] + [failure] + clean[1:]


def test_verify_names_the_first_empty_filled_cell(tmp_path):
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    for line, column in ((30, "epoch"), (21, "wall_clock_seconds"), (21, "train_loss")):
        _set_cell(seed_dir / "metrics.csv", line, column, FIELD_ORDER, "")
    ok, lines = verify_run(seed_dir)
    assert not ok
    assert lines[1] == "[FAIL] every row fills its columns: line 21: empty train_loss cell"
    assert sum(text.startswith("[FAIL]") for text in lines) == 1


# ---------------------------------------------------------------------------
# ais and ratios

def test_compute_ais_examples():
    assert compute_ais(1000, 10, 20) == 500.0
    assert compute_ais(1000, 10, 40) == 250.0
    with pytest.raises(ConfigurationError):
        compute_ais(0, 10, 20)
    with pytest.raises(ConfigurationError):
        compute_ais(10, 10, 0)


def _summary(iterations, grad_evals):
    return RunSummary(iterations=iterations, sampling_number=0, grad_evals=grad_evals,
                      final_train_loss=0.0, ais=1.0, wall_clock_seconds=1.0,
                      d_per_epoch=1, epochs_completed=1.0)


def test_grad_eval_ratio():
    t = 100
    vsam = _summary(t, t + 30)       # 30% sampling
    sam = _summary(t, 2 * t)
    assert grad_eval_ratio(vsam, sam) == 0.65
    assert grad_eval_ratio(sam, sam) == 1.0
    sam5 = _summary(t, 120)
    assert grad_eval_ratio(sam5, sam) == 0.6
    with pytest.raises(ConfigurationError):
        grad_eval_ratio(_summary(100, 100), _summary(99, 100))


# ---------------------------------------------------------------------------
# config parsing

def test_config_round_trip(tmp_path):
    payload = _base_config(tmp_path)
    config = config_from_dict(payload)
    back = config_from_dict(config_to_dict(config))
    assert config_to_dict(back) == config_to_dict(config)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-6, max_value=1e6)
_nonneg = st.floats(min_value=0.0, max_value=1e3)


def _optional(draw, payload, key, strategy):
    if draw(st.booleans()):
        payload[key] = draw(strategy)


@st.composite
def _objective_payloads(draw, kind):
    payload = {"kind": kind}
    if kind == "quadratic":
        dim = draw(st.integers(1, 4))
        upper = {(i, j): draw(_finite) for i in range(dim) for j in range(i, dim)}
        payload["a"] = [[upper[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
        _optional(draw, payload, "b", st.lists(_finite, min_size=dim, max_size=dim))
    elif kind == "rosenbrock":
        _optional(draw, payload, "dim", st.integers(2, 6))
    elif kind == "sharp_flat":
        sharp = draw(_positive)
        payload.update(width_sharp=sharp, width_flat=sharp * 2.0 + draw(_positive),
                       depth_gap=draw(_nonneg), separation=draw(_positive))
    else:
        payload["layer_sizes"] = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4))
        _optional(draw, payload, "activation", st.sampled_from(ACTIVATIONS))
    if kind != "sharp_flat":
        _optional(draw, payload, "weight_decay", _nonneg)
    return payload


@st.composite
def _sampler_payloads(draw, segment_names):
    m_slices = draw(st.integers(2, 6))
    n_window = m_slices * draw(st.integers(1, 20))
    p_max = draw(st.floats(min_value=1.0 / n_window, max_value=1.0))
    payload = {"n_window": n_window, "m_slices": m_slices, "p_max": p_max,
               "s1": draw(st.floats(min_value=1.0, max_value=p_max * n_window))}
    _optional(draw, payload, "alpha", _finite)
    _optional(draw, payload, "i_start", st.integers(0, 10_000))
    _optional(draw, payload, "eps", _positive)
    _optional(draw, payload, "force", st.sampled_from([None, "always", "never"]))
    _optional(draw, payload, "subset_segments", st.one_of(
        st.none(), st.lists(st.sampled_from(segment_names), min_size=1, max_size=4)))
    return payload


@st.composite
def _config_payloads(draw, kind, optimizer):
    objective = draw(_objective_payloads(kind))
    opt = {}
    _optional(draw, opt, "eta0", _positive)
    _optional(draw, opt, "rho", _positive)
    _optional(draw, opt, "gamma", st.floats(min_value=1e-6, max_value=1.0))
    _optional(draw, opt, "momentum", st.floats(min_value=0.0, max_value=0.999))
    _optional(draw, opt, "lr_schedule", st.sampled_from(LR_SCHEDULES))
    _optional(draw, opt, "grad_eval_budget", st.one_of(st.none(), st.integers(1, 10**6)))
    payload = {"objective": objective, "optimizer": optimizer, "optimizer_config": opt,
               "output_dir": draw(st.text(min_size=1, max_size=12))}
    if optimizer == "vsam" or draw(st.booleans()):
        names = [name for name, _, _ in param_segments(config_from_dict(
            {"objective": objective, "optimizer": "sgd", "iterations": 1,
             "output_dir": "x"}).objective)]
        payload["sampler_config"] = draw(_sampler_payloads(names))
    if optimizer == "sam_k" or draw(st.booleans()):
        payload["k"] = draw(st.integers(1, 50))
    if draw(st.booleans()):
        payload["dataset"] = {"kind": draw(st.sampled_from(DATASET_KINDS)),
                              "n": draw(st.integers(2, 10_000)), "seed": draw(st.integers(0, 2**31))}
        _optional(draw, payload["dataset"], "noise", _nonneg)
        payload["batch_size"] = draw(st.integers(1, 512))
    if "dataset" in payload and draw(st.booleans()):
        payload["epochs"] = draw(st.integers(1, 100))
    else:
        payload["iterations"] = draw(st.integers(1, 10**6))
    _optional(draw, payload, "seeds", st.lists(st.integers(0, 2**31), min_size=1, max_size=4))
    if objective["kind"] != "mlp_classifier":
        _optional(draw, payload, "w0", st.lists(_finite, min_size=1, max_size=4))
    return payload


def _assert_keeps_given_values(canonical, payload):
    for key, value in payload.items():
        if isinstance(value, dict):
            _assert_keeps_given_values(canonical[key], value)
        else:
            assert canonical[key] == value, key


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_config_dict_survives_json_round_trip(kind, optimizer, data):
    payload = data.draw(_config_payloads(kind, optimizer))
    canonical = config_to_dict(config_from_dict(payload))
    _assert_keeps_given_values(canonical, payload)
    text = json.dumps(canonical, sort_keys=True)
    assert json.loads(text) == canonical
    again = config_to_dict(config_from_dict(json.loads(text)))
    assert json.dumps(again, sort_keys=True) == text


def test_unknown_keys_rejected(tmp_path):
    payload = _base_config(tmp_path, typo_key=1)
    with pytest.raises(ConfigurationError):
        config_from_dict(payload)
    payload = _base_config(tmp_path)
    payload["optimizer_config"]["learning_rate"] = 0.1
    with pytest.raises(ConfigurationError):
        config_from_dict(payload)
    payload = _base_config(tmp_path)
    payload["objective"]["hidden"] = 4
    with pytest.raises(ConfigurationError):
        config_from_dict(payload)


def test_seeds_default_to_three_seed_fanout(tmp_path):
    payload = _base_config(tmp_path)
    del payload["seeds"]
    assert config_from_dict(payload).seeds == [0, 1, 2]


def test_config_validation_rules(tmp_path):
    with pytest.raises(ConfigurationError):
        config_from_dict(_base_config(tmp_path, seeds=[]))
    with pytest.raises(ConfigurationError):
        config_from_dict(_base_config(tmp_path, iterations=None, epochs=None))
    with pytest.raises(ConfigurationError):
        config_from_dict(_base_config(tmp_path, epochs=5))  # both given
    bad = _base_config(tmp_path, optimizer="sam_k")
    with pytest.raises(ConfigurationError):
        config_from_dict(bad)  # missing k
    bad = _base_config(tmp_path, optimizer="vsam")
    del bad["sampler_config"]
    with pytest.raises(ConfigurationError):
        config_from_dict(bad)
    bad = _base_config(tmp_path, w0=[1.0, 2.0])
    with pytest.raises(ConfigurationError):
        config_from_dict(bad)  # w0 with an mlp objective


@pytest.mark.parametrize("build", [
    lambda: OptimizerConfig(eta0="0.1"),
    lambda: OptimizerConfig(rho=float("nan")),
    lambda: OptimizerConfig(gamma=True),
    lambda: SamplerConfig(n_window=10.0, m_slices=5, s1=5),
    lambda: SamplerConfig(i_start=2.5),
], ids=["eta0_str", "rho_nan", "gamma_bool", "n_window_float", "i_start_float"])
def test_configs_built_in_python_are_type_checked(build):
    with pytest.raises(ConfigurationError, match="must be an integer|must be a finite number"):
        build()


def test_configs_cannot_change_after_they_are_checked():
    # an assignment would skip the checks above, and a sample cap already read would go stale
    cfg = SamplerConfig(n_window=50, m_slices=5, s1=10, p_max=0.8)
    assert cfg.sample_cap == 40
    opt = OptimizerConfig()
    for config, name, value in [(cfg, "p_max", 0.2), (cfg, "m_slices", 3), (opt, "rho", -1.0)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    assert (cfg.p_max, cfg.m_slices, cfg.sample_cap, opt.rho) == (0.8, 5, 40, 0.05)


def test_parsed_config_errors_name_their_section(tmp_path):
    payload = _base_config(tmp_path)
    payload["optimizer_config"]["eta0"] = "0.1"
    with pytest.raises(ConfigurationError,
                       match="^optimizer_config eta0 must be a finite number, not '0.1'$"):
        config_from_dict(payload)
    payload = _base_config(tmp_path)
    payload["sampler_config"]["subset_segments"] = "w"
    with pytest.raises(ConfigurationError,
                       match="^sampler_config subset_segments must be a list, not 'w'$"):
        config_from_dict(payload)


# ---------------------------------------------------------------------------
# run_experiment

def test_run_experiment_layout_and_accounting(tmp_path):
    config = config_from_dict(_base_config(tmp_path))
    out = run_experiment(config)
    assert (out / "config.json").exists()
    assert (out / "aggregate.json").exists()
    for seed in (0, 1, 2):
        seed_dir = out / f"seed_{seed}"
        assert (seed_dir / "metrics.csv").exists()
        assert (seed_dir / "norm_trace.csv").exists()
        assert (seed_dir / "summary.json").exists()
        ok, lines = verify_run(seed_dir)
        assert ok, "\n".join(lines)


def test_run_experiment_forced_sampling_counts_every_iteration(tmp_path):
    # p pinned at 1 (s1 = N, alpha = 0, p_max = 1): every draw fires
    payload = _base_config(tmp_path)
    payload["sampler_config"].update({"p_max": 1.0, "s1": 10, "alpha": 0.0})
    out = run_experiment(config_from_dict(payload))
    with open(out / "seed_0" / "summary.json") as fh:
        summary = RunSummary.from_dict(json.load(fh))
    assert summary.sampling_number == summary.iterations == 40
    assert summary.grad_evals == 80


def test_run_experiment_deterministic_modulo_wall_clock(tmp_path):
    payload = _base_config(tmp_path, seeds=[4])
    out1 = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[4],
                                                        output_dir=str(tmp_path / "a"))))
    out2 = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[4],
                                                        output_dir=str(tmp_path / "b"))))
    recs1 = read_metrics_csv(out1 / "seed_4" / "metrics.csv")
    recs2 = read_metrics_csv(out2 / "seed_4" / "metrics.csv")
    assert len(recs1) == len(recs2)
    for a, b in zip(recs1, recs2):
        for name in FIELD_ORDER:
            if name in WALL_CLOCK_FIELDS:
                continue
            assert getattr(a, name) == getattr(b, name), name
    assert (out1 / "seed_4" / "norm_trace.csv").read_bytes() == \
        (out2 / "seed_4" / "norm_trace.csv").read_bytes()


def test_run_experiment_numeric_failure_leaves_marker(tmp_path):
    payload = _base_config(tmp_path, optimizer="sgd", seeds=[0])
    del payload["sampler_config"]
    payload["objective"] = {"kind": "rosenbrock", "dim": 2}
    del payload["dataset"]
    del payload["batch_size"]
    payload["w0"] = [3.0, -3.0]
    payload["optimizer_config"] = {"eta0": 1e6, "lr_schedule": "constant"}
    out = run_experiment(config_from_dict(payload))
    seed_dir = out / "seed_0"
    assert (seed_dir / "error.json").exists()
    with open(seed_dir / "error.json") as fh:
        marker = json.load(fh)
    assert marker["iteration"] >= 1
    assert (seed_dir / "metrics.csv").exists()  # partial trace flushed
    assert not (seed_dir / "summary.json").exists()


def _quadratic_sam(tmp_path, eta0):
    """A 50-iteration SAM run; eta0 1e200 makes it fail with a NumericError."""
    return config_from_dict({
        "objective": {"kind": "quadratic", "a": [[1.0, 0.0], [0.0, 2.0]]},
        "optimizer": "sam", "optimizer_config": {"eta0": eta0, "lr_schedule": "constant"},
        "iterations": 50, "seeds": [0], "w0": [1.0, 1.0],
        "output_dir": str(tmp_path / "run")})


def test_failing_rerun_leaves_no_file_of_the_earlier_run(tmp_path):
    seed_dir = run_experiment(_quadratic_sam(tmp_path, 0.1)) / "seed_0"
    assert verify_run(seed_dir)[0]
    run_experiment(_quadratic_sam(tmp_path, 1e200))
    assert sorted(p.name for p in seed_dir.iterdir()) == ["error.json", "metrics.csv"]
    # the report finds no summary to show under the new config
    _, rows = compare_report([seed_dir.parent, seed_dir.parent])
    assert rows == []


def test_good_rerun_leaves_no_error_marker(tmp_path):
    seed_dir = run_experiment(_quadratic_sam(tmp_path, 1e200)) / "seed_0"
    assert (seed_dir / "error.json").exists()
    run_experiment(_quadratic_sam(tmp_path, 0.1))
    assert sorted(p.name for p in seed_dir.iterdir()) == [
        "metrics.csv", "norm_trace.csv", "summary.json"]
    ok, lines = verify_run(seed_dir)
    assert ok, "\n".join(lines)


def test_rejected_rerun_keeps_the_earlier_run(tmp_path):
    seed_dir = run_experiment(_quadratic_sam(tmp_path, 0.1)) / "seed_0"
    before = {p.name: p.read_bytes() for p in seed_dir.iterdir()}
    bad = _quadratic_sam(tmp_path, 0.1)
    bad.seeds = [0, 0]
    with pytest.raises(ConfigurationError, match="must not repeat"):
        run_experiment(bad)
    assert {p.name: p.read_bytes() for p in seed_dir.iterdir()} == before


def test_rerun_writes_config_and_aggregate_as_new_files(tmp_path):
    """A rerun removes both run files before writing them; its bytes equal a new run's."""
    out = run_experiment(_quadratic_sam(tmp_path, 0.1))
    earlier = {}
    for name in ("config.json", "aggregate.json"):
        # a second name keeps the earlier file, so a rewrite in place would show through it
        os.link(out / name, tmp_path / name)
        earlier[name] = (out / name).read_bytes()
    run_experiment(_quadratic_sam(tmp_path, 0.1))
    rerun = {name: (out / name).read_text(encoding="utf-8") for name in earlier}
    for name, old in earlier.items():
        assert not os.path.samefile(tmp_path / name, out / name)
        assert (tmp_path / name).read_bytes() == old
    shutil.rmtree(out)
    run_experiment(_quadratic_sam(tmp_path, 0.1))

    def without_wall_clock(text):
        return [line for line in text.splitlines()
                if not any(f'"{name}"' in line for name in WALL_CLOCK_FIELDS)]

    for name, text in rerun.items():
        new = (out / name).read_text(encoding="utf-8")
        assert without_wall_clock(text) == without_wall_clock(new)


def test_output_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SAMLAB_OUTPUT_ROOT", str(tmp_path / "root"))
    payload = _base_config(tmp_path, output_dir="rel/exp", seeds=[0], iterations=12)
    out = run_experiment(config_from_dict(payload))
    assert out == tmp_path / "root" / "rel" / "exp"
    assert (out / "seed_0" / "summary.json").exists()


# ---------------------------------------------------------------------------
# seeds in parallel

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the host and its BLAS threads: a run of two or more seeds
    forks once."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)


def _in_process(monkeypatch, fn):
    """``fn()`` with one usable CPU, so that every seed runs in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_usable_cpus", lambda: 1)
        return fn()


def _threads():
    return len(os.listdir("/proc/self/task"))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _strip_wall_clock(payload):
    if isinstance(payload, dict):
        return {k: _strip_wall_clock(v) for k, v in payload.items()
                if k not in WALL_CLOCK_FIELDS and k != "output_dir"}
    return payload


def _run_tree(out):
    """Every file of a run directory, JSON parsed and CSV split, without wall-clock values."""
    tree = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.suffix == ".json":
            content = _strip_wall_clock(json.loads(path.read_text(encoding="utf-8")))
        else:
            rows = [line.split(",") for line in path.read_text(encoding="ascii").splitlines()]
            keep = [j for j, name in enumerate(rows[0]) if name not in WALL_CLOCK_FIELDS]
            content = [[row[j] for j in keep] for row in rows]
        tree[path.relative_to(out).as_posix()] = content
    return tree


def _record_dispatch(monkeypatch, tmp_path, broken=()):
    """Wrap ``_dispatch`` to leave a file naming each seed's process, and to raise
    ``RuntimeError`` for the seeds in ``broken``."""
    real = harness._dispatch
    (tmp_path / "pids").mkdir()

    def dispatch(config, dataset, iterations, seed):
        (tmp_path / "pids" / str(seed)).write_text(str(os.getpid()), encoding="ascii")
        if seed in broken:
            raise RuntimeError(f"seed {seed} broke")
        return real(config, dataset, iterations, seed)

    monkeypatch.setattr(harness, "_dispatch", dispatch)
    return tmp_path / "pids"


def test_parallel_seeds_write_the_bytes_of_an_in_process_run(tmp_path, monkeypatch, two_cpus):
    pids = _record_dispatch(monkeypatch, tmp_path)
    threads = _threads()
    forked = run_experiment(config_from_dict(_base_config(
        tmp_path, seeds=[2, 0, 1], output_dir=str(tmp_path / "forked"))))
    _assert_no_children()
    assert _threads() <= threads  # the pool's threads are gone, so the next run may fork
    assert len({path.read_text() for path in pids.iterdir()}) == 2
    alone = _in_process(monkeypatch, lambda: run_experiment(config_from_dict(_base_config(
        tmp_path, seeds=[2, 0, 1], output_dir=str(tmp_path / "alone")))))
    tree = _run_tree(forked)
    assert tree == _run_tree(alone)
    assert "aggregate.json" in tree and len(tree) == 2 + 3 * 3
    assert tree["aggregate.json"]["seeds"] == [0, 1, 2]


@pytest.mark.parametrize("broken", [(1, 2), (2,), (0, 1)])
def test_parallel_seeds_raise_the_first_error_of_the_serial_loop(tmp_path, monkeypatch,
                                                                 two_cpus, broken):
    # seeds [0, 2] run in this process and seed 1 in the child: (1, 2) raises the
    # child's error although this process's came too, (2,) this process's alone
    _record_dispatch(monkeypatch, tmp_path, broken)
    errors = []
    for name, run in (("forked", run_experiment),
                      ("alone", lambda config: _in_process(monkeypatch,
                                                           lambda: run_experiment(config)))):
        config = config_from_dict(_base_config(tmp_path, output_dir=str(tmp_path / name)))
        with pytest.raises(RuntimeError) as raised:
            run(config)
        _assert_no_children()
        assert not (tmp_path / name / "aggregate.json").exists()
        errors.append((type(raised.value), str(raised.value)))
        if name == "forked" and broken[0] == 1:  # the child's traceback comes back as a note
            assert 'raise RuntimeError(f"seed {seed} broke")' in raised.value.__notes__[0]
    assert errors[0] == errors[1] == (RuntimeError, f"seed {broken[0]} broke")


def test_parallel_seeds_keep_a_numeric_failure_to_its_seed(tmp_path, monkeypatch, two_cpus):
    real = harness._dispatch

    def dispatch(config, dataset, iterations, seed):
        if seed == 1:
            err = NumericError("injected", iteration=5)
            err.partial_records = real(config, dataset, 5, seed).records
            raise err
        return real(config, dataset, iterations, seed)

    monkeypatch.setattr(harness, "_dispatch", dispatch)
    forked = run_experiment(config_from_dict(_base_config(
        tmp_path, output_dir=str(tmp_path / "forked"))))
    _assert_no_children()
    assert sorted(p.name for p in (forked / "seed_1").iterdir()) == ["error.json", "metrics.csv"]
    assert len(read_metrics_csv(forked / "seed_1" / "metrics.csv")) == 5
    for seed in (0, 2):
        assert verify_run(forked / f"seed_{seed}")[0]
    alone = _in_process(monkeypatch, lambda: run_experiment(config_from_dict(_base_config(
        tmp_path, output_dir=str(tmp_path / "alone")))))
    tree = _run_tree(forked)
    assert tree == _run_tree(alone)
    assert tree["aggregate.json"]["seeds"] == [0, 2]
    assert tree["seed_1/error.json"] == {"error": "injected (iteration 5)", "iteration": 5}


def test_a_child_that_dies_without_its_outcomes_is_named(tmp_path, monkeypatch, two_cpus):
    real, parent = harness._dispatch, os.getpid()

    def dispatch(config, dataset, iterations, seed):
        if os.getpid() != parent:
            os._exit(3)
        return real(config, dataset, iterations, seed)

    monkeypatch.setattr(harness, "_dispatch", dispatch)
    with pytest.raises(RuntimeError, match=r"seeds \[1\] ended without sending their outcomes"):
        run_experiment(config_from_dict(_base_config(tmp_path)))
    _assert_no_children()
    assert not (tmp_path / "run" / "aggregate.json").exists()


def test_an_interrupt_kills_and_reaps_the_children(tmp_path, monkeypatch, two_cpus):
    parent = os.getpid()

    def dispatch(config, dataset, iterations, seed):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_dispatch", dispatch)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config_from_dict(_base_config(tmp_path)))
    _assert_no_children()
    assert time.perf_counter() - start < 30


def test_any_second_thread_keeps_the_seeds_in_process():
    if _threads() > 1:  # this process's BLAS runs a thread pool, on a host of several CPUs
        assert harness._usable_cpus() == 1
    # with BLAS pinned to one thread before numpy loads, a Python thread is the only other
    code = ("import os, threading; from samlab import harness; "
            "alone = harness._usable_cpus(); stop = threading.Event(); "
            "threading.Thread(target=stop.wait).start(); "
            "print(alone, harness._usable_cpus(), len(os.sched_getaffinity(0))); stop.set()")
    pinned = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, **pinned, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    alone, beside_a_thread, usable = map(int, done.stdout.split())
    assert (alone, beside_a_thread) == (usable, 1)


def test_parallel_seeds_flush_no_buffer_of_the_caller(tmp_path):
    # a child that flushed its copy of a block-buffered stdout would print "x" twice
    code = ("import json, sys; from samlab import harness; harness._usable_cpus = lambda: 2; "
            "print('x', end=''); "
            "harness.run_experiment(harness.config_from_dict(json.loads(sys.argv[1])))")
    payload = _base_config(tmp_path, seeds=[0, 1])
    done = subprocess.run([sys.executable, "-c", code, json.dumps(payload)],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"x"
    assert json.loads((tmp_path / "run" / "aggregate.json").read_text())["seeds"] == [0, 1]


# ---------------------------------------------------------------------------
# summaries and verify

def test_summarize_matches_stream(tmp_path):
    config = config_from_dict(_base_config(tmp_path, seeds=[0]))
    out = run_experiment(config)
    records = read_metrics_csv(out / "seed_0" / "metrics.csv")
    with open(out / "seed_0" / "summary.json") as fh:
        stored = RunSummary.from_dict(json.load(fh))
    samples = sum(1 for r in records if r.sampled)
    assert stored.sampling_number == samples
    assert stored.grad_evals == records[-1].cumulative_grad_evals
    assert stored.grad_evals == len(records) + samples
    assert stored.ais == pytest.approx(
        stored.d_per_epoch * stored.epochs_completed / stored.wall_clock_seconds)


def test_verify_detects_tampering(tmp_path):
    config = config_from_dict(_base_config(tmp_path, seeds=[0]))
    out = run_experiment(config)
    seed_dir = out / "seed_0"
    records = read_metrics_csv(seed_dir / "metrics.csv")
    records[-1].cumulative_grad_evals += 1
    write_metrics_csv(seed_dir / "metrics.csv", records)
    ok, lines = verify_run(seed_dir)
    assert not ok
    assert any("FAIL" in line for line in lines)


def test_summarize_empty_rejected():
    with pytest.raises(ConfigurationError):
        summarize([], None, None)


# ---------------------------------------------------------------------------
# comparison report

def test_compare_report_stats_and_columns(tmp_path):
    # two runs with hand-planted summaries: population sigma pinned by hand
    for method, accs in (("sam", [96.5, 96.7, 96.6]), ("sgd", [96.5, 96.7, 96.6])):
        run_dir = tmp_path / method
        run_dir.mkdir()
        with open(run_dir / "config.json", "w") as fh:
            json.dump({"optimizer": method, "seeds": [0, 1, 2]}, fh)
        for seed, acc in enumerate(accs):
            seed_dir = run_dir / f"seed_{seed}"
            seed_dir.mkdir()
            summary = RunSummary(iterations=100, sampling_number=0,
                                 grad_evals=200 if method == "sam" else 100,
                                 final_train_loss=0.1, ais=500.0,
                                 wall_clock_seconds=1.0, d_per_epoch=10,
                                 epochs_completed=10.0, final_eval_accuracy=acc,
                                 final_eval_loss=0.2)
            with open(seed_dir / "summary.json", "w") as fh:
                json.dump(summary.to_dict(), fh)
    text, rows = compare_report([tmp_path / "sam", tmp_path / "sgd"])
    by_method = {r["method"]: r for r in rows}
    assert by_method["sam"]["accuracy_mean"] == pytest.approx(96.6, abs=1e-12)
    assert by_method["sam"]["accuracy_std"] == pytest.approx(0.08164965809277376,
                                                             abs=1e-12)
    assert by_method["sgd"]["grad_evals_vs_ref"] == 0.5
    assert by_method["sam"]["grad_evals_vs_ref"] == 1.0
    assert list(rows[0].keys()) == REPORT_FIELDS
    csv_path = tmp_path / "report.csv"
    write_report_csv(csv_path, rows)
    assert csv_path.read_text().splitlines()[0] == ",".join(REPORT_FIELDS)


def test_write_report_csv_writes_a_new_file(tmp_path):
    # a second name keeps the earlier file, so a rewrite in place would show through it
    path = tmp_path / "report.csv"
    path.write_bytes(b"earlier")
    os.link(path, tmp_path / "earlier")
    write_report_csv(path, [dict(dict.fromkeys(REPORT_FIELDS), method="sgd", n_seeds=1)])
    assert (tmp_path / "earlier").read_bytes() == b"earlier"
    assert path.read_text().splitlines() == [",".join(REPORT_FIELDS), "sgd,1" + "," * 9]


@pytest.mark.parametrize("write", [
    lambda path: write_report_csv(path, [dict(dict.fromkeys(REPORT_FIELDS), method="sgd",
                                              n_seeds=1)]),
    lambda path: save_dataset(generate_dataset("moons", 12, 0.1, seed=4), path),
    lambda path: write_metrics_csv(path, [MetricsRecord(
        iteration=1, epoch=0, train_loss=0.5, l2_sgd=1.0, sampled=False,
        cumulative_grad_evals=1, wall_clock_seconds=0.1)]),
], ids=["report", "dataset", "metrics"])
def test_writers_write_through_a_fifo_and_a_symlink(tmp_path, write):
    # as /dev/stdout, /dev/null and a shell's >(cmd) are: removing them would break the caller
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write(fifo)
        through_fifo = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    link, target = tmp_path / "link", tmp_path / "target"
    target.write_bytes(b"earlier")
    link.symlink_to(target)
    write(link)
    assert link.is_symlink()
    assert target.read_bytes() == through_fifo != b""


def test_compare_report_zero_std_for_identical_runs(tmp_path):
    out_a = run_experiment(config_from_dict(_base_config(
        tmp_path, seeds=[0], output_dir=str(tmp_path / "a"), iterations=15)))
    # one run against itself
    text, rows = compare_report([out_a, out_a])
    assert rows[0]["sampling_std"] == rows[1]["sampling_std"]


def test_compare_report_excludes_incomplete(tmp_path):
    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0],
                                                       output_dir=str(tmp_path / "ok"))))
    broken = tmp_path / "broken"
    broken.mkdir()
    text, rows = compare_report([out, broken])
    assert len(rows) == 1
    assert "WARNING" in text
    with pytest.raises(ConfigurationError):
        compare_report([out])
