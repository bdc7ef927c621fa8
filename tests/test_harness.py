import dataclasses
import json
import math
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from samlab.data import DATASET_KINDS
from samlab.diagnostics import NORM_TRACE_FIELDS
from samlab.errors import ConfigurationError
from samlab.harness import (OPTIMIZERS, ExperimentConfig, RunSummary, compare_report,
                            compute_ais, config_from_dict, config_to_dict,
                            run_experiment, summarize, verify_run,
                            write_report_csv, REPORT_FIELDS)
from samlab.metrics import FIELD_ORDER, MetricsRecord, read_metrics_csv, write_metrics_csv
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


# norm-trace edits that still parse: (edit, does the parsed trace still match?)
PARSEABLE = {
    "other value": (lambda seed_dir: _set_cell(seed_dir / "norm_trace.csv", 3, "l2_sgd",
                                               NORM_TRACE_FIELDS, "1.5"), False),
    "same value, other text": (lambda seed_dir: _tamper_line(
        seed_dir / "norm_trace.csv", 3,
        lambda cells: cells[:1] + ["+" + cells[1]] + cells[2:]), True),
    # nan never equals itself, so a parsed nan never matches, even against a nan
    "nan in both files": (lambda seed_dir: [
        _set_cell(seed_dir / name, 3, "l2_psf", header, "nan")
        for name, header in (("metrics.csv", FIELD_ORDER),
                             ("norm_trace.csv", NORM_TRACE_FIELDS))], False),
}


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


@pytest.mark.parametrize("case", PARSEABLE)
def test_verify_norm_trace_verdict_is_the_parsed_comparison(tmp_path, case):
    from samlab.diagnostics import norm_trace, read_norm_trace

    out = run_experiment(config_from_dict(_base_config(tmp_path, seeds=[0])))
    seed_dir = out / "seed_0"
    _, clean = verify_run(seed_dir)
    assert clean[-1] == "[PASS] norm trace matches metrics"
    edit, matches = PARSEABLE[case]
    edit(seed_dir)
    parsed = read_norm_trace(seed_dir / "norm_trace.csv")
    assert (parsed == norm_trace(read_metrics_csv(seed_dir / "metrics.csv"))) is matches
    ok, lines = verify_run(seed_dir)
    assert ok is matches
    assert lines[:-1] == clean[:-1]
    assert lines[-1] == f"[{'PASS' if matches else 'FAIL'}] norm trace matches metrics"


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
            if name == "wall_clock_seconds":
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
                if '"ais"' not in line and '"wall_clock_seconds"' not in line]

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
