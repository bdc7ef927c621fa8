import json
import math

import numpy as np
import pytest

from samlab.errors import ConfigurationError
from samlab.harness import (ExperimentConfig, RunSummary, compare_report,
                            compute_ais, config_from_dict, config_to_dict,
                            grad_eval_ratio, run_experiment, summarize, verify_run,
                            write_report_csv, REPORT_FIELDS)
from samlab.metrics import FIELD_ORDER, MetricsRecord, read_metrics_csv, write_metrics_csv


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
        tmp_path, seeds=[0, 0], output_dir=str(tmp_path / "a"), iterations=15)))
    # duplicate seeds collapse: use one run against itself instead
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
