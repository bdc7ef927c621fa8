import dataclasses
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from samlab import harness
from samlab.cli import main
from samlab.harness import OUTPUT_ROOT_ENV
from samlab.data import load_dataset
from samlab.errors import ConfigurationError
from samlab.objectives import make_quadratic
from samlab.optim import OptimizerConfig, run_vsam
from samlab.sampler import SamplerConfig


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


SMALL_SECTIONS = {
    "objective": {"kind": "mlp_classifier", "layer_sizes": [2, 5, 2]},
    "dataset": {"kind": "blobs", "n": 48, "noise": 0.3, "seed": 1},
    "optimizer_config": {"eta0": 0.1, "rho": 0.05, "gamma": 0.9},
    "sampler_config": {"n_window": 8, "m_slices": 2, "s1": 4, "i_start": 8},
}


def _small_config(tmp_path):
    return {
        **json.loads(json.dumps(SMALL_SECTIONS)),
        "optimizer": "vsam",
        "iterations": 24,
        "batch_size": 12,
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }


def _section(name, **changes):
    """A change to one section of the small config."""
    return {name: dict(SMALL_SECTIONS[name], **changes)}


# a quadratic objective in place of the MLP and its dataset
_QUADRATIC = {"objective": {"kind": "quadratic", "a": [[1.0, 0.0], [0.0, 2.0]]},
              "dataset": None, "batch_size": None}


def test_gen_data_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "ds.shrpds"
    code = main(["gen-data", "moons", "--n", "30", "--noise", "0.1",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    ds = load_dataset(out)
    assert ds.n == 30 and ds.kind == "moons"
    assert "sha256" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["--noise", "nan"], "noise must be a finite number >= 0, not nan"),
    (["--noise", "inf"], "noise must be a finite number >= 0, not inf"),
    (["--noise", "-0.1"], "noise must be a finite number >= 0, not -0.1"),
    (["--seed", "-1"], "seed must be an integer >= 0, not -1"),
])
def test_gen_data_rejects_what_a_config_rejects(tmp_path, capsys, args, message):
    # the config path's number rule: exit 2, and no file
    out = tmp_path / "ds.shrpds"
    assert main(["gen-data", "moons", "--n", "6", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_run_verify_report_cycle(tmp_path, capsys):
    config = _small_config(tmp_path)
    path = _write_config(tmp_path, config)
    assert main(["run", str(path)]) == 0

    assert main(["verify", str(tmp_path / "out" / "seed_0")]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out

    # a whole run directory verifies every seed
    assert main(["verify", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "== seed_0" in out and "== seed_1" in out

    # second run of another optimizer for the comparison table
    config2 = dict(config, optimizer="sam", output_dir=str(tmp_path / "out_sam"))
    del config2["sampler_config"]
    path2 = _write_config(tmp_path, config2)
    assert main(["run", str(path2)]) == 0
    csv_out = tmp_path / "report.csv"
    assert main(["report", str(tmp_path / "out"), str(tmp_path / "out_sam"),
                 "--csv", str(csv_out)]) == 0
    assert csv_out.exists()
    table = capsys.readouterr().out
    assert "vsam" in table and "sam" in table


def test_verify_fails_on_tampered_run(tmp_path, capsys):
    path = _write_config(tmp_path, _small_config(tmp_path))
    assert main(["run", str(path)]) == 0
    metrics = tmp_path / "out" / "seed_0" / "metrics.csv"
    lines = metrics.read_text().splitlines()
    # flip the sampled flag on the last row to break the accounting
    cells = lines[-1].split(",")
    sampled_idx = lines[0].split(",").index("sampled")
    cells[sampled_idx] = "0" if cells[sampled_idx] == "1" else "1"
    lines[-1] = ",".join(cells)
    metrics.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(tmp_path / "out" / "seed_0")]) == 1


def test_verify_reports_an_empty_grad_evals_cell(tmp_path, capsys):
    path = _write_config(tmp_path, _small_config(tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    metrics = tmp_path / "out" / "seed_0" / "metrics.csv"
    lines = metrics.read_bytes().split(b"\r\n")
    column = lines[0].split(b",").index(b"cumulative_grad_evals")
    cells = lines[2].split(b",")
    cells[column] = b""
    lines[2] = b",".join(cells)
    metrics.write_bytes(b"\r\n".join(lines))
    assert main(["verify", str(tmp_path / "out" / "seed_0")]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] cumulative grad evals non-decreasing" in captured.out.splitlines()
    assert captured.err == ""


def test_verify_reports_unreadable_norm_trace(tmp_path, capsys):
    path = _write_config(tmp_path, _small_config(tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    trace = tmp_path / "out" / "seed_0" / "norm_trace.csv"
    trace.write_bytes(b"iteration,bogus\r\n" + trace.read_bytes().partition(b"\r\n")[2])
    assert main(["verify", str(tmp_path / "out" / "seed_0")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[PASS] metrics schema header"
    assert out[-1].startswith("[FAIL] norm trace readable: unexpected CSV header")
    assert all(line.startswith("[PASS]") for line in out[:-1])


@pytest.mark.parametrize("damage", ["truncate", "extra_key", "missing_key"])
def test_verify_reports_unreadable_summary(tmp_path, capsys, damage):
    path = _write_config(tmp_path, _small_config(tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    summary = tmp_path / "out" / "seed_0" / "summary.json"
    if damage == "truncate":
        summary.write_text(summary.read_text()[:40])
    else:
        payload = json.loads(summary.read_text())
        if damage == "extra_key":
            payload["bogus"] = 1
        else:
            del payload["ais"]
        summary.write_text(json.dumps(payload))
    assert main(["verify", str(tmp_path / "out" / "seed_0")]) == 1
    out = capsys.readouterr().out.splitlines()
    failed = [line for line in out if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] summary readable: ")
    assert out[-1] == "[PASS] norm trace matches metrics"


def test_report_excludes_run_with_unreadable_summary(tmp_path, capsys):
    config = _small_config(tmp_path)
    assert main(["run", str(_write_config(tmp_path, config))]) == 0
    config_sam = dict(config, optimizer="sam", output_dir=str(tmp_path / "out_sam"))
    del config_sam["sampler_config"]
    assert main(["run", str(_write_config(tmp_path, config_sam))]) == 0
    summary = tmp_path / "out" / "seed_1" / "summary.json"
    summary.write_text(json.dumps(dict(json.loads(summary.read_text()), bogus=1)))
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out"), str(tmp_path / "out_sam")]) == 0
    out = capsys.readouterr().out
    assert f"WARNING: excluded incomplete run {tmp_path / 'out'}: unknown keys" in out
    assert "vsam" not in out and "sam" in out


def test_report_excludes_a_sam_run_whose_summary_counts_no_evaluations(tmp_path, capsys):
    # the evals/sam column divides by the sam run's mean gradient evaluations, here 0
    config = _small_config(tmp_path)
    assert main(["run", str(_write_config(tmp_path, config))]) == 0
    config_sam = dict(config, optimizer="sam", output_dir=str(tmp_path / "out_sam"))
    del config_sam["sampler_config"]
    assert main(["run", str(_write_config(tmp_path, config_sam))]) == 0
    for summary in (tmp_path / "out_sam").glob("seed_*/summary.json"):
        summary.write_text(json.dumps(dict(json.loads(summary.read_text()), grad_evals=0)))
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out"), str(tmp_path / "out_sam")]) == 0
    out = capsys.readouterr().out
    assert (f"WARNING: excluded incomplete run {tmp_path / 'out_sam'}: run summary grad_evals "
            "must be an integer >= 1, not 0") in out
    assert "vsam" in out and "\nsam\t" not in out


@pytest.mark.parametrize("key, value, failure", [
    ("wall_clock_seconds", 0, "[FAIL] summary AIS consistent with D*E/T: "
                              "AIS inputs must all be positive"),
    ("d_per_epoch", "36", "[FAIL] summary readable: "
                          "run summary d_per_epoch must be an integer >= 1, not '36'"),
    ("final_train_loss", True, "[FAIL] summary readable: "
                               "run summary final_train_loss must be a finite number, not True"),
    ("grad_evals", 0, "[FAIL] summary readable: "
                      "run summary grad_evals must be an integer >= 1, not 0"),
    ("iterations", 0, "[FAIL] summary readable: "
                      "run summary iterations must be an integer >= 1, not 0"),
    ("d_per_epoch", 0, "[FAIL] summary readable: "
                       "run summary d_per_epoch must be an integer >= 1, not 0"),
    ("sampling_number", -1, "[FAIL] summary readable: "
                            "run summary sampling_number must be an integer >= 0, not -1"),
])
def test_verify_reports_bad_summary_values(tmp_path, capsys, key, value, failure):
    path = _write_config(tmp_path, _small_config(tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    summary = tmp_path / "out" / "seed_0" / "summary.json"
    summary.write_text(json.dumps(dict(json.loads(summary.read_text()), **{key: value})))
    assert main(["verify", str(tmp_path / "out" / "seed_0")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("[FAIL]")] == [failure]
    assert out[-1] == "[PASS] norm trace matches metrics"


@pytest.mark.parametrize("key, value, reason", [
    # the config is read as `samlab run` reads it: without seeds, it means seeds [0, 1, 2]
    pytest.param("seeds", None, "[Errno 2] No such file or directory: "
                                "'{out}/seed_2/summary.json'", id="seeds"),
    pytest.param("optimizer", None, "missing keys in config: ['optimizer']", id="optimizer"),
    pytest.param("seeds", [], "seeds must be a non-empty list, not []", id="no_seeds"),
])
def test_report_excludes_run_with_incomplete_config(tmp_path, capsys, key, value, reason):
    config = _small_config(tmp_path)
    assert main(["run", str(_write_config(tmp_path, config))]) == 0
    config_sam = dict(config, optimizer="sam", output_dir=str(tmp_path / "out_sam"))
    del config_sam["sampler_config"]
    assert main(["run", str(_write_config(tmp_path, config_sam))]) == 0
    run_config = tmp_path / "out" / "config.json"
    payload = json.loads(run_config.read_text())
    if value is None:  # the key is missing
        del payload[key]
    else:
        payload[key] = value
    run_config.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out"), str(tmp_path / "out_sam")]) == 0
    out = capsys.readouterr().out
    reason = reason.format(out=tmp_path / "out")
    assert f"WARNING: excluded incomplete run {tmp_path / 'out'}: {reason}" in out
    assert "vsam" not in out and "sam" in out


def test_check_bounds_command(capsys):
    assert main(["check-bounds", "--cases", "50", "--max-dim", "5"]) == 0
    out = capsys.readouterr().out
    assert "bound holds" in out


def test_check_bounds_has_no_dimension_cap(capsys):
    assert main(["check-bounds", "--cases", "4", "--min-dim", "65", "--max-dim", "100"]) == 0
    assert "bound holds" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--cases", "0"],
    ["--min-dim", "5", "--max-dim", "2"],
    ["--min-dim", "0", "--max-dim", "0"],
    ["--rho", "-0.1"],
    ["--rho", "0"],
    ["--rho", "nan"],
    ["--seed", "-1"],
])
def test_check_bounds_rejects_bad_input(capsys, args):
    assert main(["check-bounds", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "VIOLATION" not in captured.out and "bound holds" not in captured.out


def test_invalid_config_is_reported(tmp_path, capsys):
    config = _small_config(tmp_path)
    config["unknown_key"] = True
    path = _write_config(tmp_path, config)
    assert main(["run", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"sampler_config": {"n_window": 8, "m_slices": 2, "s1": 4, "i_start": 8,
                        "subset_segments": ["W0"]}},
    {"batch_size": 39},  # the 48-example dataset leaves 38 for training
    {"sampler_config": {"n_window": 8, "m_slices": 2, "s1": 4, "i_start": 8,
                        "subset_segments": []}},
    # integer fields of the wrong type or range; None drops the key
    {"seeds": ["a"]}, {"seeds": [0.5]}, {"seeds": [True]}, {"seeds": [-1]}, {"seeds": 3},
    {"iterations": 2.5}, {"iterations": "5"},
    {"iterations": None, "epochs": 1.5}, {"batch_size": 12.0},
    {"optimizer": "sam_k", "k": 1.5}, {"optimizer": "sam_k", "k": True},
    # runs that could not all run
    pytest.param({"seeds": [0, 0]}, id="repeated_seeds"),
    pytest.param(dict(_QUADRATIC, w0=[1.0]), id="w0_length"),
    pytest.param(dict(_QUADRATIC, w0=["a", 1.0]), id="w0_not_numeric"),
    pytest.param(_section("sampler_config", i_start=0), id="vsam_without_warmup"),
    # at a zero gradient the norm ratio divided by max(0.0, eps): a ZeroDivisionError
    # after config.json and seed_0/ had been written
    pytest.param({**_QUADRATIC, "w0": [0.0, 0.0], **_section("sampler_config", eps=0.0)},
                 id="eps_0"),
    # numbers: an integer takes an int, a real a finite int or float, and bool is neither
    *[pytest.param(_section(section, **{key: value}), id=f"{key}_{value}".replace(" ", ""))
      for section, key, value in [
          ("optimizer_config", "eta0", "0.1"), ("optimizer_config", "momentum", None),
          ("optimizer_config", "rho", float("nan")),
          ("optimizer_config", "eta0", float("inf")), ("optimizer_config", "gamma", True),
          ("optimizer_config", "grad_eval_budget", 2.5),
          ("sampler_config", "n_window", "10"), ("sampler_config", "n_window", 10.0),
          ("sampler_config", "i_start", 2.5), ("sampler_config", "alpha", "x"),
          ("sampler_config", "subset_segments", "w"),
          ("dataset", "n", "100"), ("dataset", "seed", 1.5),
          ("dataset", "noise", float("nan")),
          ("objective", "layer_sizes", [2, 16.5, 2]), ("objective", "weight_decay", "x"),
      ]],
    pytest.param({**_QUADRATIC, "objective": {"kind": "rosenbrock", "dim": 2.5}},
                 id="dim_2.5"),
    pytest.param({**_QUADRATIC, "objective": {"kind": "quadratic", "a": "x"}}, id="a_x"),
    # a ragged matrix raised numpy's ValueError
    pytest.param({**_QUADRATIC, "objective": {"kind": "quadratic", "a": [[1.0, 0.0], [0.0]]}},
                 id="a_ragged"),
    # 5 raised TypeError in resolve_output_dir; "" wrote the run into the working directory
    pytest.param({"output_dir": 5}, id="output_dir_5"),
    pytest.param({"output_dir": ""}, id="output_dir_empty"),
    # MLPs that do not fit the 2-feature, 2-class dataset, or have none: the kernel raised
    # at the first evaluation, after config.json and seed_0/ had been written
    pytest.param(_section("objective", layer_sizes=[3, 4, 2]), id="mlp_input_width"),
    pytest.param(_section("objective", layer_sizes=[2, 4, 1]), id="mlp_output_width"),
    pytest.param({"dataset": None, "batch_size": None}, id="mlp_without_dataset"),
])
def test_run_rejects_unrunnable_config_before_writing(tmp_path, capsys, monkeypatch, change):
    # exit 2 is a SamlabError
    config = {key: value for key, value in dict(_small_config(tmp_path), **change).items()
              if value is not None}
    path = _write_config(tmp_path, config)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not any(cwd.iterdir())


VSAM_WARMUP_MESSAGE = "vsam needs i_start >= 1 or force 'always' to fill the correction cache"


def test_the_vsam_warmup_rule_has_one_message(tmp_path, capsys, monkeypatch):
    sampler = dict(SMALL_SECTIONS["sampler_config"], i_start=0)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(VSAM_WARMUP_MESSAGE)}$"):
        run_vsam(make_quadratic([[1.0]]), None, OptimizerConfig(), SamplerConfig(**sampler),
                 10, 0)
    path = _write_config(tmp_path, dict(_small_config(tmp_path), sampler_config=sampler))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {VSAM_WARMUP_MESSAGE}\n"
    assert not (tmp_path / "out").exists()
    assert not any(cwd.iterdir())


# the small config's leaves by the key that holds them: these are reals, these strings, the
# rest integers
_REAL_KEYS = {"noise", "eta0", "rho", "gamma", "s1"}
_STR_KEYS = {"kind", "optimizer", "output_dir"}
_NOT_A_NUMBER = [st.booleans(), st.none(), st.lists(st.integers(0, 3), max_size=2)]
_WRONG_VALUES = {
    int: st.one_of(st.text(max_size=3), *_NOT_A_NUMBER,
                   st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())),
    float: st.one_of(st.text(max_size=3), *_NOT_A_NUMBER,
                     st.sampled_from([math.nan, math.inf, -math.inf])),
    str: st.one_of(*_NOT_A_NUMBER, st.integers(), st.floats()),
}


def _leaves(value, path=()):
    """(path, type) of every number or string inside ``value``'s dicts and lists."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for key, item in items for leaf in _leaves(item, path + (key,))]
    key = [part for part in path if isinstance(part, str)][-1]
    return [(path, float if key in _REAL_KEYS else str if key in _STR_KEYS else int)]


@st.composite
def _mutated_small_configs(draw, config):
    """``config`` with one leaf replaced by a value of a wrong type."""
    path, kind = draw(st.sampled_from(_leaves(config)))
    mutated = json.loads(json.dumps(config))
    holder = mutated
    for part in path[:-1]:
        holder = holder[part]
    holder[path[-1]] = draw(_WRONG_VALUES[kind])
    return mutated


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_rejects_a_config_with_one_leaf_of_a_wrong_type(tmp_path, data):
    # every example writes the same config path and may not make tmp_path / "out"
    config = data.draw(_mutated_small_configs(_small_config(tmp_path)))
    assert main(["run", str(_write_config(tmp_path, config))]) == 2
    assert not (tmp_path / "out").exists()


def _out_of_range(section, key, value, message):
    return pytest.param(section, key, value, message, id=f"{section or 'top'}-{key}-{value}")


@pytest.mark.parametrize("section, key, value, message", [
    _out_of_range("dataset", "n", 1, "dataset n must be an integer >= 2, not 1"),
    _out_of_range("dataset", "noise", -1, "dataset noise must be a finite number >= 0, not -1"),
    _out_of_range("dataset", "seed", -1, "dataset seed must be an integer >= 0, not -1"),
    _out_of_range("sampler_config", "p_max", 1.5, "sampler_config p_max must be in (0, 1]"),
    _out_of_range("sampler_config", "m_slices", 16,
                  "sampler_config window length must be divisible by the slice count"),
    _out_of_range("sampler_config", "eps", 0, "sampler_config eps must be positive"),
    _out_of_range("sampler_config", "i_start", -1, "sampler_config i_start must be nonnegative"),
    _out_of_range("sampler_config", "s1", 0, "sampler_config s1 must lie in [1, p_max * N]"),
    _out_of_range("sampler_config", "i_start", 0,
                  "vsam needs i_start >= 1 or force 'always' to fill the correction cache"),
    _out_of_range("sampler_config", "n_window", 0,
                  "sampler_config n_window must be an integer >= 1, not 0"),
    _out_of_range("sampler_config", "n_window", -10,
                  "sampler_config n_window must be an integer >= 1, not -10"),
    _out_of_range("sampler_config", "alpha", -5,
                  "sampler_config alpha must be a finite number >= 0, not -5"),
    _out_of_range("optimizer_config", "gamma", 0, "optimizer_config gamma must be in (0, 1]"),
    _out_of_range("optimizer_config", "gamma", 1.5, "optimizer_config gamma must be in (0, 1]"),
    _out_of_range("optimizer_config", "momentum", 1,
                  "optimizer_config momentum must be in [0, 1)"),
    _out_of_range("optimizer_config", "rho", 0, "optimizer_config rho must be positive"),
    _out_of_range("optimizer_config", "eta0", 0, "optimizer_config eta0 must be positive"),
    _out_of_range("optimizer_config", "grad_eval_budget", 0,
                  "optimizer_config grad_eval_budget must be at least 1"),
    _out_of_range(None, "batch_size", 0, "batch_size must be an integer >= 1, not 0"),
    _out_of_range(None, "batch_size", 39,  # 48 rows: 38 train, 10 held out
                  "batch_size must be in [1, 38] (the training split), got 39"),
    _out_of_range(None, "iterations", 0, "iterations must be an integer >= 1, not 0"),
    _out_of_range(None, "seeds", [-1], "each seed must be an integer >= 0, not -1"),
    _out_of_range(None, "seeds", [0, 0], "seeds must not repeat, got [0, 0]"),
    _out_of_range("objective", "layer_sizes", [2, 0, 2],
                  "objective layer_sizes must be an integer >= 1, not 0"),
    _out_of_range("objective", "layer_sizes", [3, 4, 2], "batch has 2 features, mlp expects 3"),
    _out_of_range("objective", "layer_sizes", [2, 4, 1],
                  "batch targets out of range for the mlp output layer"),
    _out_of_range("objective", "weight_decay", -1,
                  "objective weight_decay must be a finite number >= 0, not -1"),
])
def test_run_rejects_an_out_of_range_value_before_writing(tmp_path, capsys, section, key, value,
                                                          message):
    config = _small_config(tmp_path)
    (config if section is None else config[section])[key] = value
    assert main(["run", str(_write_config(tmp_path, config))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [2, 3])
def test_an_mlp_run_needs_a_held_out_row(tmp_path, capsys, n):
    # the 20% held-out split of 2 rows rounds to none: the first held-out evaluation
    # raised "batch is empty" after config.json and seed_0/ had been written
    config = dict(_small_config(tmp_path), batch_size=2,
                  dataset={"kind": "moons", "n": n, "noise": 0.1, "seed": 0})
    path = _write_config(tmp_path, config)
    if n == 2:
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == ("error: the held-out split of a dataset of n 2 has "
                                           "0 rows; an mlp_classifier needs at least one\n")
        assert not (tmp_path / "out").exists()
    else:
        assert main(["run", str(path)]) == 0
        assert main(["verify", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("section", ["objective", "optimizer_config", "sampler_config",
                                     "dataset"])
@pytest.mark.parametrize("value", [5, "ab", "pairs"])
def test_run_rejects_config_sections_that_are_not_objects(tmp_path, capsys, section, value):
    # dict() took a list of key-value pairs, and raised TypeError on 5 and ValueError on "ab"
    if value == "pairs":
        value = [list(item) for item in SMALL_SECTIONS[section].items()]
    path = _write_config(tmp_path, dict(_small_config(tmp_path), **{section: value}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {section} must be a JSON object, not {value!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", [5, "ab", [["optimizer", "sgd"]]])
def test_run_rejects_a_config_that_is_not_an_object(tmp_path, capsys, payload):
    path = _write_config(tmp_path, payload)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config must be a JSON object, not {payload!r}\n"


@pytest.mark.parametrize("content, reason", [
    pytest.param(None, "cannot read config {path}: No such file or directory", id="missing"),
    pytest.param("dir", "cannot read config {path}: Is a directory", id="directory"),
    pytest.param(b"{bad", "config {path} is not UTF-8 JSON: Expecting property name enclosed "
                          "in double quotes: line 1 column 2 (char 1)", id="not_json"),
    pytest.param(b"\xff\xfe", "config {path} is not UTF-8 JSON: 'utf-8' codec can't decode "
                             "byte 0xff in position 0: invalid start byte", id="not_utf8"),
])
def test_run_rejects_a_config_file_it_cannot_read(tmp_path, capsys, monkeypatch, content,
                                                  reason):
    # each raised FileNotFoundError, IsADirectoryError, JSONDecodeError or UnicodeDecodeError
    path = tmp_path / "config.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {reason.format(path=path)}\n"
    assert not any(cwd.iterdir())


@pytest.mark.parametrize("args", [
    pytest.param(["gen-data", "moons", "--n", "10", "--out"], id="gen-data"),
    # the report over two directories without runs is a table of warnings, and still written
    pytest.param(["report", "{tmp}/a", "{tmp}/b", "--csv"], id="report"),
])
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, args):
    # each raised FileNotFoundError
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    out = tmp_path / "missing" / "out"
    assert main([arg.format(tmp=tmp_path) for arg in args] + [str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_verify_of_a_path_that_is_not_a_directory_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("x", encoding="ascii")
    for path in (tmp_path / "missing", tmp_path / "file"):
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path} is not a directory\n")
    # a directory without metrics.csv is a seed directory that fails its first check
    (tmp_path / "empty").mkdir()
    assert main(["verify", str(tmp_path / "empty")]) == 1
    assert capsys.readouterr().out.startswith("[FAIL] metrics schema header: ")


def test_report_of_a_path_that_is_not_a_directory_exits_2(tmp_path, capsys):
    run, missing = tmp_path / "run", tmp_path / "missing"
    run.mkdir()
    assert main(["report", str(run), str(missing)]) == 2
    assert capsys.readouterr() == ("", f"error: {missing} is not a directory\n")
    # a directory without a finished run is a warning row
    assert main(["report", str(run), str(run)]) == 0
    assert f"WARNING: excluded incomplete run {run}: " in capsys.readouterr().out


def test_selfcheck_command(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


SELFCHECK_LINES = [
    *(f"[PASS] {name} seed_{seed} verifies"
      for name in ("sgd", "sam", "sam_k", "vsam") for seed in (0, 1)),
    "[PASS] sharp_flat_vsam seed_0 verifies",
    "[PASS] vsam reruns identically outside the wall-clock fields",
]


def test_selfcheck_prints_one_line_per_seed_directory(capsys):
    assert main(["selfcheck"]) == 0
    assert capsys.readouterr().out.splitlines() == SELFCHECK_LINES


def test_selfcheck_fails_on_a_run_that_does_not_verify(capsys, monkeypatch):
    original = harness.summarize

    def miscounted(*args):
        summary = original(*args)
        return dataclasses.replace(summary, iterations=summary.iterations + 1)

    monkeypatch.setattr(harness, "summarize", miscounted)
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("[FAIL] sgd seed_0 verifies")
    assert "    [FAIL] summary iterations" in out[at + 1:out.index("[FAIL] sgd seed_1 verifies")]
    assert not any(line.startswith("[PASS]") and "seed_" in line for line in out)


def test_selfcheck_fails_on_a_run_that_crashes(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_sam", crash)
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "[FAIL] sam (boom)" in out and "[PASS] sgd seed_0 verifies" in out
    assert "    RuntimeError: boom" in out  # the traceback's last line


def test_selfcheck_writes_only_to_a_temporary_directory(tmp_path, capsys, monkeypatch):
    root, cwd = tmp_path / "root", tmp_path / "cwd"
    root.mkdir()
    cwd.mkdir()
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
    monkeypatch.chdir(cwd)
    assert main(["selfcheck"]) == 0
    assert capsys.readouterr().out.splitlines() == SELFCHECK_LINES
    assert list(root.iterdir()) == [] and list(cwd.iterdir()) == []
