import json

import pytest

from samlab.cli import main
from samlab.data import load_dataset


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _small_config(tmp_path):
    return {
        "objective": {"kind": "mlp_classifier", "layer_sizes": [2, 5, 2]},
        "dataset": {"kind": "blobs", "n": 48, "noise": 0.3, "seed": 1},
        "optimizer": "vsam",
        "optimizer_config": {"eta0": 0.1, "rho": 0.05, "gamma": 0.9},
        "sampler_config": {"n_window": 8, "m_slices": 2, "s1": 4, "i_start": 8},
        "iterations": 24,
        "batch_size": 12,
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }


def test_gen_data_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "ds.shrpds"
    code = main(["gen-data", "moons", "--n", "30", "--noise", "0.1",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    ds = load_dataset(out)
    assert ds.n == 30 and ds.kind == "moons"
    assert "sha256" in capsys.readouterr().out


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


def test_check_bounds_command(capsys):
    assert main(["check-bounds", "--cases", "50", "--max-dim", "5"]) == 0
    out = capsys.readouterr().out
    assert "bound holds" in out


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
])
def test_run_rejects_unrunnable_config_before_writing(tmp_path, capsys, change):
    config = dict(_small_config(tmp_path), **change)
    path = _write_config(tmp_path, config)
    assert main(["run", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_selfcheck_command(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
