"""The repository's tools stay runnable against the package they ship with."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "run_digests.py"
COST_MODEL = ROOT / "tools" / "cost_model.py"
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _digests(tmp_path, name, case):
    out = tmp_path / name
    subprocess.run([sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--out", str(out),
                    "--case", case], check=True, capture_output=True, cwd=tmp_path, timeout=300)
    return json.loads(out.read_text(encoding="utf-8"))


def test_run_digests_one_small_case_is_repeatable(tmp_path):
    first = _digests(tmp_path, "a.json", "budget_vsam_51")
    assert list(first) == ["budget_vsam_51"]
    assert re.fullmatch(r"[0-9a-f]{64}", first["budget_vsam_51"])
    # a second run differs only in wall-clock data, which the digest leaves out
    assert _digests(tmp_path, "b.json", "budget_vsam_51") == first


def test_run_digests_damaged_case_names_no_temporary_path(tmp_path):
    # verify's report on a damaged copy names the file it read; the digest
    # replaces the copy's temporary directory, so two runs agree
    first = _digests(tmp_path, "a.json", "damaged_metrics_non_ascii")
    assert _digests(tmp_path, "b.json", "damaged_metrics_non_ascii") == first


def test_run_digests_in_memory_moons_case_builds_only_itself(tmp_path):
    digests = _digests(tmp_path, "a.json", "moons_vsam_in_memory_layer1W")
    assert list(digests) == ["moons_vsam_in_memory_layer1W"]
    assert re.fullmatch(r"[0-9a-f]{64}", digests["moons_vsam_in_memory_layer1W"])


def test_cost_model_fits_both_tasks(tmp_path):
    out = tmp_path / "fit.json"
    done = subprocess.run([sys.executable, str(COST_MODEL), "--src", str(ROOT / "src"),
                           "--repeats", "1", "--out", str(out)],
                          check=True, capture_output=True, text=True, cwd=tmp_path,
                          timeout=300)
    fits = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(fits) == ["basin", "moons"]
    for name, row in fits.items():
        assert sorted(row) == ["E_us", "F_us", "S_us", "S_us_quartiles", "rounds",
                               "vsam_over_sam_evals", "vsam_over_sam_wall"]
        assert row["rounds"] == 1
        assert row["E_us"] > 0 and row["vsam_over_sam_wall"] > 0
        # evaluation counts are exact, so their ratio does not depend on the host
        assert 0.5 < row["vsam_over_sam_evals"] < 1.0
        assert re.search(rf"^{name} .* S +-?[0-9.]+ us/iter", done.stdout, re.M)


def _tracer_list(name):
    """A module-level literal of the benchmark tracer, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_benchmark_tracer_targets_exist():
    # the traced benchmark wraps these names where samlab looks them up;
    # a name that moves or disappears would break `perfbench/run.py --trace 1`
    spans = _tracer_list("SPAN_TARGETS")
    counts = _tracer_list("COUNT_TARGETS")
    assert spans and counts
    for module_name, attr, _ in spans:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"
    for module_name, cls_name, method, _ in counts:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert callable(getattr(cls, method, None)), f"{module_name}.{cls_name}.{method}"


def test_benchmark_workloads_read_existing_attributes():
    # the workloads read these module attributes of samlab (the basin set-up clears
    # objectives._RIDGE_CACHE, for one); a name that moves or disappears would make
    # every pass of that workload fail. Read without executing the workloads.
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: importlib.import_module(f"samlab.{alias.name}")
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "samlab" for alias in node.names}
    assert sorted(modules) == ["data", "harness", "metrics", "objectives", "optim", "params",
                               "sampler"]
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert ("objectives", "_RIDGE_CACHE") in reads
    for module_name, attr in sorted(reads):
        assert hasattr(modules[module_name], attr), f"samlab.{module_name}.{attr}"


def _ab_bench():
    loaded = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(loaded)
    loaded.loader.exec_module(module)
    return module


def test_ab_bench_statistics_on_synthetic_pairs():
    ab = _ab_bench()
    assert ab.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [b - 2.0 for b in base]
    change[3] = 13.5  # the one pair the change loses
    row = ab.compare(base, change, "lower", 0.25)
    assert row["pairs"] == 10 and row["wins"] == 9
    assert row["base_median"] == 12.0 and row["base_quartiles"] == [11.0, 13.0]
    assert row["change_median"] == 10.0 and row["change_quartiles"] == [9.0, 11.75]
    assert row["gap"] == 2.0 and row["base_iqr"] == 2.0 and row["gap_over_base_iqr"] == 1.0
    assert row["change_rel"] == pytest.approx(-1.0 / 6.0)
    # the gap must exceed the base's IQR, not merely equal it
    assert not row["claim_holds"]
    assert row["worse_by"] == pytest.approx(-1.0 / 6.0) and row["within_bound"]
    row = ab.compare(base, [c - 0.5 for c in change], "lower", 0.25)
    assert row["claim_holds"] and row["gap"] == 2.5
    # for a metric where higher is better the same numbers are a loss
    row = ab.compare(base, change, "higher", 0.1)
    assert row["wins"] == 1 and row["gap"] == -2.0 and not row["claim_holds"]
    assert row["worse_by"] == pytest.approx(1.0 / 6.0) and not row["within_bound"]
    # equal numbers win nothing and have no IQR to compare against
    row = ab.compare([0.875] * 4, [0.875] * 4, "lower", 0.1)
    assert row["wins"] == 0 and row["gap"] == 0.0 and row["gap_over_base_iqr"] is None
    assert row["within_bound"] and not row["claim_holds"]


def test_ab_bench_alternates_sides_and_reads_a_run():
    ab = _ab_bench()
    assert [ab.pair_order(i) for i in range(3)] == [("base", "change"), ("change", "base"),
                                                   ("base", "change")]
    stdout = ('# basin_sweep seed=0 trace=0: 20 untraced / 0 traced passes\n'
              '# context {"platform": {"cpu_features": "abc"}, "seed": 0}\n'
              '{"correct": true, "attempted": 3, "failed": 0, '
              '"metrics": {"wall_s": {"value": 0.3, "unit": "s"}}}\n')
    result, context = ab.parse_run(stdout)
    assert result["metrics"]["wall_s"]["value"] == 0.3 and result["correct"]
    assert context["platform"] == {"cpu_features": "abc"}
    assert ab.parse_run_spec("basin_sweep:1:3") == ("basin_sweep", 1, 3)


def test_ab_bench_runs_both_sides_from_source(tmp_path, monkeypatch):
    # a compiled cache in one tree only would lower that side's setup_s, which
    # includes `import samlab`: such a tree is refused, and no run writes one
    ab = _ab_bench()
    package = tmp_path / "src" / "samlab"
    package.mkdir(parents=True)
    assert ab.check_tree(tmp_path) == tmp_path
    (package / "__pycache__").mkdir()
    with pytest.raises(SystemExit, match="__pycache__"):
        ab.check_tree(tmp_path)

    seen = []

    def fake_run(command, **kwargs):
        seen.append(kwargs["env"])
        return subprocess.CompletedProcess(
            command, 0, '{"correct": true, "failed": 0, "metrics": {}}\n', "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert ab.bench_once(tmp_path, "run_audit", 0) == ({}, True, 0, None, None)
    assert seen[0]["PYTHONDONTWRITEBYTECODE"] == "1"


def test_ab_bench_records_the_base_as_a_full_hash(tmp_path, monkeypatch):
    # `--base HEAD` written as given would name the change itself once it is committed
    ab = _ab_bench()
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_text('{"end_to_end": []}\n', encoding="utf-8")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
           "-c", "commit.gpgsign=false"]
    for command in (["init", "-q"], ["add", "BENCHMARK.json"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + command, cwd=repo, check=True, capture_output=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "run_pairs", lambda *args: {"metrics": {}})
    monkeypatch.setattr(ab, "digests", lambda *args: {"cases": 0, "identical": True})
    assert ab.main(["--base", "HEAD", "--label", "t", "--work", str(tmp_path / "work"),
                    "--run", "run_audit:0:1"]) == 0
    record = json.loads((repo / "BENCH_t.json").read_text(encoding="utf-8"))
    base = record["base"]
    assert re.fullmatch("[0-9a-f]{40}", base) and base == head
    assert record["affinity"] == len(os.sched_getaffinity(0))
    with pytest.raises(SystemExit, match="names no commit"):
        ab.resolve("no-such-revision")


def test_the_session_temp_directory_is_the_one_chosen_at_configure(request, tmp_path):
    # tests/conftest.py sets --basetemp before _pytest.tmpdir builds its factory from it;
    # set after, it would be ignored and tmp_path would lie in pytest's default directory
    basetemp = request.config.option.basetemp
    if basetemp is None:  # the conftest found no writable /dev/shm, and none was given
        assert not os.access("/dev/shm", os.W_OK)
    else:
        assert tmp_path.resolve().is_relative_to(Path(basetemp).resolve())


def test_a_killed_sessions_temp_directory_is_removed_by_the_next(tmp_path):
    import conftest

    ended = subprocess.Popen([sys.executable, "-c", "pass"])
    ended.wait()
    root = tmp_path / "root"
    for name in (f"{ended.pid}-abc", f"{os.getppid()}-def", f"{os.getpid()}-ghi", "notes"):
        (root / name / "sub").mkdir(parents=True)
    conftest.remove_stale(root)
    assert sorted(p.name for p in root.iterdir()) == sorted(
        [f"{os.getppid()}-def", f"{os.getpid()}-ghi", "notes"])
