"""The repository's tools stay runnable against the package they ship with."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "run_digests.py"
COST_MODEL = ROOT / "tools" / "cost_model.py"
TRACER = ROOT / "perfbench" / "tracer.py"


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
