"""The byte-identity tool stays runnable against the package it ships with."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "run_digests.py"


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

