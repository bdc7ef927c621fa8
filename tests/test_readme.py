"""README is an index of the code, and these tests keep it one.

Its Layout section has one line per module of ``src/samlab``, naming only
names the module has; every test that it names (``tests/<file>.py::<test>``)
exists; every contract names at least one test; every subcommand of
``samlab`` has its usage line under CLI, and every ``tools/*.py`` its one line.
"""

import argparse
import functools
import importlib
import re
from pathlib import Path

from samlab.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
TEST_REF = re.compile(r"`tests/(\w+\.py)::(\w+)`")


def _section(title):
    """The lines of README's ``## <title>`` section, its subsections included."""
    lines = README.splitlines()
    start = lines.index(f"## {title}") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def _layout_lines():
    """(module, the names the line gives after its last ': ') for each Layout line."""
    found = []
    for line in _section("Layout"):
        match = re.fullmatch(r"- `samlab\.(\w+)`: (.*)", line)
        if match:
            names = match.group(2).rsplit(": ", 1)[-1]
            found.append((match.group(1), re.findall(r"`(\w+)`", names)))
    return found


def test_every_module_has_one_layout_line():
    modules = sorted(path.stem for path in (ROOT / "src" / "samlab").glob("*.py")
                     if path.stem != "__init__")
    assert sorted(module for module, _ in _layout_lines()) == modules


def test_every_name_a_layout_line_gives_is_in_its_module():
    for module, names in _layout_lines():
        assert names, module
        missing = [name for name in names
                   if not hasattr(importlib.import_module(f"samlab.{module}"), name)]
        assert missing == [], module


@functools.cache
def _test_names(file):
    """The module-level test functions of ``tests/<file>``, none if there is no such file."""
    path = ROOT / "tests" / file
    if not path.is_file():
        return set()
    return set(re.findall(r"^def (test_\w+)\(", path.read_text(encoding="utf-8"), re.MULTILINE))


def test_every_test_readme_names_exists():
    refs = TEST_REF.findall(README)
    assert refs
    assert [f"{file}::{name}" for file, name in refs if name not in _test_names(file)] == []


def test_every_contract_names_a_test():
    contracts = "\n".join(_section("Contracts")).split("\n- **")[1:]
    assert contracts
    assert [c.splitlines()[0] for c in contracts if not TEST_REF.search(c)] == []


def test_every_subcommand_has_a_usage_line():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    usage = [re.match(r"samlab (\S+)", line) for line in _section("CLI")]
    assert sorted(m.group(1) for m in usage if m) == sorted(sub.choices)


def test_every_tool_has_one_line():
    tools = sorted(path.name for path in (ROOT / "tools").glob("*.py"))
    lines = [re.match(r"- `tools/(\w+\.py)`: ", line) for line in README.splitlines()]
    assert sorted(m.group(1) for m in lines if m) == tools
