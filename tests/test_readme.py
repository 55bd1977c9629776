"""The README must name only API the package still exports and list exactly
the flags each CLI command accepts."""

import ast
import re
from pathlib import Path

import tunneltimes

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    tours = [b for b in blocks if "from tunneltimes import (" in b]
    assert len(tours) == 1, "expected one python block importing tunneltimes"
    return tours[0]


def test_quick_tour_compiles_and_imports_existing_names():
    source = _quick_tour()
    compile(source, "README.md quick tour", "exec")  # syntax only, not run
    imported = [alias.name
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom)
                and node.module == "tunneltimes"
                for alias in node.names]
    assert imported
    missing = [name for name in imported if not hasattr(tunneltimes, name)]
    assert missing == []


def test_command_flag_table_matches_parser(command_flags):
    rows = re.findall(r"^\| `([a-z-]+)[^`]*` \| (.*) \|$", README.read_text(),
                      re.M)
    listed = {command: set(re.findall(r"`(--[a-z0-9-]+)`", flags))
              for command, flags in rows}
    assert len(listed) == len(rows), "a command is listed twice"
    # both ways: every listed flag is accepted, every accepted flag is listed
    assert listed == command_flags
