"""Only the CLI touches files: every other reachkit module returns text or data."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reachkit"
FILE_CALLS = {"open", "write_text", "write_bytes", "mkdir", "unlink"}
LIBRARY = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "cli.py")


def file_calls(source: str) -> list:
    """(line, name) of every call in source to open or a file-writing method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append((node.lineno, name))
    return sorted(found)


def test_checker_finds_every_kind_of_call():
    source = ("with open(p, 'w', newline='') as fh:\n    fh.write(t)\n"
              "p.write_text(t)\np.write_bytes(b)\np.parent.mkdir()\np.unlink()\n")
    assert file_calls(source) == [(1, "open"), (3, "write_text"), (4, "write_bytes"),
                                  (5, "mkdir"), (6, "unlink")]


@pytest.mark.parametrize("module", LIBRARY)
def test_library_module_touches_no_file(module):
    assert file_calls((PACKAGE / module).read_text()) == []
