"""gral runs on the standard library alone: no import of a third-party module,
and no declared dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gral").glob("*.py"))


def test_every_import_is_relative_or_stdlib():
    assert len(SOURCES) > 5
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    # Read as text: tomllib is not in Python 3.10.
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project is not None
    assert re.findall(r"^dependencies\s*=.*$", project.group(1), re.M) == ["dependencies = []"]
