import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def pyproject() -> dict:
    """pyproject.toml, parsed."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)


def declared_dependencies() -> set[str]:
    """The distribution names in pyproject.toml's runtime `dependencies`."""
    project = pyproject()["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in project["dependencies"]}


def imported_modules(path: Path) -> set[str]:
    """The top-level module of every absolute import in a file, nested ones too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_src_imports_only_stdlib_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | {"slowtrack"} | declared_dependencies()
    sources = sorted((ROOT / "src" / "slowtrack").glob("*.py"))
    assert sources
    undeclared = {
        path.name: sorted(imported_modules(path) - allowed) for path in sources
    }
    assert {name: mods for name, mods in undeclared.items() if mods} == {}
    assert declared_dependencies() == {"numpy"}


def test_version_is_declared_once_in_the_package():
    # model files stamp the version from slowtrack._version, so the
    # distribution takes it from there too
    config = pyproject()
    assert "version" not in config["project"] and config["project"]["dynamic"] == ["version"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "slowtrack._version.__version__"}
