"""The library and its tests import only the stdlib and their declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import hybrid_teleport

tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(hybrid_teleport.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent
# the package under test and the test suite's own modules
LOCAL = {"hybrid_teleport", "oracles", "conftest"}


def imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def requirement_names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
            for req in requirements}


def runtime_dependencies() -> set[str]:
    return requirement_names(tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"])


def declared_for_tests() -> set[str]:
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    return runtime_dependencies() | requirement_names(project["optional-dependencies"]["test"])


def test_every_third_party_import_is_a_declared_dependency():
    declared = runtime_dependencies()
    for path in sorted(PACKAGE.glob("*.py")):
        third_party = imported_top_level(path) - set(sys.stdlib_module_names)
        assert third_party <= declared, (path.name, sorted(third_party - declared))


def test_scipy_is_test_only():
    assert "scipy" not in runtime_dependencies()


def test_every_third_party_import_in_the_tests_is_declared():
    declared = declared_for_tests()
    for path in sorted(TESTS.glob("*.py")):
        third_party = imported_top_level(path) - set(sys.stdlib_module_names) - LOCAL
        assert third_party <= declared, (path.name, sorted(third_party - declared))
