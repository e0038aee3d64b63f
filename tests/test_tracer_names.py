"""Every library name the benchmark tracer looks up still exists.

``benchmarks/tracing.py`` wraps functions by (module, name) when
``benchmarks/run.py --trace 1`` installs its spans, and ``run.py`` counts the
c->p pipeline calls the same way. A name the library drops would fail only
there; this reads the names from both files with ``ast``, without importing
them, and resolves each in its ``hybrid_teleport`` module. The tracer also
counts the rows of every CSV by the length of the writer's third argument; the
last test checks that this count is the number of data lines written.
"""

import ast
import importlib
from pathlib import Path

import pytest

from hybrid_teleport import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def assigned(tree: ast.Module) -> dict:
    """Module-level constants, by name, of the assignments whose value is a literal."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return out


def counted(tree: ast.Module) -> list[tuple[str, str]]:
    """The (module, name) arguments of every ``count_calls`` call."""
    return [tuple(ast.literal_eval(arg) for arg in node.args)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (getattr(node.func, "attr", None) == "count_calls"
                                               or getattr(node.func, "id", None) == "count_calls")]


TRACING = assigned(ast.parse((BENCHMARKS / "tracing.py").read_text()))
COUNTED = counted(ast.parse((BENCHMARKS / "run.py").read_text()))


def test_run_counts_the_c_to_p_pipeline():
    # the verify-full workload reports this count, and its battery pins it
    assert ("teleport", "teleport_c_to_p") in COUNTED


@pytest.mark.parametrize("module, name", dict.fromkeys([
    *TRACING["SPANNED"], TRACING["ROW_WRITER"], tuple(TRACING["CACHED"].split(".")), *COUNTED]))
def test_every_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"hybrid_teleport.{module}"), name))


@pytest.mark.parametrize("module", TRACING["MODULES"])
def test_every_traced_module_imports(module):
    importlib.import_module(f"hybrid_teleport.{module}")


@pytest.mark.parametrize("argv", [
    ("average", "--direction", "all", "--alpha", "0.5,2", "--r-steps", "7"),
    ("figure", "fig2", "--r-steps", "5"),
    ("negativity", "--engine", "both", "--r-steps", "4"),
], ids=["average", "figure-panels", "negativity"])
def test_counted_rows_are_the_data_lines_written(argv, monkeypatch, tmp_path):
    # the tracer counts a CSV's rows as len(rows) of its writer's third argument, as
    # Tracer.count_rows does, and reports their sum as cli.rows_written
    writer, counted = cli._write_csv, {}

    def count_rows(path, header, rows):
        counted[path] = len(rows)
        return writer(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", count_rows)
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    written = {path: len(path.read_text().splitlines()) - 1 for path in tmp_path.glob("*.csv")}
    assert counted == written and all(written.values())
