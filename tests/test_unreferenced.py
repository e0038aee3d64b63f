"""Every function, method and constant in the library is used by the library.

A definition that nothing under ``src/`` references, apart from its own body
and the package ``__init__``, serves only the tests and belongs in
``tests/oracles.py``. References are matched by name: a call, a read or an
attribute access of the same name anywhere in the package counts.
"""

import ast
from collections import Counter
from pathlib import Path

import hybrid_teleport

PACKAGE = Path(hybrid_teleport.__file__).resolve().parent

# deliberate entry points that nothing in the package calls
ALLOWED = {
    # the dense unitary; the parity readout never forms it, but the benchmark tracer
    # (benchmarks/tracing.py, SPANNED and CACHED) wraps it by name to count its builds
    "fock.beam_splitter_50_50",
}


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def definitions(tree: ast.Module):
    """(qualified name, node) of module-level functions and constants and of methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield name.id, None


def references(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
                   or isinstance(node, ast.Attribute))


def unreferenced() -> set[str]:
    trees = modules()
    used = sum((references(tree) for tree in trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = references(node)[name] if node is not None else 0
            if used[name] == own:
                found.add(f"{module}.{qualname}")
    return found


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced() - ALLOWED == set()


def test_every_allowed_entry_point_is_still_unreferenced():
    # a name that the package uses again, or that is gone, leaves the list
    assert ALLOWED <= unreferenced()
