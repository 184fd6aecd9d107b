"""Import hygiene of the library modules, read from their syntax trees."""

import ast
from pathlib import Path

import coneguard

MODULES = sorted(p for p in Path(coneguard.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imports(tree):
    """(bound name, imported name, from a coneguard module) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, False
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            ours = node.level > 0 or (node.module or "").split(".")[0] == "coneguard"
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, ours


def test_modules_read_every_import_and_no_private_name_of_another_module():
    assert MODULES
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for bound, name, ours in _imports(tree):
            if bound not in read:
                found.append("%s: %s is imported and never read" % (path.name, bound))
            if ours and name.startswith("_"):
                found.append("%s: imports the private name %s" % (path.name, name))
    assert found == []
