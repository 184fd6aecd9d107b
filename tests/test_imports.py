"""Import hygiene of the library modules, read from their syntax trees."""

import ast
import re
from pathlib import Path

import coneguard

MODULES = sorted(p for p in Path(coneguard.__file__).parent.glob("*.py") if p.name != "__init__.py")
STEMS = {p.stem for p in MODULES}


def _imports(tree):
    """(bound name, imported name, from a coneguard module) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, alias.name.split(".")[0] == "coneguard"
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
        attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        for bound, name, ours in _imports(tree):
            if bound not in read:
                found.append("%s: %s is imported and never read" % (path.name, bound))
            if ours and name.startswith("_"):
                found.append("%s: imports the private name %s" % (path.name, name))
            if ours and name.split(".")[-1] in STEMS:  # a coneguard module, read as bound.attr
                for node in attributes:
                    if isinstance(node.value, ast.Name) and node.value.id == bound and node.attr.startswith("_"):
                        found.append("%s: reads the private name %s.%s" % (path.name, bound, node.attr))
    assert found == []


def test_one_module_owns_each_numerical_convention():
    # the number literal (expr.literal), the block adjoint (cones.adjoint)
    # and the activity tolerance are each written down in one module, and
    # no module spells a block Jacobian's adjoint as .jac.T @
    owners = {r"\.17g": "expr.py", r"axes=\(\[1, 2\], \[0, 1\]\)": "cones.py", r"(?m)^TOL_ACT\s*=": "cones.py"}
    for pattern, owner in owners.items():
        assert [p.name for p in MODULES if re.search(pattern, p.read_text())] == [owner], pattern
    assert [p.name for p in MODULES if re.search(r"\.jac\.T\s*@", p.read_text())] == []


def test_every_factorization_is_checked_for_non_finite_values():
    # an SVD, least-squares or pseudo-inverse result passes through
    # certificates.factored, and eigendecompositions go through cones.eig_sym,
    # so no verdict rests on a non-finite number
    unchecked, eighs = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or node.attr not in ("svd", "lstsq", "pinv", "eigh"):
                continue
            if node.attr == "eigh":
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                eighs.append((path.name, getattr(scope, "name", None)))
                continue
            call = parents[node]
            outer = parents.get(call)
            if not (isinstance(outer, ast.Call) and isinstance(outer.func, ast.Name) and outer.func.id == "factored"):
                unchecked.append("%s:%d %s" % (path.name, node.lineno, node.attr))
    assert unchecked == []
    assert eighs == [("cones.py", "eig_sym")]
