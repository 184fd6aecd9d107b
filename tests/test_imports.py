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


def _matrix_ord(call):
    """The ord of an np.linalg.norm call, when it names a matrix norm other than Frobenius's."""
    ords = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "ord"]
    return any(not (isinstance(o, ast.Constant) and o.value in (None, "fro")) for o in ords)


def test_every_factorization_is_checked_for_non_finite_values():
    # every np.linalg call is a vector, Frobenius or row norm, or sits directly
    # inside cones.factored, so no verdict rests on a non-finite number; a
    # matrix 2-norm is an SVD that factored would not see.  Eigendecompositions
    # happen only in cones.eig_sym.
    unchecked, eighs = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        # numpy.linalg is reached only as np.linalg.<name>, so the rule sees every use
        unchecked += [path.name + ": " + ast.unparse(node) for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or ast.unparse(node.value) != "np.linalg" or node.attr == "LinAlgError":
                continue
            call = parents[node]
            if not (isinstance(call, ast.Call) and call.func is node):
                unchecked.append("%s:%d %s is read, not called" % (path.name, node.lineno, node.attr))
                continue
            if node.attr == "norm" and not _matrix_ord(call):
                continue
            outer = parents.get(call)
            if not (isinstance(outer, ast.Call) and isinstance(outer.func, ast.Name) and outer.func.id == "factored"):
                unchecked.append("%s:%d %s" % (path.name, node.lineno, node.attr))
            if node.attr == "eigh":
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                eighs.append((path.name, getattr(scope, "name", None)))
    assert unchecked == []
    assert eighs == [("cones.py", "eig_sym")]
    owners = [p.name for p in MODULES if re.search(r"(?m)^def factored\(", p.read_text())]
    assert owners == ["cones.py"]
