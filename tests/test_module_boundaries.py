"""No private name crosses a module boundary inside the package.

A module of src/approxhad imports only public names from its siblings,
and reads a leading-underscore attribute only on self or cls, so each
private name has one module that knows it.  Dunders are public here.

NumPy's private surface is one import in linalg.py: no other module
imports from a NumPy module path with a leading-underscore part.

Every eigenvalue-only solve goes through linalg.gram_eigvalsh: no module
calls NumPy's eigvalsh, eigvals or eig, and eigh, which gives the
eigenvectors, appears only in spectral.py (RitzScreen).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "approxhad"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def crossings(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "approxhad"):
            for alias in node.names:
                if is_private(alias.name):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"
        elif isinstance(node, ast.Attribute) and is_private(node.attr) and not (
                isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
            yield f"{path.name}:{node.lineno} reads .{node.attr}"


def test_no_private_name_crosses_a_module():
    found = [c for path in sorted(PACKAGE.glob("*.py")) for c in crossings(path)]
    assert found == []


def numpy_private_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "numpy" and any(map(is_private, parts)):
                yield f"{path.name} imports {name}"


def test_only_linalg_imports_private_numpy():
    found = [c for path in sorted(PACKAGE.glob("*.py")) for c in numpy_private_imports(path)]
    assert found == ["linalg.py imports numpy.linalg._umath_linalg.eigvalsh_lo"]


EIGENSOLVERS = ("eigvalsh", "eigvals", "eig", "eigh")


def eigensolver_uses(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS
                and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")):
            yield f"{path.name} uses np.linalg.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            for alias in node.names:
                if alias.name in EIGENSOLVERS:
                    yield f"{path.name} uses np.linalg.{alias.name}"


def test_eigenvalues_come_from_one_kernel():
    found = {c for path in sorted(PACKAGE.glob("*.py")) for c in eigensolver_uses(path)}
    assert sorted(found) == ["spectral.py uses np.linalg.eigh"]
