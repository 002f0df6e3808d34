"""No private name crosses a module boundary inside the package.

A module of src/approxhad imports only public names from its siblings,
and reads a leading-underscore attribute only on self or cls, so each
private name has one module that knows it.  Dunders are public here.
The scripts in scripts/ keep to the package's public names too, and
every name in a module's __all__ is defined in that module.

NumPy's private surface is one import in linalg.py: no other module
imports from a NumPy module path with a leading-underscore part.

Every eigenvalue-only solve goes through linalg.gram_eigvalsh: no module
calls NumPy's eigvalsh, eigvals or eig, and eigh, which gives the
eigenvectors, appears only in spectral.py (RitzScreen).

spectral.py names no structure class: each class builds its screen next
to its bit layout in search.py, so no string constant in spectral.py,
docstrings apart, is a StructureClass kind.

Every public top-level function, class and constant of the package has a
job: another part of src/ reads it, a script in scripts/ uses it, or
approxhad/__init__.py exports it.  Every private one is read in its own
module, outside its own definition: a constant kept only for tests to
patch has no reader.
"""

import ast
import importlib
from pathlib import Path

from approxhad.search import StructureClass

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


SCRIPTS = PACKAGE.parent.parent / "scripts"


def test_no_private_name_crosses_a_module():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    found = [c for path in paths for c in crossings(path)]
    assert found == []


def test_every_exported_name_resolves():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"approxhad.{path.stem}".removesuffix(".__init__"))
        stale += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []


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


def docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def test_spectral_names_no_structure_class():
    path = PACKAGE / "spectral.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = {id(node) for node in docstrings(tree)}
    found = [f"spectral.py:{node.lineno} names {node.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and id(node) not in skip
             and node.value in StructureClass._KINDS]
    assert found == []


def definitions(tree):
    """(name, node) for each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def loads(tree, skip=None):
    """The names that tree reads, as a name or an attribute, outside the
    subtree skip."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_job():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    exported = set(imported_names(trees.pop("__init__.py")))
    used_by_scripts = set()
    for path in sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used_by_scripts |= set(loads(tree)) | set(imported_names(tree))
    reads = {module: set(loads(tree)) for module, tree in trees.items()}
    idle = []
    for module, tree in trees.items():
        elsewhere = set().union(*(r for m, r in reads.items() if m != module))
        for name, node in definitions(tree):
            if (name.startswith("_") or name in exported or name in used_by_scripts
                    or name in elsewhere):
                continue
            if name not in set(loads(tree, skip=node)):
                idle.append(f"{module[:-3]}.{name}")
    assert idle == []


def test_every_private_name_has_a_reader():
    idle = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in definitions(tree):
            if is_private(name) and name not in set(loads(tree, skip=node)):
                idle.append(f"{path.stem}.{name}")
    assert idle == []
