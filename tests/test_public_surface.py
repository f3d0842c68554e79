"""The public surface holds no dead names.

Every module of the package is read with ``ast``: no module imports a name
it never uses, and every name in ``noiseamp.__all__`` is used somewhere in
the package outside its own definition, unless the allowlist below says
why a test or the benchmark needs it anyway.
"""

import ast
import inspect
from pathlib import Path

import noiseamp

SRC = Path(noiseamp.__file__).resolve().parent

# Public names that no package code uses, each with the reason it stays.
UNUSED_BUT_KEPT = {
    "assemble_lmi": "certificate tests check it; left to a rewrite of lmi",
    "propagate_covariance": "the recursion ensembles are checked against",
    "torus_eigenvalues": "the full-lattice reference of the torus modes",
    "variance_via_eigenvalues": "tests and bench/checks.py compare J to it",
    "variance_via_lyapunov": "tests and bench/checks.py compare J to it",
}


def _modules():
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))]


def _names(node):
    """Names read in ``node``: each Name, and each attribute's name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_all_lists_no_submodule():
    assert [n for n in noiseamp.__all__
            if inspect.ismodule(getattr(noiseamp, n))] == []


def test_no_module_imports_a_name_it_never_uses():
    dead = []
    for name, tree in _modules():
        used = set(_names(tree))
        if name == "__init__.py":  # its imports are the exports
            used |= set(noiseamp.__all__)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                dead += [f"{name}:{node.lineno} {alias.name}"
                         for alias in node.names
                         if (alias.asname or alias.name.split(".")[0])
                         not in used]
    assert dead == []


def test_every_public_name_is_used_or_kept_for_a_reason():
    used = set()
    for _, tree in _modules():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)  # a def or class
            used |= {n for n in _names(stmt) if n != own}
    unused = sorted(set(noiseamp.__all__) - used)
    assert unused == sorted(UNUSED_BUT_KEPT)
