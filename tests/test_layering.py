"""The package's modules import only from layers below their own."""

import ast
from pathlib import Path

import stabletau

LAYERS = ["errors", "geom", "quad", "closedform", "wos", "extension", "analysis", "cli"]


def _relative_imports(path):
    """Modules of the package named by relative imports anywhere in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_imports_follow_layer_order():
    pkg = Path(stabletau.__file__).parent
    assert sorted(p.stem for p in pkg.glob("*.py")) == sorted(LAYERS + ["__init__"])
    bad = []
    for name in LAYERS:
        for target in _relative_imports(pkg / f"{name}.py"):
            if LAYERS.index(target) >= LAYERS.index(name):
                bad.append(f"{name} -> {target}")
    assert bad == []


def test_cross_layer_names_are_the_definitions():
    # bench/layers.py times the layers by rebinding each of these names at
    # both sites, and its traced run fails if the two ever differ
    from stabletau import analysis, closedform, extension, quad

    assert extension.kernel_K_hess_components is closedform.kernel_K_hess_components
    assert analysis.eval_hessian is extension.eval_hessian
    assert extension.integrate is quad.integrate
