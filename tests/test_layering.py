"""The package's modules import only from layers below their own."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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


def _unused_imports(path):
    """Names a module imports and never reads (`__future__` imports aside)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - read


def test_no_unused_imports():
    # __init__ imports its names to re-export them
    pkg = Path(stabletau.__file__).parent
    unused = {p.stem: sorted(_unused_imports(p)) for p in sorted(pkg.glob("*.py"))
              if p.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


# The private attributes of SupportDomain and ConeDomain that other modules
# read, by module.  A new read across the layer line fails the test below
# until it is added here on purpose.
DOMAIN_PRIVATE_READS = {
    "wos": {"_signed_distance_foot"},  # bench/ traces and probes this name
    "quad": {"_disk_radius", "_hermite"},
    "analysis": {"_disk_radius", "_lattice"},
    "cli": {"_disk_radius"},
}


def _domain_private_names(geom_tree):
    """The private names the two domain classes define: methods and self._x stores."""
    names = set()
    for cls in geom_tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in ("SupportDomain", "ConeDomain"):
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_domain_private_reads_are_the_allowlist():
    pkg = Path(stabletau.__file__).parent
    private = _domain_private_names(ast.parse((pkg / "geom.py").read_text()))
    assert {"_signed_distance_foot", "_disk_radius", "_hermite", "_lattice"} <= private
    reads = {}
    for path in sorted(pkg.glob("*.py")):
        if path.stem != "geom":
            found = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and node.attr in private}
            if found:
                reads[path.stem] = found
    assert reads == DOMAIN_PRIVATE_READS


def test_cross_layer_names_are_the_definitions():
    # bench/layers.py times the layers by rebinding each of these names at
    # both sites, and its traced run fails if the two ever differ
    from stabletau import analysis, closedform, extension, quad

    assert extension.kernel_K_hess_components is closedform.kernel_K_hess_components
    assert analysis.eval_hessian is extension.eval_hessian
    assert extension.integrate is quad.integrate


def _bench_tracer():
    """The benchmark's tracer (bench/layers.py) set up on this package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(layers)
    from stabletau import analysis, closedform, extension, geom, quad, wos

    return layers.Tracer(SimpleNamespace(analysis=analysis, closedform=closedform,
                                         extension=extension, geom=geom, quad=quad, wos=wos))


def test_traced_names_exist():
    # the traced benchmark run rebinds each of these owner/name pairs and
    # fails if one is gone or an alias no longer holds the definition
    sites = _bench_tracer()._sites
    assert {name for name, *_ in sites} >= {"foot", "cone_dist", "run_batch", "values_at",
                                            "eval_cell", "estimate_phi"}
    for name, ((owner, attr), *aliases), *_ in sites:
        fn = getattr(owner, attr, None)
        assert callable(fn), (name, owner, attr)
        for alias_owner, alias_attr in aliases:
            assert getattr(alias_owner, alias_attr, None) is fn, (name, alias_owner, alias_attr)


@pytest.mark.parametrize("workload", ["disk_walks", "ellipse_field_build", "disk_hessian_scan"])
def test_untraced_smoke_run(workload):
    # the benchmark exits 1 on an exception in a round, a failed setup child
    # or a failed check, so a change to an API it uses shows here first
    bench = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    proc = subprocess.run([sys.executable, str(bench), "--workload", workload,
                           "--size", "smoke", "--seconds", "0.5", "--trace", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout


def test_traced_field_scan_smoke_run():
    # the tracer's wrappers fire on the field reads and the traced run still
    # passes its oracle checks
    bench = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    proc = subprocess.run([sys.executable, str(bench), "--workload", "ellipse_field_scan",
                           "--size", "smoke", "--seconds", "0.5", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    metrics = result["metrics"]
    assert metrics["field.values_at_points"]["value"] > 0, metrics
    assert metrics["field.stderr_at_points"]["value"] > 0, metrics
