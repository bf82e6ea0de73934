"""No flowsr module imports a name it never uses, save the few listed here.

``perfbench/spans.py`` wraps functions where the *calling* module binds
them, so a name it traces stays bound in that module after the module stops
calling it.  Those bindings are listed in ``ALLOWED`` with their reason; any
other unused import is dead code.  ``__init__`` only re-exports, so it is
not scanned.  And importing ``flowsr.cli`` leaves ``scipy.linalg`` out, which
only the dense oracle's solve imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flowsr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# (module, name) -> why the module binds a name it does not use
ALLOWED = {
    ("solver", "apply_SH"): "perfbench traces it as solver.diag, and its tracer "
    "test deletes the binding to check that a missing call site reads 0",
    ("cli", "ideal_lowpass_spectrum"): "perfbench traces it as spectral.kernel; "
    "the CLI builds kernels through DegradationConfig.kernel_spectrum",
    ("cli", "gaussian_spectrum"): "perfbench traces it as spectral.kernel; "
    "the CLI builds kernels through DegradationConfig.kernel_spectrum",
    ("cli", "degrade_dataset"): "perfbench traces it as degrade.dataset, and its tracer "
    "test requires the binding; the CLI acquires through Acquisition's two passes",
}


def unused_imports(path: Path) -> set[str]:
    """Names ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):  # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_modules_found():
    assert {"cli", "solver", "volume"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = {name for name in unused_imports(path) if (path.stem, name) not in ALLOWED}
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_each_allowed_name_is_bound_and_unused(module, name):
    # an entry goes once its module reads the name or stops importing it
    assert name in unused_imports(PACKAGE / f"{module}.py")


def test_scipy_linalg_is_imported_only_by_the_dense_solve():
    # every command imports flowsr.cli; only the oracle's dense solve needs scipy.linalg
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent),
                                                         os.environ.get("PYTHONPATH", "")])}
    code = "import sys, flowsr.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
