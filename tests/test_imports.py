"""The package's imports: every imported name is used, every export exists
once, and the costly dependencies load only on the paths that need them.

The first half parses each module with ``ast`` and lists the names an
``import`` binds that the module never loads.  ``__init__.py`` is skipped:
its imports are the package's re-exports."""

import ast
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = os.path.join(SRC, "restartagd")


def _modules():
    for root in (PACKAGE, HERE):
        for name in sorted(os.listdir(root)):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(root, name)


def unused_imports(source: str):
    """Names bound by an import in ``source`` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    # A string naming a module is not a use of it.
    src = ("import os\nimport sys\nfrom typing import List, Optional\n"
           "x: List[int] = sys.argv\ny = 'os'\n")
    assert unused_imports(src) == [(1, "os"), (3, "Optional")]


@pytest.mark.parametrize("path", list(_modules()), ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, "r", encoding="utf-8") as fh:
        found = unused_imports(fh.read())
    assert found == [], f"{path}: unused imports {found}"


def test_every_export_is_defined_once():
    # A stale entry naming a removed function would otherwise pass unseen.
    import restartagd

    names = restartagd.__all__
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert [name for name in names if not hasattr(restartagd, name)] == []


# Run in a fresh interpreter: this test process has long since imported SciPy
# and PyYAML through other test modules.
LAZY_IMPORTS = r"""
import json, sys
import numpy as np
import restartagd
from restartagd import cli, make_problem

HEAVY = ("scipy.sparse", "yaml", "concurrent.futures")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


for name in ("rosenbrock", "quadratic", "cosine_sum"):
    make_problem(name)
codes = [cli.main(["run", "--max-iterations", "20", "--out", "run"]),
         cli.main(["plot", "run/trace.csv", "--out", "run/trace.svg"]),
         cli.main(["verify", "--samples", "20"])]
plain = loaded()
with open("config.yaml", "w") as fh:
    fh.write("run: {max_iterations: 5}\n")
codes.append(cli.main(["run", "--config", "config.yaml", "--out", "config"]))
configured = loaded()
spec = make_problem("matcomp_synthetic")
finite = bool(np.isfinite(spec.objective.grad_fn(spec.x_init)).all())
print(json.dumps({"codes": codes, "plain": plain, "configured": configured,
                  "completion": loaded(), "finite": finite}))
"""


def test_heavy_dependencies_load_only_where_used(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["codes"] == [0, 0, 0, 0]
    assert seen["plain"] == []
    assert seen["configured"] == ["yaml"]
    assert "scipy.sparse" in seen["completion"]  # SciPy itself loads concurrent.futures
    assert seen["finite"]
