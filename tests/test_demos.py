"""Every narrative script in demos/ runs to completion and uses only the
public API, and no module of the package imports another module's private
name."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted((ROOT / "src" / "sivmdcs").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_no_private_name(demo):
    # a private name a demo needs should be made public instead
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(demo.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "sivmdcs"
               for alias in node.names
               if alias.name.startswith("_")
               or any(part.startswith("_") for part in node.module.split("."))]
    assert private == []


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_imports_no_private_name_of_another(module):
    # a private name another module needs should be made public instead
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(ast.parse(module.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "sivmdcs")
               for alias in node.names
               if alias.name.startswith("_") and alias.name != "__version__"]
    assert private == []
