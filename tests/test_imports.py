"""A run imports only what it uses: neither ``numpy.ma`` (pulled in by
``np.isin``/``np.unique``) nor the sweep's process pool; no module
imports a name it never reads, and no function takes a parameter it never
reads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
from asymreplay import cli, stream
assert cli.main(["run", "--num-classes", "4", "--samples-per-class", "20",
                 "--hidden-sizes", "8", "--eval-every", "2"]) == 0
stream.calibrate_variance_scale(np.array([6, 6, 6]), 3, 1.5)
print(sorted(m for m in ("numpy.ma", "concurrent.futures") if m in sys.modules))
"""


def test_run_and_calibration_import_neither_numpy_ma_nor_the_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _unused_imports(path: Path):
    """``file:line name`` of each name ``path`` imports and never reads;
    ``from __future__`` and lines marked ``# noqa`` are exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if (name != "*" and name not in read
                    and "# noqa" not in lines[alias.lineno - 1]):
                yield f"{path.relative_to(SRC.parent)}:{alias.lineno} {name}"


def test_no_module_imports_a_name_it_never_reads():
    unused = [u for d in ("src", "tests", "demos")
              for path in sorted((SRC.parent / d).rglob("*.py"))
              for u in _unused_imports(path)]
    assert unused == []


def _unread_parameters(path: Path):
    """``file:line function(name)`` of each parameter ``path``'s functions
    never read; ``self``, ``cls``, ``*args``, ``**kwargs`` and parameters on
    lines marked ``# noqa`` are exempt."""
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text, str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        a = node.args
        for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
            if (arg.arg not in ("self", "cls") and arg.arg not in read
                    and "# noqa" not in lines[arg.lineno - 1]):
                yield (f"{path.relative_to(SRC.parent)}:{arg.lineno} "
                       f"{node.name}({arg.arg})")


def test_no_function_takes_a_parameter_it_never_reads():
    unread = [u for path in sorted(SRC.rglob("*.py"))
              for u in _unread_parameters(path)]
    assert unread == []
