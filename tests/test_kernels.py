"""The kernels have one backend, pure numpy/Python, and never import numba.

Each child process gets a stub `numba` package first on its PYTHONPATH whose
import raises RuntimeError, so any attempt to import numba fails loudly
instead of quietly picking another code path. And every kernel is used by
the package itself: one that nothing in src/liprint refers to is dead code.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liprint
from liprint.cli import main

_SRC = str(Path(liprint.__file__).resolve().parents[1])

_PROBE = ("import sys, liprint; "
          "assert liprint.NUMBA_ENABLED is False; "
          "assert 'numba' not in sys.modules; "
          "print('ok')")


@pytest.fixture
def numba_stub(tmp_path):
    pkg = tmp_path / "stub" / "numba"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        'raise RuntimeError("liprint must not import numba")\n')
    return str(pkg.parent)


def _child_env(stub=None):
    """This process's environment with src/ (after the stub, if given) first
    on PYTHONPATH."""
    env = dict(os.environ)
    path = [stub] if stub else []
    env["PYTHONPATH"] = os.pathsep.join(path + [_SRC] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _run_cli_in_subprocess(args, env):
    cmd = [sys.executable, "-m", "liprint.cli"] + args
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def test_liprint_never_imports_numba(numba_stub):
    out = subprocess.run([sys.executable, "-c", _PROBE], env=_child_env(numba_stub),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_child_with_numba_stub_writes_in_process_bytes(numba_stub, tmp_path):
    args = ["simulate", "--vx", "1.0", "--duration", "2",
            "--terrain", "gap:0.15:0.8:0.4", "--replan", "every-tick"]
    inproc = tmp_path / "inproc.csv"
    sub = tmp_path / "sub.csv"
    assert main(args + ["--out", str(inproc)]) == 0
    r = _run_cli_in_subprocess(args + ["--out", str(sub)], _child_env(numba_stub))
    assert r.returncode == 0, r.stderr
    assert sub.read_bytes() == inproc.read_bytes()
    assert len(inproc.read_text().splitlines()) == 201
    sub_events = tmp_path / "sub.events.json"
    inproc_events = tmp_path / "inproc.events.json"
    assert sub_events.read_bytes() == inproc_events.read_bytes()


def test_in_process_run_matches_subprocess_bytes(tmp_path):
    args = ["simulate", "--vx", "0.8", "--duration", "1", "--seed", "4"]
    inproc = tmp_path / "inproc.csv"
    sub = tmp_path / "sub.csv"
    assert main(args + ["--out", str(inproc)]) == 0
    r = _run_cli_in_subprocess(args + ["--out", str(sub)], _child_env())
    assert r.returncode == 0, r.stderr
    assert inproc.read_bytes() == sub.read_bytes()


def _names(nodes):
    """Every name the syntax trees `nodes` refer to: variables, attributes
    and imported names."""
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.alias):
                yield n.name


def test_every_kernel_is_referenced_in_the_package():
    package = Path(liprint.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    kernels = [node for node in trees["_kernels.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(kernels) > 10
    unused = []
    for kernel in kernels:
        # a kernel's own body does not count as a use of it
        nodes = [node for tree in trees.values()
                 for node in tree.body if node is not kernel]
        if kernel.name not in _names(nodes):
            unused.append(kernel.name)
    assert unused == []
