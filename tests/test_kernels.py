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
    args = ["simulate", "--vx", "0.8", "--duration", "1"]
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


_TRANSCENDENTALS = {"cosh", "sinh", "exp", "expm1", "log"}


def test_the_simulator_calls_no_numpy_transcendental():
    """_kernels.py and sim.py take cosh, sinh, exp, expm1 and log from libm
    through math, never from numpy's ufuncs. numpy dispatches those to
    SIMD loops chosen for the host CPU (on AVX-512 hosts, SVML-style
    kernels) that may differ from libm in the last bit: with numpy 2.4.6
    on an AVX-512 x86-64 host, np.cosh and np.sinh differed from math.cosh
    and math.sinh by one ulp on 18-27 % of 200,000 uniform draws in [0, 2]
    and in [0, 20]. A trajectory from them would depend on the CPU it ran
    on, and so would every pinned output."""
    package = Path(liprint.__file__).resolve().parent
    calls = []
    for name in ("_kernels.py", "sim.py"):
        tree = ast.parse((package / name).read_text())
        aliases = {"numpy"} | {a.asname or a.name for node in ast.walk(tree)
                               if isinstance(node, ast.Import)
                               for a in node.names if a.name == "numpy"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in _TRANSCENDENTALS
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                calls.append(f"{name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                calls += [f"{name}:{node.lineno} from numpy import {a.name}"
                          for a in node.names if a.name in _TRANSCENDENTALS]
    assert calls == []
