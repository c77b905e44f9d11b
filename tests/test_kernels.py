"""The kernels have one backend, pure numpy/Python, and never import numba.

Each child process gets a stub `numba` package first on its PYTHONPATH whose
import raises RuntimeError, so any attempt to import numba fails loudly
instead of quietly picking another code path.
"""

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
