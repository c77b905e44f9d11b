"""The numba-compiled kernels (optional extra liprint[numba]) and the
pure-numpy fallback (selected with LIPRINT_DISABLE_NUMBA, or when numba is
absent) must implement identical semantics."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt

from liprint.cli import main

_PROBE = "import liprint; print(int(liprint.NUMBA_ENABLED))"


def _run_cli_in_subprocess(args, disable_numba):
    env = dict(os.environ)
    if disable_numba:
        env["LIPRINT_DISABLE_NUMBA"] = "1"
    else:
        env.pop("LIPRINT_DISABLE_NUMBA", None)
    cmd = [sys.executable, "-m", "liprint.cli"] + args
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def test_env_flag_selects_fallback():
    env = dict(os.environ, LIPRINT_DISABLE_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "0"


def test_fallback_matches_numba_path(tmp_path):
    # The default backend is the compiled one exactly when numba is importable;
    # without numba the default path must fall back rather than fail.
    env = dict(os.environ)
    env.pop("LIPRINT_DISABLE_NUMBA", None)
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                           capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    numba_present = importlib.util.find_spec("numba") is not None
    assert probe.stdout.strip() == str(int(numba_present))

    args = ["simulate", "--vx", "1.0", "--duration", "2",
            "--terrain", "gap:0.15:0.8:0.4", "--replan", "every-tick"]
    fast = tmp_path / "fast.csv"
    slow = tmp_path / "slow.csv"
    r1 = _run_cli_in_subprocess(args + ["--out", str(fast)], disable_numba=False)
    r2 = _run_cli_in_subprocess(args + ["--out", str(slow)], disable_numba=True)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    a = np.genfromtxt(fast, delimiter=",", skip_header=1)
    b = np.genfromtxt(slow, delimiter=",", skip_header=1)
    assert a.shape == b.shape == (200, 19)
    # identical semantics; libm vs compiled intrinsics may differ in the last ulp
    npt.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_in_process_run_matches_subprocess_bytes(tmp_path):
    args = ["simulate", "--vx", "0.8", "--duration", "1", "--seed", "4"]
    inproc = tmp_path / "inproc.csv"
    sub = tmp_path / "sub.csv"
    assert main(args + ["--out", str(inproc)]) == 0
    r = _run_cli_in_subprocess(args + ["--out", str(sub)], disable_numba=False)
    assert r.returncode == 0, r.stderr
    assert inproc.read_bytes() == sub.read_bytes()
