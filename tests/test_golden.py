"""Golden-output guard: seeded CLI outputs must stay byte for byte the same.

Each case runs one `liprint` command and hashes its output files (the
trajectory CSV and step-event JSON of `simulate`, the rates CSV of `sweep`,
the rewards CSV of `score`; manifests are left out because they record
paths). The pinned SHA-256 values assume glibc's libm, like the hashes in
perfbench/README.md. A change that means to alter the output re-pins them:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import math
from pathlib import Path

import pytest

from liprint.cli import main

_SIM = ["simulate", "--duration", "3", "--seed", "3"]

# name -> (argv, expected exit code)
CASES = {
    "flat-step": (_SIM + ["--vx", "0.8", "--replan", "at-step-start"], 0),
    "flat-tick": (_SIM + ["--vx", "0.8", "--replan", "every-tick"], 0),
    "rough-step": (_SIM + ["--vx", "0.9", "--terrain", "rough:0.05:0.5:7",
                           "--replan", "at-step-start"], 0),
    "rough-tick": (_SIM + ["--vx", "0.9", "--terrain", "rough:0.05:0.5:7",
                           "--replan", "every-tick"], 0),
    "gap-step": (_SIM + ["--vx", "0.7", "--terrain", "gap:0.15:0.8:0.55",
                         "--replan", "at-step-start"], 0),
    "gap-tick": (_SIM + ["--vx", "0.7", "--terrain", "gap:0.15:0.8:0.55",
                         "--replan", "every-tick"], 0),
    "turn-90": (_SIM + ["--vx", "0.8", "--vy", "0.1", "--turn", "90",
                        "--turn-time", "1.5", "--replan", "every-tick"], 0),
    "turn-180-at-0": (_SIM + ["--vx", "0.6", "--turn", "180", "--turn-time", "0"], 0),
    "impassable-gap": (_SIM + ["--vx", "1.0", "--terrain", "gap:2.0:0.1"], 2),
    "reach-failure": (_SIM + ["--vx", "2.5", "--reach-limit", "0.35"], 2),
    "height-failure": (_SIM + ["--vx", "0.8", "--terrain", "rough:0.08:1.0:5",
                               "--base-height", "0.02"], 2),
    "sweep": (["sweep", "--vx-list", "0.5,1.0", "--terrain", "flat",
               "--terrain", "rough:0.05:0.5:0", "--trials", "2", "--duration", "3",
               "--window", "2", "--seed", "4"], 0),
    "score": (["score", "--vx", "0.9", "--vy", "0.05", "--base-height", "0.6"], 0),
}

GOLDEN = {
    "flat-step": "aba10f836fe1a6f1235cde3e09f9c7004f6cd5ddd5881ee191c7a8ba09fbba81",
    "flat-tick": "11c0dd41731035b6dce412142f5816299e0665a19d5708d28619f5900c4d42a8",
    "rough-step": "1e7432f17a964a0485e55c22c9bae60db6fdbc9b579788969e6a65d1b36b4d8f",
    "rough-tick": "62bdcd23a2e4d51cb40b0c8d179f819b7069e08d878615acc235c3905fab8c3e",
    "gap-step": "6e7728a2fbdacf7dc9e7036d2ef0e46de995a0080d708d92da37c94422e5bcbc",
    "gap-tick": "8bf1630807c4dd0010a4c640e6ef8b240d318778ef2d750e05fbbca5a79585bf",
    "turn-90": "e0e41a2595bc779856091303c43a92638387d2195dd74ddbc76b2af19b52a95c",
    "turn-180-at-0": "8b99a1098eba4d1b3ff3ee00e277df97fbc5d4ee8e8ec3186a06683049eab391",
    "impassable-gap": "2377d7c09e0db38103ba2753a10ab857fe85acc5995ca4a71b253863655b316f",
    "reach-failure": "e1467a016a4963a6e74669ce8e6833d344a05bcd15a7c5b0c590aaf12e2acf52",
    "height-failure": "e7bacac61661e81a4c8b04c4669fac62bc8237fdc5d65ca2f43b664c77908887",
    "sweep": "d1bc7f12af993d636cd50afae431c51b8f9bdd65c62ddd758921df604dbd0eea",
    "score": "54812c4a756e6b26ac5e46fb06d57816e1b26878c27db1b177d939d64db4da74",
}


def _joint_log(path: Path, n: int) -> None:
    lines = ["q0,q1,dq0,dq1,tau0,tau1,a0,a1,base_height,v_z,omega_x,omega_y,"
             "omega_z,g_x,g_y,g_z,self_collision"]
    for i in range(n):
        q = [0.3 * math.sin(0.05 * i + j) for j in range(2)]
        vals = q + [0.1 * v for v in q] + [20.0 * v for v in q] + q[::-1]
        vals += [0.6 + 0.01 * math.cos(0.1 * i), 0.02 * math.sin(0.2 * i),
                 0.1, -0.05, 0.02, 0.05 * math.sin(0.03 * i), 0.01, -0.99, 0.0]
        lines.append(",".join(repr(v) for v in vals))
    path.write_text("\n".join(lines) + "\n")


def run_case(name: str, workdir: Path) -> tuple[int, str]:
    """Run one golden case in workdir; returns (exit code, SHA-256 of its outputs)."""
    argv, _ = CASES[name]
    out = workdir / f"{name}.out"
    files = [out]
    if name == "score":
        traj = workdir / "score-input.csv"
        assert main(CASES["rough-tick"][0] + ["--out", str(traj)]) == 0
        joints = workdir / "score-joints.csv"
        _joint_log(joints, len(traj.read_text().splitlines()) - 1)
        argv = argv + ["--traj", str(traj), "--joints", str(joints)]
    elif argv[0] == "simulate":
        files.append(workdir / f"{name}.events.json")
    rc = main(argv + ["--out", str(out)])
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.read_bytes())
    return rc, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    rc, sha = run_case(name, tmp_path)
    assert rc == CASES[name][1]
    assert sha == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        for name in CASES:
            rc, sha = run_case(name, Path(d))
            print(f'    "{name}": "{sha}",  # exit {rc}')
