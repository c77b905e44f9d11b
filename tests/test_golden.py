"""Golden-output guard: seeded CLI outputs must stay byte for byte the same.

Each case runs one `liprint` command and hashes its main output (the
trajectory CSV of `simulate`, the rates CSV of `sweep`, the rewards CSV of
`score`, the plan JSON of `plan`) and, for `simulate`, its step-event JSON
on its own, so a change to the event log leaves the CSV hashes pinned. Manifests are left out
because they record paths. The pinned SHA-256 values assume glibc's libm,
like the hashes in perfbench/README.md. A change that means to alter the
output re-pins them:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import math
from pathlib import Path

import pytest

from liprint.cli import main

_SIM = ["simulate", "--duration", "3"]
_STATE = '{"com":[0.04,-0.02],"vel":[0.6,0.1],"stance":[0.1,%s],"parity":%d}'

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
    "plan-readme": (["plan", "--vx", "1.0", "--state",
                     '{"com":[0,0],"vel":[0,0],"stance":[0,-0.15],"parity":0}'], 0),
    "plan-odd": (["plan", "--vx", "0.8", "--state", _STATE % ("0.15", 3)], 0),
    "plan-stance-z": (["plan", "--vx", "0.8", "--state", _STATE % ("-0.15, 0.07", 2)], 0),
    "plan-dT": (["plan", "--vx", "0.8", "--dT", "0.1", "--state", _STATE % ("-0.15", 0)], 0),
    "plan-vy": (["plan", "--vx", "0.5", "--vy", "0.3", "--state", _STATE % ("0.15", 1)], 0),
    "plan-backward": (["plan", "--vx=-1"], 0),
}

GOLDEN = {
    "flat-step": "2366691dc133c749c03ba11e4695c937803762ae21ee1f24545a83da9e4869fd",
    "flat-tick": "3659cf9349a485008bc7a6c3f4bb97f4669bddce4aeb877db6a1bcf48a4ea77c",
    "rough-step": "b91e3d403466e2b51a63e751c4c8200281c08b58bd73a073ed4387d80bad8794",
    "rough-tick": "7de46a8e5a70ef3ce32d9c4c708411a5179189ba3fbd0848257bb139da2c489e",
    "gap-step": "0dee5123ad2337f9965381f2a458e2c06a4cc214c83f7f9b7ee948d657eeb603",
    "gap-tick": "154d39dd5e67f50da96e004c67a555932f9ecb45d4aa6a9216419b1c900e8ea9",
    "turn-90": "636225e3b882cb80ab616eeb807866cfd78c9430e7576b978f91ae4a6d764ec3",
    "turn-180-at-0": "f101b49eb722e98ced7fa5512d3a5d3cc9a3a22e48c7bed22451b7190d702d83",
    "impassable-gap": "6bfac339345e1bd165c3fafafa940b7eb208ac7ad0b33906019a945fb6c4458e",
    "reach-failure": "0122035ed2aab46798d03aa39b4209f385658330e9410ed3b8237548610c1919",
    "height-failure": "d555efc9d8dd3258c2fe5e05b18a1f97dc80c281dfd70a7425eda130d1d3601e",
    "sweep": "d1bc7f12af993d636cd50afae431c51b8f9bdd65c62ddd758921df604dbd0eea",
    "score": "c7a9a71e7dc9b7c6e7d89a72a08598cafbeb05afb38fd71019572601d4846a06",
    "plan-readme": "596f797b7a5e607b9aa96f6df18c2fd1a7559cb41b9f2f2489b4d6b2097a856e",
    "plan-odd": "cb8614456e4ef20aecaa887fa2ddfa357978d1404a52f3fc72dd24334168a680",
    "plan-stance-z": "6c2e39d3914824eb692fd93ea3d6579f60097edd0ad773661847e848e085656e",
    "plan-dT": "9812fe2a2221378cbb5800dd6ddd46cc8fd28bd1630d8ba99eb118d29b46e669",
    "plan-vy": "0d60eb6f67467fd44c4e471b57815a62c5b3ee98bbc831e46f982019f15cdfa8",
    "plan-backward": "d416464487186e0d06349c13c8323df099d2316187cdb897273db7b0ce46cd02",
}

# step-event JSON of each simulate case
GOLDEN_EVENTS = {
    "flat-step": "1398ffbf2c3cb71790a0fcaad70407dd6ae1fcd0141c6be1708ec157472a859f",
    "flat-tick": "69df197d4933017454f97af440f3d8a16e61b71176c965fb90c194226197c9d1",
    "rough-step": "73418a6b0f182926c0c0177d2f89d6eb4d81e2cce7e13ce126ec2a73003aba8c",
    "rough-tick": "89a554df0a4a05c86da2060133bf86c5e42908875fc815cb877688b975d4bddc",
    "gap-step": "1207bcf7f3eff31fe62634df91dc27bf7a145ac0e4757fecbd43dff94da911ad",
    "gap-tick": "cefabcdac45f7272e1de4805b9b5f15642f42dd2e9a836d54c10336c473021d0",
    "turn-90": "a17e43a26e57b763c1f23e46d54eca63213504f6eee191f8698a4f97ab504ed6",
    "turn-180-at-0": "8ac3c74bf28b58320e6fb26d1212d312d8c0ef6c6536bdc47d7847c0a7e34de7",
    "impassable-gap": "656a8ff98f2472b73d4a148f4bf5196b16c117f513952608b9e49b1c2c766210",
    "reach-failure": "002cd9924f6141c834a7d8e0d174c36976c939e3191355b63c216e6564222cf4",
    "height-failure": "656a8ff98f2472b73d4a148f4bf5196b16c117f513952608b9e49b1c2c766210",
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(name: str, workdir: Path) -> tuple[int, str, "str | None"]:
    """Run one golden case in workdir; returns (exit code, SHA-256 of its
    main output, SHA-256 of its step-event JSON or None)."""
    argv, _ = CASES[name]
    out = workdir / f"{name}.out"
    events = None
    if name == "score":
        traj = workdir / "score-input.csv"
        assert main(CASES["rough-tick"][0] + ["--out", str(traj)]) == 0
        joints = workdir / "score-joints.csv"
        _joint_log(joints, len(traj.read_text().splitlines()) - 1)
        argv = argv + ["--traj", str(traj), "--joints", str(joints)]
    elif argv[0] == "simulate":
        events = workdir / f"{name}.events.json"
    rc = main(argv + ["--out", str(out)])
    return rc, _sha256(out), None if events is None else _sha256(events)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    rc, sha, events_sha = run_case(name, tmp_path)
    assert rc == CASES[name][1]
    assert sha == GOLDEN[name]
    assert events_sha == GOLDEN_EVENTS.get(name)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        results = {name: run_case(name, Path(d)) for name in CASES}
    print("GOLDEN = {")
    for name, (rc, sha, _) in results.items():
        print(f'    "{name}": "{sha}",  # exit {rc}')
    print("}\n\n# step-event JSON of each simulate case\nGOLDEN_EVENTS = {")
    for name, (_, _, events_sha) in results.items():
        if events_sha is not None:
            print(f'    "{name}": "{events_sha}",')
    print("}")
