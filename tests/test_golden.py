"""Golden-output guard: seeded CLI outputs must stay byte for byte the same.

Each case runs one `liprint` command and hashes its main output (the
trajectory CSV of `simulate`, the rates CSV of `sweep`, the rewards CSV of
`score`) and, for `simulate`, its step-event JSON on its own, so a change
to the event log leaves the CSV hashes pinned. Manifests are left out
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
    "flat-step": "ae411b3a0b8a467bca2d20088deed2fc3aadf9e0659cb8bbd1355b9475c2bee6",
    "flat-tick": "05598e128763bfcc800e773ffa83f5987bbe8fa8ec845933d79722f3a5b1ce35",
    "rough-step": "9734b027bc5eb509355e6c3060a05d45e631fce9a32659d2cbaa729a2f2f2f19",
    "rough-tick": "0ce505501119fae64e2e6dc975557ebb6379de85aaad2a8a46932e33728f8ae9",
    "gap-step": "5336d0fc798d4fc57d8744a0abe4cb9d63d5f9e254b2ee3de497071682585c6f",
    "gap-tick": "688c9c85957dd9a50e26029ea8dc07bc729f6d89fe9806bb9a74f4449ac0ff93",
    "turn-90": "c7b5c1905d66d273e047e9525c3de060f9b4ed697630f88fe113e41c77519efc",
    "turn-180-at-0": "5252d12ce18d414a3c3fe11c915e7c1af51ea48d9e8ced71b93088fff00adcb8",
    "impassable-gap": "6bfac339345e1bd165c3fafafa940b7eb208ac7ad0b33906019a945fb6c4458e",
    "reach-failure": "394ecca49e6888c1ccd9acd67520c5cbda2e8dfc3c1734b7f270121b79e421e4",
    "height-failure": "d555efc9d8dd3258c2fe5e05b18a1f97dc80c281dfd70a7425eda130d1d3601e",
    "sweep": "d1bc7f12af993d636cd50afae431c51b8f9bdd65c62ddd758921df604dbd0eea",
    "score": "54812c4a756e6b26ac5e46fb06d57816e1b26878c27db1b177d939d64db4da74",
}

# step-event JSON of each simulate case
GOLDEN_EVENTS = {
    "flat-step": "2b5debfbf0ed266d51551afd55a5057f3683c733c7625100ec206d2893a7a8e3",
    "flat-tick": "02ff809f31bf4023c0701f33ccdedb4131b3083e17cf24e04e7f20c596a1e12a",
    "rough-step": "fc1cb774f2f2b86102f9c5c9d276426f44e42f824d40836fd66d3df96ee1cc50",
    "rough-tick": "39fe54513b0c07df0fe36d3f7040f1b04c700a9a3ef8d925eba3848557d43383",
    "gap-step": "89542f80b167fb1b6102ae5fb72ec926cbf0221570c5fde3d6f0557a9211b0c9",
    "gap-tick": "c2ae735365cec3a9205b45b188184122c58a7e7bc9e7828d74f764371af54d87",
    "turn-90": "7226785484207b92d3677899d806333cc83c426e386e39528a98151b42a047ca",
    "turn-180-at-0": "d5e3d6d99b02edf822bb1eacbb5d99853db7776e7240a1319851ac8adc0ebe1e",
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
