import csv
import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import liprint
from liprint import cli
from liprint.cli import build_parser, main
from liprint.metrics import RewardParams, RobotSample
from liprint.sim import CSV_COLUMNS
from liprint.terrain import Heightmap
from oracles import score_lines


def read(path):
    return path.read_text().splitlines()


class TestSimulate:
    def test_row_count_and_exit(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--vx", "1.0", "--duration", "10", "--out", str(out)])
        assert rc == 0
        lines = read(out)
        assert len(lines) == 1001  # header + 1000 ticks
        assert lines[0].startswith("time,com_x,com_y,vel_x")
        assert lines[0].split(",")[-1] == "outcome_flag"
        assert (tmp_path / "t.events.json").exists()
        assert (tmp_path / "t.manifest.json").exists()

    @pytest.mark.parametrize("extra,rc", [(["--vx", "1.0"], 0),
                                          (["--vx", "2.5", "--reach-limit", "0.35"], 2)])
    def test_manifest_steps_counts_events(self, tmp_path, extra, rc):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--duration", "3", "--out", str(out)] + extra) == rc
        events = json.loads((tmp_path / "t.events.json").read_text())["step_events"]
        manifest = json.loads((tmp_path / "t.manifest.json").read_text())
        assert manifest["outcome"]["steps"] == len(events) > 0

    def test_manifest_records_package_version(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--vx", "1", "--duration", "1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "t.manifest.json").read_text())
        assert manifest["version"] == liprint.__version__

    def test_pyproject_version_is_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            assert tomllib.load(f)["project"]["version"] == liprint.__version__

    def test_missing_vx_usage_error(self, tmp_path):
        rc = main(["simulate", "--duration", "10",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1

    def test_non_finite_state_fails_with_manifest_reason(self, tmp_path):
        # a reach limit nothing exceeds lets the fast pendulum blow up
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--vx", "1", "--g", "1e5", "--reach-limit", "1e300",
                   "--duration", "5", "--out", str(out)])
        assert rc == 2
        outcome = json.loads((tmp_path / "t.manifest.json").read_text())["outcome"]
        assert outcome["reason"] == "non-finite state"
        assert outcome["time"] == pytest.approx(2.02, abs=1e-9)
        assert len(read(out)) == outcome["samples"] + 1

    @pytest.mark.parametrize("flag,value", [("--g", "1e300"), ("--base-height", "1e-300")])
    def test_overflowing_pendulum_fails_before_the_first_tick(self, tmp_path, flag, value):
        # cosh(omega * dt) overflows at the start: a failed run with no rows
        out = tmp_path / "t.csv"
        assert main(["simulate", "--vx", "1", flag, value, "--out", str(out)]) == 2
        outcome = json.loads((tmp_path / "t.manifest.json").read_text())["outcome"]
        assert outcome == {"status": "failed", "reason": "non-finite state", "time": 0.0,
                           "steps": 0, "samples": 0}
        assert read(out) == [",".join(CSV_COLUMNS)]

    def test_overflowing_plan_fails_at_the_first_tick(self, tmp_path, capsys):
        # omega * dt = 31.6 keeps cosh finite, but exp(omega * Ts) in the
        # first plan overflows: a failed run that records tick 0
        out = tmp_path / "t.csv"
        assert main(["simulate", "--vx", "1", "--g", "1e7", "--base-height", "1",
                     "--duration", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        outcome = json.loads((tmp_path / "t.manifest.json").read_text())["outcome"]
        assert outcome == {"status": "failed", "reason": "non-finite state", "time": 0.0,
                           "steps": 0, "samples": 1}
        assert len(read(out)) == 2

    def test_impassable_gap_fails_with_manifest_reason(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--vx", "1.0", "--terrain", "gap:2.0:0.1",
                   "--duration", "2", "--out", str(out)])
        assert rc == 2
        manifest = json.loads((tmp_path / "t.manifest.json").read_text())
        assert manifest["outcome"]["status"] == "failed"
        assert "steppable" in manifest["outcome"]["reason"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--vx", "1.2", "--terrain", "rough:0.04:0.5:9",
                "--duration", "4", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ea = (tmp_path / "a.events.json").read_bytes()
        eb = (tmp_path / "b.events.json").read_bytes()
        assert ea == eb

    def test_turn_flag(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--vx", "1.0", "--duration", "6", "--turn", "90",
                   "--turn-time", "2.0", "--replan", "every-tick",
                   "--out", str(out)])
        assert rc == 0

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("vx = 1.0\nduration = 2\n")
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert len(read(out)) == 201
        # explicit flags still win over config values
        rc = main(["simulate", "--config", str(cfg), "--duration", "1",
                   "--out", str(out)])
        assert rc == 0
        assert len(read(out)) == 101


class TestSweep:
    def test_flat_grid(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--vx-list", "0.5,1.0,1.5,2.0", "--trials", "2",
                   "--duration", "6", "--reach-limit", "0.9", "--out", str(out)])
        assert rc == 0
        lines = read(out)
        assert lines[0] == "vx,terrain,replan,trials,successes,success_rate"
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.endswith(",2,2,1")

    def test_zero_trials_empty_table(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--vx-list", "1.0", "--trials", "0", "--out", str(out)])
        assert rc == 0
        lines = read(out)
        assert len(lines) == 2
        assert lines[1].split(",")[3:] == ["0", "0", ""]

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--vx-list", "1.0", "--terrain", "rough:0.05:0.5:0",
                "--trials", "4", "--duration", "6", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_each_terrain_flag_loads_its_map_once(self, tmp_path, monkeypatch):
        m = tmp_path / "m.json"
        assert main(["terrain", "gen", "--spec", "flat", "--extent=-3:-3:8:3",
                     "--out", str(m)]) == 0
        loads = []
        load = Heightmap.load.__func__

        def counting_load(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(Heightmap, "load", classmethod(counting_load))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--vx-list", "0.5,1.0,1.5", "--terrain", f"file:{m}",
                     "--trials", "2", "--duration", "2", "--window", "1",
                     "--out", str(out)]) == 0
        assert loads == [str(m)]
        assert [line.split(",")[:2] for line in read(out)[1:]] == [
            ["0.5", f"file:{m}"], ["1", f"file:{m}"], ["1.5", f"file:{m}"]]

    def test_overflowing_pendulum_counts_as_failure(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--vx-list", "1", "--g", "1e300", "--trials", "3",
                     "--out", str(out)]) == 0
        assert read(out)[1] == "1,flat,at-step-start,3,0,0"

    def test_overflowing_plan_counts_as_failure(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--vx-list", "1", "--g", "1e7", "--base-height", "1",
                     "--duration", "1", "--window", "1", "--trials", "3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read(out)[1] == "1,flat,at-step-start,3,0,0"

    def test_consecutive_calls_share_no_parser_state(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["sweep", "--vx-list", "1.0", "--trials", "1", "--duration", "2",
                  "--window", "1"]
        assert main(common + ["--terrain", "flat", "--terrain", "gap:0.15:0.8",
                              "--out", str(a)]) == 0
        assert main(common + ["--out", str(b)]) == 0
        assert [line.split(",")[1:3] for line in read(a)[1:]] == [
            ["flat", "at-step-start"], ["gap:0.15:0.8", "every-tick"]]
        assert [line.split(",")[1:3] for line in read(b)[1:]] == [
            ["flat", "at-step-start"]]
        assert build_parser() is build_parser()


class TestPlan:
    def test_defaults_match_offset_table(self, tmp_path, capsys):
        rc = main(["plan", "--vx", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        w = math.sqrt(9.81 / 0.62)
        e = math.exp(w * 0.35)
        assert out["offset"][0] == pytest.approx(0.35 / (e - 1.0), abs=1e-12)
        assert out["offset"][1] == pytest.approx(0.3 / (e + 1.0), abs=1e-12)
        assert out["offset"][0] == pytest.approx(0.115752, abs=5e-6)
        assert out["offset"][1] == pytest.approx(0.059718, abs=5e-6)
        assert out["step"]["parity"] == 0

    def test_backward_command_heading_is_pi(self, capsys):
        # the planner's heading and the planned step's agree on the half turn
        assert main(["plan", "--vx", "-1", "--vy", "-0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["heading"] == out["step"]["heading"] == math.pi

    def test_zero_velocity_zero_bx(self, tmp_path, capsys):
        rc = main(["plan", "--vx", "0.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["offset"][0] == 0.0

    def test_state_json(self, capsys):
        rc = main(["plan", "--vx", "1.0", "--state",
                   '{"com": [0.1, 0.0], "vel": [0.5, 0.0], '
                   '"stance": [0.0, -0.15], "parity": 1}'])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["step"]["parity"] == 1
        assert out["xi0"][0] == pytest.approx(0.1 + 0.5 / math.sqrt(9.81 / 0.62),
                                              rel=1e-12)

    def test_out_file_holds_printed_text(self, tmp_path, capsys):
        args = ["plan", "--vx", "0.8", "--vy", "0.1", "--state",
                '{"com": [0.1, 0.0], "vel": [0.5, 0.0], "stance": [0.0, 0.15], "parity": 1}']
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "plan.json"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_malformed_state_json(self):
        assert main(["plan", "--vx", "1.0", "--state", "{not json"]) == 1
        assert main(["plan", "--vx", "1.0", "--state", '{"com": [1]}']) == 1


class TestScore:
    def test_round_trip_row_counts(self, tmp_path):
        traj = tmp_path / "t.csv"
        rewards = tmp_path / "r.csv"
        assert main(["simulate", "--vx", "1.0", "--duration", "5",
                     "--out", str(traj)]) == 0
        rc = main(["score", "--traj", str(traj), "--vx", "1.0",
                   "--out", str(rewards)])
        assert rc == 0
        assert len(read(rewards)) == len(read(traj))

    def test_heading_target_below_zero_speed_is_zero(self, tmp_path):
        # score's heading target follows the simulator's zero-speed rule
        traj = tmp_path / "t.csv"
        assert main(["simulate", "--vx", "0.5", "--vy", "0.2", "--duration", "1",
                     "--out", str(traj)]) == 0
        columns = []
        for v in ("0", "1e-9"):
            out = tmp_path / f"r{v}.csv"
            assert main(["score", "--traj", str(traj), "--vx", v, "--vy", v,
                         "--out", str(out)]) == 0
            lines = read(out)
            c = lines[0].split(",").index("base_orientation")
            columns.append([line.split(",")[c] for line in lines[1:]])
        assert columns[0] == columns[1]

    def test_empty_file(self, tmp_path, capsys):
        traj = tmp_path / "empty.csv"
        traj.write_text("")
        out = tmp_path / "r.csv"
        assert main(["score", "--traj", str(traj), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: trajectory {traj} is empty\n"
        assert not out.exists()

    def test_header_only_file_scores_no_rows(self, tmp_path):
        # a run that failed before its first tick writes only the header
        traj = tmp_path / "header.csv"
        traj.write_text(",".join(CSV_COLUMNS) + "\n")
        out = tmp_path / "r.csv"
        assert main(["score", "--traj", str(traj), "--out", str(out)]) == 0
        assert len(read(out)) == 1  # header only

    def test_column_mismatch(self, tmp_path):
        traj = tmp_path / "bad.csv"
        traj.write_text("a,b,c\n1,2,3\n")
        assert main(["score", "--traj", str(traj),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_ideal_synthetic_trajectory_hits_maxima(self, tmp_path):
        # synthetic rows: exact tracking, stance at target, C = 1
        from liprint.sim import CSV_COLUMNS
        traj = tmp_path / "ideal.csv"
        rows = [",".join(CSV_COLUMNS)]
        for i in range(5):
            v = {c: 0.0 for c in CSV_COLUMNS}
            v.update(time=i * 0.01, vel_x=1.0, icp_x=0.1, stance_y=-0.15,
                     target_x=0.9, target_y=0.15, contact_schedule=1.0,
                     phase_cos=1.0)
            rows.append(",".join(str(v[c]) for c in CSV_COLUMNS))
        traj.write_text("\n".join(rows) + "\n")
        out = tmp_path / "r.csv"
        assert main(["score", "--traj", str(traj), "--vx", "1.0",
                     "--out", str(out)]) == 0
        lines = read(out)
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["base_height"]) == 1.0
        assert float(first["base_orientation"]) == 2.0
        assert float(first["velocity_tracking"]) == 4.0
        assert float(first["contact_schedule"]) == 9.0
        assert float(first["reg_hip_regularization"]) == 1.25
        assert float(first["reg_base_tilting"]) == 1.0
        assert float(first["total"]) == pytest.approx(18.25, abs=1e-12)

    def test_joint_log(self, tmp_path):
        traj = tmp_path / "t.csv"
        assert main(["simulate", "--vx", "1.0", "--duration", "1",
                     "--out", str(traj)]) == 0
        n = len(read(traj)) - 1
        joints = tmp_path / "j.csv"
        header = "q0,q1,dq0,dq1,tau0,tau1,a0,a1,v_z"
        body = "\n".join("0.1,0.0,1.0,0.0,3.0,4.0,0.0,0.0,0.5" for _ in range(n))
        joints.write_text(header + "\n" + body + "\n")
        out = tmp_path / "r.csv"
        assert main(["score", "--traj", str(traj), "--joints", str(joints),
                     "--vx", "1.0", "--out", str(out)]) == 0
        lines = read(out)
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["reg_joint_torques"]) == pytest.approx(-1e-4 * 25.0)
        assert float(first["reg_joint_velocity"]) == pytest.approx(-1e-3)
        assert float(first["reg_base_z_velocity"]) == pytest.approx(-1e-1 * 0.25)

    def test_joint_log_length_mismatch(self, tmp_path):
        traj = tmp_path / "t.csv"
        assert main(["simulate", "--vx", "1.0", "--duration", "1",
                     "--out", str(traj)]) == 0
        joints = tmp_path / "j.csv"
        joints.write_text("q0\n0.0\n")
        assert main(["score", "--traj", str(traj), "--joints", str(joints),
                     "--out", str(tmp_path / "r.csv")]) == 1

    def test_empty_joint_log(self, tmp_path, capsys):
        traj = write_traj(tmp_path, [zero_row()])
        joints = tmp_path / "j.csv"
        joints.write_text("")
        assert main(["score", "--traj", str(traj), "--joints", str(joints),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert f"joint log {joints} is empty" in capsys.readouterr().err

    def test_joint_row_shorter_than_header(self, tmp_path, capsys):
        traj = write_traj(tmp_path, [zero_row()])
        joints = tmp_path / "j.csv"
        joints.write_text("q0,dq0\n1\n")
        assert main(["score", "--traj", str(traj), "--joints", str(joints),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert "bad joint row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["q0,q0", "q1,dq0,q01", "v_z,q0,v_z"])
    def test_duplicate_joint_column(self, tmp_path, capsys, header):
        traj = write_traj(tmp_path, [zero_row()])
        joints = tmp_path / "j.csv"
        joints.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        assert main(["score", "--traj", str(traj), "--joints", str(joints),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert "duplicates" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["x", "short", "inf"])
    def test_bad_trajectory_row(self, tmp_path, capsys, bad):
        row = zero_row()
        if bad == "short":
            row = row[:10]
        else:
            row[CSV_COLUMNS.index("vel_x")] = bad
        traj = write_traj(tmp_path, [zero_row(), zero_row(), row])
        assert main(["score", "--traj", str(traj), "--out", str(tmp_path / "r.csv")]) == 1
        assert "bad trajectory row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--Ts", "--width", "--g"])
    def test_model_flags_not_read_by_score_are_rejected(self, tmp_path, flag):
        traj = tmp_path / "t.csv"
        assert main(["simulate", "--vx", "1.0", "--duration", "1", "--out", str(traj)]) == 0
        args = ["score", "--traj", str(traj), "--vx", "1.0", "--out", str(tmp_path / "r.csv")]
        assert main(args) == 0
        assert main(args + [flag, "0.5"]) == 1

    def test_outcome_flag_is_not_read(self, tmp_path):
        row = zero_row()
        row[-1] = "not-a-number"
        traj = write_traj(tmp_path, [row])
        assert main(["score", "--traj", str(traj), "--out", str(tmp_path / "r.csv")]) == 0

    @pytest.mark.parametrize("joints", ["none", "permuted", "gapped", "no-base",
                                        "partial-base"])
    def test_matches_per_row_oracle(self, tmp_path, joints):
        rng = np.random.default_rng(len(joints))
        n = 40
        traj_rows = [[repr(float(v)) for v in rng.normal(0.0, 1.0, len(CSV_COLUMNS))]
                     for _ in range(n)]
        for i, row in enumerate(traj_rows):
            row[CSV_COLUMNS.index("parity")] = str(float(i - 5))  # both parities, < 0 too
            row[CSV_COLUMNS.index("time")] = repr(0.01 * i)
        traj = write_traj(tmp_path, traj_rows)
        header = [f"{p}{j}" for p in ("q", "dq", "tau", "a") for j in range(4)]
        header += ["omega_x", "omega_y", "omega_z", "g_x", "g_y", "g_z", "v_z",
                   "base_height", "self_collision", "quality", "q"]
        if joints == "permuted":
            header = [header[i] for i in rng.permutation(len(header))]
        elif joints == "gapped":
            header = [h for h in header if h not in ("q1", "dq0", "tau3", "a2")]
            header = [h.replace("q3", "q7") for h in header]
        elif joints == "no-base":
            header = [h for h in header if h[0] in "qdta" and h not in ("quality", "q")]
        elif joints == "partial-base":
            header = [h for h in header if h not in ("omega_y", "g_z")]
        table = rng.normal(0.0, 0.4, (n, len(header)))
        if "self_collision" in header:
            table[:, header.index("self_collision")] = rng.random(n) < 0.2
        joint_rows = [header] + [[repr(float(v)) for v in row] for row in table]
        argv = ["score", "--traj", str(traj), "--vx", "0.7", "--vy", "0.2",
                "--sigma", "0.3", "--base-height", "0.6", "--out", str(tmp_path / "r.csv")]
        if joints != "none":
            (tmp_path / "j.csv").write_text("\n".join(",".join(r) for r in joint_rows) + "\n")
            argv += ["--joints", str(tmp_path / "j.csv")]
        assert main(argv) == 0
        p = RewardParams(sigma=0.3, base_height_target=0.6, heading_target=math.atan2(0.2, 0.7),
                         vel_cmd=(0.7, 0.2))
        expected = score_lines(traj_rows, None if joints == "none" else joint_rows,
                               p, 0.6, RobotSample)
        assert read(tmp_path / "r.csv")[1:] == expected


def zero_row():
    return ["0"] * len(CSV_COLUMNS)


def write_traj(tmp_path, rows):
    path = tmp_path / "t.csv"
    path.write_text("\n".join([",".join(CSV_COLUMNS)] + [",".join(r) for r in rows]) + "\n")
    return path


JOINT_HEADER = ["q0", "q1", "dq0", "dq1", "tau0", "tau1", "a0", "a1", "v_z", "quality"]


def corpus_csv(header, n=3, cells=(), eol="\n", last_eol=True):
    """CSV text of n distinct numeric rows under `header`, with `cells`
    (row, column name, text) overwritten."""
    rows = [[repr(0.25 * i - 0.001 * c) for c in range(len(header))] for i in range(n)]
    for i, name, text in cells:
        rows[i][header.index(name)] = text
    lines = [",".join(header)] + [",".join(r) for r in rows]
    return eol.join(lines) + (eol if last_eol else "")


def corpus_traj(n=3, cells=(), **kw):
    return corpus_csv(CSV_COLUMNS, n, cells, **kw)


def corpus_joints(n=3, cells=(), **kw):
    return corpus_csv(JOINT_HEADER, n, cells, **kw)


def edit_line(text, k, edit):
    """`text` with its k-th "\\n"-separated line replaced by edit(line)."""
    lines = text.split("\n")
    lines[k] = edit(lines[k])
    return "\n".join(lines)


def drop_fields(k):
    return lambda line: line.rsplit(",", k)[0]


def twelve_joint_log(n=3):
    """A joint log of 12 joints whose values span 12 orders of magnitude, so
    that a row sum's value depends on the order it adds in."""
    rng = np.random.default_rng(12)
    header = [f"{p}{j}" for p in ("q", "dq", "tau", "a") for j in range(12)]
    table = rng.normal(size=(n, len(header))) * 10.0 ** rng.uniform(-6, 6, (n, len(header)))
    return "\n".join([",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()])


HUGE = "1" * 200000  # longer than csv's default field limit of 131072
# id -> (trajectory text, joint-log text or None, whether numpy's reader
# takes the trajectory, whether it takes the joint log)
PARSE_CORPUS = {
    "plain": (corpus_traj(), corpus_joints(), True, True),
    "twelve-joints": (corpus_traj(), twelve_joint_log(), True, True),
    "signs-and-spaces": (corpus_traj(cells=[(0, "vel_x", " -1.5 "), (1, "com_x", "+2"),
                                            (2, "vel_y", "\t-0\t"), (1, "icp_y", "+.5")]),
                         corpus_joints(cells=[(1, "q0", "+0.5 "), (2, "dq0", " -0")]),
                         True, True),
    "unicode-spaces": (corpus_traj(cells=[(1, "vel_x", "\xa01　"),
                                          (2, "com_x", "\x851 ")]),
                       corpus_joints(cells=[(0, "q1", " -2")]), True, True),
    "inf-in-trajectory": (corpus_traj(cells=[(1, "vel_x", "Infinity")]), None, True, None),
    "nan-in-trajectory": (corpus_traj(cells=[(2, "com_y", "-nan")]), None, True, None),
    # non-finite joint values: both paths reject the file, naming row 1
    "inf-nan-spellings": (corpus_traj(), corpus_joints(cells=[
        (0, "q0", "nan"), (1, "q1", "-nan"), (2, "tau0", "NaN"), (0, "a0", "+nan"),
        (1, "dq0", "inf"), (2, "dq1", "-Infinity"), (0, "v_z", "+iNfInItY"),
        (2, "dq0", "-inf")]), True, True),
    "bad-inf-nan-spellings": (corpus_traj(cells=[(1, "com_x", "nan(1)")]),
                              corpus_joints(cells=[(1, "q0", "infinit")]), False, False),
    "underscore": (corpus_traj(cells=[(1, "vel_x", "1_0")]),
                   corpus_joints(cells=[(2, "q0", "2_5.0_1")]), False, False),
    "unicode-digits": (corpus_traj(cells=[(1, "com_x", "１")]),
                       corpus_joints(cells=[(1, "q0", "٣.٥")]), False, False),
    "hex-float": (corpus_traj(cells=[(1, "com_x", "0x1p3")]), None, False, None),
    "quoted-field": (corpus_traj(cells=[(1, "com_x", '"1.5"')]),
                     corpus_joints(cells=[(0, "q0", '" 2"')]), False, False),
    "quoted-header": ('"time"' + corpus_traj()[len("time"):], None, False, None),
    "joints-quoted-header": (corpus_traj(), corpus_joints().replace("q1", '"q1"', 1),
                             True, False),
    "quoted-newline": (corpus_traj(cells=[(1, "com_x", '"1\n"')]), None, False, None),
    "overflow": (corpus_traj(cells=[(1, "vel_x", "1e400")]),
                 corpus_joints(cells=[(1, "dq0", "1e400"), (2, "dq1", "-1e400")]), True, True),
    "subnormal-and-underflow": (corpus_traj(cells=[
        (0, "com_x", "4.9e-324"), (1, "com_y", "2.5e-324"), (2, "vel_x", "1e-400"),
        (1, "vel_y", "2.2250738585072011e-308"), (2, "icp_x", "-2.4703282292062328e-324")]),
        corpus_joints(cells=[(1, "q0", "5e-324"), (2, "q1", "-1e-320")]), True, True),
    "hard-rounding": (corpus_traj(cells=[
        (0, "com_x", "9007199254740993"),
        (1, "com_x", "1.00000000000000011102230246251565404236316680908203125"),
        (2, "com_x", "0." + "0" * 300 + "1"), (0, "com_y", "1" * 300),
        (1, "com_y", "0.1000000000000000055511151231257827021181583404541015625"),
        (2, "com_y", "1.7976931348623158e308"), (0, "vel_x", "1e-5"),
        (1, "vel_x", "1E+05"), (2, "vel_x", "00001.")]), None, True, None),
    "malformed-numbers": (corpus_traj(cells=[(1, "vel_x", "1e")]),
                          corpus_joints(cells=[(1, "q0", ".")]), False, False),
    "empty-field": (corpus_traj(cells=[(1, "vel_x", "")]), None, False, None),
    "inner-space": (corpus_traj(cells=[(1, "vel_x", "1 1")]), None, False, None),
    "hash-in-field": (corpus_traj(cells=[(1, "com_x", "1#x")]),
                      corpus_joints(cells=[(1, "q0", "2#")]), False, False),
    "hash-at-line-start": (corpus_traj(cells=[(1, "time", "#1")]),
                           corpus_joints(cells=[(1, "q0", "#")]), False, False),
    "hash-in-last-column": (corpus_traj(), "v_z\n1#5\n2\n3\n", True, False),
    "hash-in-unread-column": (corpus_traj(), corpus_joints(cells=[(1, "quality", "0#")]),
                              True, False),
    "separators": (corpus_traj(cells=[(1, "vel_x", "1\x1c"), (2, "com_x", "\x1f2")]),
                   corpus_joints(cells=[(1, "q0", "\x1d3"), (2, "q1", "4\x1e")]),
                   False, False),
    "nul": (corpus_traj(cells=[(1, "vel_x", "1\x00")]), None, False, None),
    "blank-line": (corpus_traj().replace("\n", "\n\n", 2), None, False, None),
    "whitespace-line": (corpus_traj().replace("\n", "\n  \n", 2), None, False, None),
    "blank-last-line": (corpus_traj() + "\n", None, False, None),
    "joints-blank-line": (corpus_traj(), corpus_joints().replace("\n", "\n\n", 1),
                          True, False),
    "joints-whitespace-line": (corpus_traj(), corpus_joints(n=2) + " \n", True, False),
    "joints-blank-last-line": (corpus_traj(), corpus_joints() + "\n", True, False),
    "no-outcome-flag": (edit_line(corpus_traj(), 2, drop_fields(1)), None, False, None),
    "ragged-short": (edit_line(corpus_traj(), 2, drop_fields(2)), None, False, None),
    "ragged-long": (edit_line(corpus_traj(), 2, lambda line: line + ",7"), None, False, None),
    "joints-ragged-long": (corpus_traj(),
                           edit_line(corpus_joints(), 3, lambda line: line + ",7"),
                           True, False),
    "joints-all-rows-short": (corpus_traj(), ",".join(JOINT_HEADER) + "\n"
                              + corpus_csv(JOINT_HEADER[:-1]).split("\n", 1)[1],
                              True, False),
    "crlf": (corpus_traj(eol="\r\n"), corpus_joints(eol="\r\n"), True, True),
    "cr-only": (corpus_traj(eol="\r"), corpus_joints(eol="\r"), True, True),
    "mixed-line-ends": (corpus_traj(n=4).replace("\n", "\r", 2).replace("\n", "\r\n", 1),
                        corpus_joints(n=4, eol="\r\n").replace("\r\n", "\n", 2), True, True),
    "no-trailing-newline": (corpus_traj(last_eol=False), corpus_joints(last_eol=False),
                            True, True),
    "single-row": (corpus_traj(n=1), corpus_joints(n=1), True, True),
    "header-only": (corpus_traj(n=0), corpus_joints(n=0), False, False),
    "header-only-no-newline": (corpus_traj(n=0, last_eol=False), None, False, None),
    "header-only-blank-line": (corpus_traj(n=0) + "\n", None, False, None),
    "empty": ("", None, False, None),
    "joints-empty": (corpus_traj(), "", True, False),
    "blank-header": ("\n" + corpus_traj().split("\n", 1)[1], None, False, None),
    "joints-blank-header": (corpus_traj(n=1), "\n1\n", True, False),
    "wrong-header": (corpus_traj().replace("vel_x", "vel_X"), None, False, None),
    "joints-row-count": (corpus_traj(), corpus_joints(n=2), True, True),
    "joints-one-column": (corpus_traj(), "v_z\n1\n2\n3\n", True, True),
    "joints-duplicate-column": (corpus_traj(), corpus_joints().replace("quality", "q0"),
                                True, True),
    "unread-columns": (corpus_traj(cells=[(1, "outcome_flag", "completed")]),
                       corpus_joints(cells=[(2, "quality", "good")]), False, False),
    "huge-field": (corpus_traj(cells=[(1, "vel_x", HUGE)]), None, False, None),
    "joints-huge-field": (corpus_traj(), corpus_joints(cells=[(1, "q0", HUGE)]),
                          True, False),
}


class TestScoreParsing:
    """numpy's reader (`cli._loadtxt`) against the forced fallback to
    csv.reader and float(): the same floats, or the same rejection."""

    @staticmethod
    def score(monkeypatch, capsys, tmp_path, traj, joints, fallback):
        real, tables = cli._float_table, []

        def record(data, cols, what):
            table = real(data, cols, what)
            # strides too: numpy's row sums add in an order set by the layout
            tables.append((what, table.dtype, table.shape, table.strides, table.tobytes()))
            return table

        out = tmp_path / "r.csv"
        out.unlink(missing_ok=True)
        argv = ["score", "--traj", str(traj), "--vx", "0.7", "--out", str(out)]
        if joints is not None:
            argv += ["--joints", str(joints)]
        with monkeypatch.context() as m:
            m.setattr(cli, "_float_table", record)
            if fallback:
                m.setattr(cli, "_loadtxt", lambda path, header=None: None)
            rc = main(argv)
        return rc, capsys.readouterr().err, tables, out.exists() and out.read_bytes()

    @pytest.mark.parametrize("case", PARSE_CORPUS)
    def test_fast_path_equals_fallback(self, monkeypatch, capsys, tmp_path, case):
        traj_text, joints_text, traj_fast, joints_fast = PARSE_CORPUS[case]
        files = [(tmp_path / "t.csv", traj_text, CSV_COLUMNS, traj_fast)]
        if joints_text is not None:
            files.append((tmp_path / "j.csv", joints_text, None, joints_fast))
        for path, text, header, taken in files:
            with open(path, "w", newline="") as f:
                f.write(text)
            # each file takes the path it should, so no case passes vacuously
            with open(path, newline="") as f:
                lines = f.readlines()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fast = cli._loadtxt(lines, header)
            assert (fast is not None) == taken and not caught
            if fast is not None:
                rows = list(csv.reader(lines))
                assert fast[0] == rows[0]
                expected = np.array([[float(v) for v in row] for row in rows[1:]])
                assert fast[1].shape == expected.shape
                assert fast[1].tobytes() == expected.tobytes()
        joints = files[1][0] if joints_text is not None else None
        fast = self.score(monkeypatch, capsys, tmp_path, files[0][0], joints, False)
        slow = self.score(monkeypatch, capsys, tmp_path, files[0][0], joints, True)
        assert fast == slow
        rc, err, _, _ = fast
        assert rc in (0, 1) and (rc == 0) != err.startswith("error: ")

    # numpy's reader on both files, csv.reader on both, and a joint log of
    # the wrong row count
    @pytest.mark.parametrize("case", ["plain", "unread-columns", "joints-row-count"])
    def test_each_input_is_opened_once(self, monkeypatch, tmp_path, case):
        traj_text, joints_text, _, _ = PARSE_CORPUS[case]
        traj, joints = tmp_path / "t.csv", tmp_path / "j.csv"
        traj.write_text(traj_text)
        joints.write_text(joints_text)
        opened, real_open = [], open

        def spy(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr("builtins.open", spy)
            rc = main(["score", "--traj", str(traj), "--joints", str(joints),
                       "--out", str(tmp_path / "r.csv")])
        assert rc == (1 if case == "joints-row-count" else 0)
        assert opened.count(str(traj)) == opened.count(str(joints)) == 1


    @pytest.mark.parametrize("case,message", [
        ("blank-last-line", "bad trajectory row 4: blank line"),
        ("blank-line", "bad trajectory row 1: blank line"),
        ("joints-blank-last-line",
         "joint log has 4 rows but the trajectory has 3; joint row 4 is a blank line"),
        ("joints-blank-line",
         "joint log has 4 rows but the trajectory has 3; joint row 1 is a blank line"),
    ])
    def test_blank_row_is_named(self, monkeypatch, capsys, tmp_path, case, message):
        traj_text, joints_text, _, _ = PARSE_CORPUS[case]
        (tmp_path / "t.csv").write_text(traj_text)
        joints = None
        if joints_text is not None:
            joints = tmp_path / "j.csv"
            joints.write_text(joints_text)
        for fallback in (False, True):
            rc, err, _, written = self.score(monkeypatch, capsys, tmp_path,
                                             tmp_path / "t.csv", joints, fallback)
            assert (rc, err, written) == (1, f"error: {message}\n", False)

    def test_blank_joint_row_of_matching_count_is_named(self, tmp_path, capsys):
        traj = write_traj(tmp_path, [zero_row()] * 3)
        joints = tmp_path / "j.csv"
        joints.write_text("q0,dq0\n1,2\n\n3,4\n")
        assert main(["score", "--traj", str(traj), "--joints", str(joints),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == "error: bad joint row 2: blank line\n"

    def test_blank_joint_row_is_named_where_no_column_is_read(self, tmp_path, capsys):
        traj = write_traj(tmp_path, [zero_row()] * 3)
        joints = tmp_path / "j.csv"
        joints.write_text("quality\n1\n\n3\n")
        assert main(["score", "--traj", str(traj), "--joints", str(joints),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == "error: bad joint row 2: blank line\n"


class TestTerrainGen:
    def test_generates_loadable_map(self, tmp_path):
        out = tmp_path / "m.json"
        rc = main(["terrain", "gen", "--spec", "gap:0.15:0.8:0.4",
                   "--extent=-1:-1:3:1", "--resolution", "0.05",
                   "--out", str(out)])
        assert rc == 0
        hmap = Heightmap.load(out)
        assert hmap.mask.any()
        assert not hmap.heights.any()

    def test_generated_map_usable_by_simulate(self, tmp_path):
        m = tmp_path / "m.json"
        assert main(["terrain", "gen", "--spec", "rough:0.03:0.5:2",
                     "--extent=-2:-2:8:2", "--resolution", "0.05",
                     "--out", str(m)]) == 0
        rc = main(["simulate", "--vx", "1.0", "--duration", "3",
                   "--terrain", f"file:{m}", "--out", str(tmp_path / "t.csv")])
        assert rc == 0

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("resolution = 0.1\n")
        out = tmp_path / "m.json"
        args = ["terrain", "gen", "--config", str(cfg), "--spec", "flat",
                "--extent=-1:-1:1:1", "--out", str(out)]
        assert main(args) == 0
        assert Heightmap.load(out).resolution == 0.1
        # explicit flags still win over config values
        assert main(args + ["--resolution", "0.25"]) == 0
        assert Heightmap.load(out).resolution == 0.25

    def test_bad_extent(self, tmp_path):
        rc = main(["terrain", "gen", "--spec", "flat", "--extent", "1:2:3",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [["simulate", "--vx", "1"], ["sweep"],
                                      ["score", "--traj", "t.csv"],
                                      ["terrain", "gen", "--spec", "flat"]],
                             ids=["simulate", "sweep", "score", "terrain-gen"])
    def test_missing_out_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        command = " ".join(argv[:2] if argv[0] == "terrain" else argv[:1])
        assert capsys.readouterr().err == f"error: {command} requires --out\n"

    # a warning (numpy's RuntimeWarning on a non-finite value) is a failure:
    # bad input gets the one error line and nothing else
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--vx", "1", "--duration", "inf"], "total duration must be positive"),
        (["simulate", "--vx", "1", "--duration", "nan"], "total duration must be positive"),
        (["simulate", "--vx", "1", "--dt", "nan"], "dt must be positive"),
        (["simulate", "--vx", "1", "--reach-limit", "nan"], "reach limit must be positive"),
        (["simulate", "--vx", "1", "--base-height", "nan"], "pendulum height must be positive"),
        (["simulate", "--vx", "1", "--g", "nan"], "gravity must be positive"),
        (["simulate", "--vx", "1", "--turn", "90", "--turn-time", "inf"],
         "turn angle and time must be finite"),
        (["simulate", "--vx", "1", "--turn", "nan"], "turn angle and time must be finite"),
        (["simulate", "--vx", "1", "--duration", "1e307"],
         "total duration 1e+307 a non-finite tick count"),
        (["simulate", "--vx", "1", "--dt", "1e-320"],
         "step duration 0.35 a non-finite tick count"),
        (["terrain", "gen", "--spec", "flat", "--resolution", "nan"],
         "resolution must be positive"),
        (["terrain", "gen", "--spec", "flat", "--extent", "0:0:inf:1"],
         "must be finite and non-empty"),
        (["simulate", "--vx", "1", "--terrain", "file:{no_origin}"], "heightmap lacks origin"),
        (["simulate", "--vx", "1", "--terrain", "file:{not_object}"],
         "heightmap must be a JSON object"),
        (["sweep", "--trials", "-2"], "trials must be non-negative"),
        (["sweep", "--window", "-1"], "window must be positive"),
        (["sweep", "--window", "0"], "window must be positive"),
        (["sweep", "--window", "nan"], "window must be positive"),
        (["sweep", "--tolerance", "nan"], "tolerance must be non-negative"),
        (["sweep", "--tolerance", "-0.1"], "tolerance must be non-negative"),
        (["simulate", "--vx", "1", "--terrain", "rough:inf:0.5:0"], "amplitude must be finite"),
        (["terrain", "gen", "--spec", "rough:inf:0.5:0"], "amplitude must be finite"),
        (["simulate", "--vx", "1", "--terrain", "rough:nan:0.5:0"], "amplitude must be finite"),
        (["simulate", "--vx", "1", "--terrain", "rough:0.05:nan:0"],
         "correlation must be finite"),
        (["simulate", "--vx", "1", "--terrain", "gap:nan:0.8"], "gap_width must be finite"),
        (["simulate", "--vx", "1", "--terrain", "gap:0.15:nan"], "gap_period must be finite"),
        (["simulate", "--vx", "1", "--terrain", "gap:0.15:inf"], "gap_period must be finite"),
        (["simulate", "--vx", "1", "--terrain", "gap:0.15:0.8:nan"],
         "gap_offset must be finite"),
        (["score", "--traj", "{traj}", "--sigma", "nan"], "sigma must be positive and finite"),
        (["score", "--traj", "{traj}", "--sigma", "inf"], "sigma must be positive and finite"),
        (["score", "--traj", "{traj}", "--base-height", "nan"],
         "base_height_target must be finite"),
        (["score", "--traj", "{traj}", "--vx", "1", "--vy", "nan"], "vel_cmd must be finite"),
        (["score", "--traj", "{traj}", "--vx", "inf"], "vel_cmd must be finite"),
        (["simulate", "--vx", "1", "--terrain", "file:{rows_null}"],
         "heightmap rows must be a positive integer"),
        (["simulate", "--vx", "1", "--terrain", "file:{rows_list}"],
         "heightmap rows must be a positive integer"),
        (["simulate", "--vx", "1", "--terrain", "file:{rows_fraction}"],
         "heightmap rows must be a positive integer"),
        (["simulate", "--vx", "1", "--terrain", "file:{cols_fraction}"],
         "heightmap cols must be a positive integer"),
        (["simulate", "--vx", "1", "--terrain", "file:{resolution_null}"],
         "heightmap resolution must be a number"),
        (["simulate", "--vx", "1", "--terrain", "file:{mask_null}"],
         "heightmap mask must be a list of 0 and 1 entries"),
        (["simulate", "--vx", "1", "--terrain", "file:{mask_negative}"],
         "heightmap mask must be a list of 0 and 1 entries"),
        (["simulate", "--vx", "1", "--terrain", "file:{mask_300}"],
         "heightmap mask must be a list of 0 and 1 entries"),
        (["simulate", "--vx", "1", "--terrain", "file:{origin_overflow}"],
         "origin must be finite, got [inf, 0.0]"),
        (["simulate", "--vx", "1", "--terrain", "file:{origin_null}"],
         "origin must be 2 numbers, got None"),
        (["simulate", "--vx", "1", "--terrain", "file:{origin_three}"],
         "origin must be 2 numbers, got [0, 0, 0]"),
        (["simulate", "--vx", "1", "--terrain", "file:{heights_strings}"],
         "heightmap heights must be a list of numbers"),
        (["simulate", "--vx", "1", "--terrain", "file:{origin_bool_string}"],
         "heightmap origin must be 2 numbers, got True at index 0"),
        (["simulate", "--vx", "1", "--terrain", "file:{origin_numeric_string}"],
         "heightmap origin must be 2 numbers, got '0.5' at index 1"),
        (["simulate", "--vx", "1", "--terrain", "file:{heights_numeric_string}"],
         "heightmap heights must be a list of numbers, got '0.5' at index 0"),
        (["simulate", "--vx", "1", "--terrain", "file:{mask_numeric_string}"],
         "heightmap mask must be a list of 0 and 1 entries, got '1' at index 0"),
        (["simulate", "--vx", "1", "--terrain", "file:{mask_bool}"],
         "heightmap mask must be a list of 0 and 1 entries, got True at index 2"),
        (["simulate", "--vx", "1", "--terrain", "file:{heights_huge_int}"],
         "heightmap heights must be a list of numbers, got 1000"),
        (["simulate", "--vx", "1", "--terrain", "file:{resolution_huge_int}"],
         "heightmap resolution must be a number, got 1000"),
        # doubled braces: argv entries go through str.format
        (["plan", "--vx", "1", "--state",
          '{{"com":[0,0],"vel":[0,0],"stance":[0,-0.15],"parity":1e400}}'],
         "malformed --state JSON"),
        (["plan", "--vx", "1", "--state", "[1]"],
         "malformed --state JSON: state JSON must be an object"),
        (["plan"], "plan requires --vx"),
        (["plan", "--vx", "1", "--dT", "0"], "--dT must lie in (0, 0.35]"),
        (["plan", "--vx", "1", "--dT", "0.5"], "--dT must lie in (0, 0.35]"),
        (["plan", "--vx", "1", "--g", "1e300"], "lower --g"),
        (["plan", "--vx", "1", "--base-height", "1e-300"], "raise --base-height"),
        (["plan", "--vx", "1", "--Ts", "1000"], "shorten --dT"),
        (["simulate", "--vx", "1", "--terrain", "file:{far_away}"],
         "initial stance foot lies outside the heightmap"),
        (["terrain", "gen", "--spec", "file:x"],
         "terrain gen expects a generative spec, not file:"),
        (["simulate", "--vx", "1", "--g", "1e-320", "--base-height", "1e300"],
         "g / z0 must be positive and finite, got 1e-320 / 1e+300 = 0.0"),
        (["plan", "--vx", "1", "--g", "1e300", "--base-height", "1e-10"],
         "g / z0 must be positive and finite, got 1e+300 / 1e-10 = inf"),
        (["simulate", "--vx", "1", "--terrain", "file:{mask_short}"],
         "rows*cols = 4 but got 3 mask entries"),
        (["score", "--traj", "no/such/traj.csv"], "cannot read no/such/traj.csv"),
        (["score", "--traj", "{empty}"], "is empty"),
        (["score", "--traj", "{huge}"], "huge.csv: field larger than field limit"),
        (["score", "--traj", "{traj}", "--joints", "{huge}"],
         "huge.csv: field larger than field limit"),
        (["score", "--traj", "{traj}", "--joints", "{joints_inf}"], "bad joint row 40\n"),
        (["score", "--traj", "{traj}", "--joints", "{joints_neg_inf}"], "bad joint row 7\n"),
        (["score", "--traj", "{traj}", "--joints", "{joints_nan}"], "bad joint row 100\n"),
        # 14 m at 1e-15 m needs 1.4e16 nodes: the first array (99.5 PiB) is
        # beyond the address space, so its allocation fails at once
        (["terrain", "gen", "--spec", "flat", "--resolution", "1e-15"],
         "Unable to allocate"),
        # heights are drawn from [-amplitude, amplitude]: 2 * 1e308 overflows
        (["simulate", "--vx", "1", "--terrain", "rough:1e308:0.5:0"],
         "amplitude must be at most 8.988465674311579e+307, got 1e+308"),
        (["sweep", "--terrain", "rough:1e308:0.5:0"],
         "amplitude must be at most 8.988465674311579e+307, got 1e+308"),
        (["terrain", "gen", "--spec", "rough:1e308:0.5:0"],
         "amplitude must be at most 8.988465674311579e+307, got 1e+308"),
        # the second node column lies at 1e308 + 1e308, beyond the float range
        (["terrain", "gen", "--spec", "gap:0.1:0.5", "--resolution", "1e308",
          "--extent=1e308:0:1.5e308:1"], "at resolution 1e+308 has non-finite nodes"),
        (["terrain", "gen", "--spec", "rough:0.05:1e307:1", "--resolution", "1e308",
          "--extent=1e308:0:1.5e308:1"], "at resolution 1e+308 has non-finite nodes"),
        # (x1 - x0) / resolution and x0 / correlation overflow
        (["terrain", "gen", "--spec", "flat", "--resolution", "1",
          "--extent=-1e308:0:1e308:1"], "at resolution 1.0 has non-finite nodes"),
        (["terrain", "gen", "--spec", "rough:0.05:0.5:1", "--resolution", "1e301",
          "--extent=1e308:0:1.00001e308:1"], "has non-finite lattice coordinates"),
        # the nodes are finite, but 1e308 - (-1e308) is not
        (["terrain", "gen", "--spec", "gap:0.1:0.5:-1e308", "--resolution", "1e307",
          "--extent=1e308:0:1.5e308:1"],
         "has non-finite node coordinates relative to gap offset -1e+308"),
    ], ids=["duration-inf", "duration-nan", "dt-nan", "reach-nan", "base-height-nan",
            "g-nan", "turn-time-inf", "turn-nan", "duration-overflow", "dt-underflow",
            "resolution-nan", "extent-inf",
            "map-without-origin", "map-not-object", "sweep-trials-negative",
            "sweep-window-negative", "sweep-window-zero", "sweep-window-nan",
            "sweep-tolerance-nan", "sweep-tolerance-negative",
            "rough-amplitude-inf", "terrain-gen-amplitude-inf", "rough-amplitude-nan",
            "rough-correlation-nan", "gap-width-nan", "gap-period-nan", "gap-period-inf",
            "gap-offset-nan", "score-sigma-nan", "score-sigma-inf",
            "score-base-height-nan", "score-vy-nan", "score-vx-inf",
            "map-rows-null", "map-rows-list", "map-rows-fraction", "map-cols-fraction",
            "map-resolution-null", "map-mask-null", "map-mask-negative", "map-mask-300",
            "map-origin-overflow", "map-origin-null", "map-origin-three",
            "map-heights-strings", "map-origin-bool-string", "map-origin-numeric-string",
            "map-heights-numeric-string", "map-mask-numeric-string", "map-mask-bool",
            "map-heights-huge-int", "map-resolution-huge-int", "plan-parity-overflow",
            "plan-state-list", "plan-missing-vx", "plan-dT-zero", "plan-dT-over-step",
            "plan-g-overflow", "plan-base-height-underflow", "plan-dT-overflow",
            "map-excludes-stance", "terrain-gen-file-spec", "simulate-g-over-z0-underflow",
            "plan-g-over-z0-overflow", "map-mask-short", "score-traj-missing",
            "score-traj-empty", "score-traj-huge-field", "score-joints-huge-field",
            "score-joints-inf", "score-joints-neg-inf", "score-joints-nan",
            "terrain-gen-resolution-too-fine", "rough-amplitude-overflow",
            "sweep-amplitude-overflow", "terrain-gen-amplitude-overflow",
            "terrain-gen-gap-node-overflow", "terrain-gen-rough-node-overflow",
            "terrain-gen-span-overflow", "terrain-gen-lattice-overflow",
            "terrain-gen-gap-offset-overflow"])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, argv, message):
        good = {"origin": [0, 0], "resolution": 0.1, "rows": 2, "cols": 2,
                "heights": [0, 0, 0, 0], "mask": [0, 0, 0, 0]}
        maps = {
            "no_origin": {k: v for k, v in good.items() if k != "origin"},
            "not_object": 5,
            "rows_null": {**good, "rows": None},
            "rows_list": {**good, "rows": [2]},
            "rows_fraction": {**good, "rows": 2.7},
            "cols_fraction": {**good, "cols": 2.5},
            "resolution_null": {**good, "resolution": None},
            "mask_null": {**good, "mask": None},
            "mask_negative": {**good, "mask": [-1, 0, 0, 0]},
            "mask_300": {**good, "mask": [300, 0, 0, 0]},
            # JSON text as written: json.dumps would spell the overflow Infinity
            "origin_overflow": json.dumps(good).replace('"origin": [0, 0]',
                                                        '"origin": [1e400, 0]'),
            "origin_null": {**good, "origin": None},
            "origin_three": {**good, "origin": [0, 0, 0]},
            "heights_strings": {**good, "heights": ["a", 0, 0, 0]},
            "origin_bool_string": {**good, "origin": [True, "0.5"]},
            "origin_numeric_string": {**good, "origin": [0, "0.5"]},
            "heights_numeric_string": {**good, "heights": ["0.5", 0, 0, 0]},
            "mask_numeric_string": {**good, "mask": ["1", 0, 0, 0]},
            "mask_bool": {**good, "mask": [0, 0, True, 0]},
            # integers that no float holds
            "heights_huge_int": {**good, "heights": [10 ** 400, 0, 0, 0]},
            "resolution_huge_int": {**good, "resolution": 10 ** 400},
            # covers [5, 5.1] x [5, 5.1], not the initial stance (0, -0.15)
            "far_away": {**good, "origin": [5, 5]},
            "mask_short": {**good, "mask": [0, 0, 0]},
        }
        paths = {}
        for name, doc in maps.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text((doc if isinstance(doc, str) else json.dumps(doc)) + "\n")
        (tmp_path / "empty.csv").write_text("")
        # one field longer than csv's default limit of 131072 characters
        (tmp_path / "huge.csv").write_text("1" * 200000 + "\n")
        # joint logs of the 100 rows of {traj}, each with one non-finite value
        # in a column score reads
        for name, row, col, value in (("joints_inf", 40, 1, "inf"),
                                      ("joints_neg_inf", 7, 3, "-inf"),
                                      ("joints_nan", 100, 0, "nan")):
            rows = [["0.5"] * 4 for _ in range(100)]
            rows[row - 1][col] = value
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("\n".join(["q0,dq0,a0,v_z"] + [",".join(r) for r in rows])
                                   + "\n")
        traj = tmp_path / "traj.csv"
        if "{traj}" in argv:
            assert main(["simulate", "--vx", "1", "--duration", "1", "--out", str(traj)]) == 0
            capsys.readouterr()
        argv = [a.format(traj=traj, empty=tmp_path / "empty.csv", huge=tmp_path / "huge.csv",
                         **paths) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_turn_after_run_end_writes_plain_run(self, tmp_path):
        args = ["simulate", "--vx", "1", "--duration", "2", "--terrain", "rough:0.05:0.5:0"]
        assert main(args + ["--out", str(tmp_path / "plain.csv")]) == 0
        # 1e307 s / dt overflows to inf, which clamps to the end like 1e300 s
        for turn_time in ("1e300", "1e307"):
            assert main(args + ["--turn", "90", "--turn-time", turn_time,
                                "--out", str(tmp_path / "late.csv")]) == 0
            for suffix in (".csv", ".events.json"):
                assert ((tmp_path / f"late{suffix}").read_bytes()
                        == (tmp_path / f"plain{suffix}").read_bytes())

    def test_bad_terrain_spec(self, tmp_path):
        rc = main(["simulate", "--vx", "1.0", "--terrain", "lava:9",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def readme_cli_commands():
    """The `liprint ...` commands of README's CLI block, continuations joined,
    split as a shell splits them, without the leading `liprint`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("liprint ")]


class TestReadme:
    def test_cli_block_commands_parse(self):
        commands = readme_cli_commands()
        assert len(commands) == 7
        for argv in commands:
            args = build_parser().parse_args(argv)
            assert args.command == argv[0]
