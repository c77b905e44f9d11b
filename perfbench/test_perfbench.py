"""Self-tests of the benchmark: seeded inputs, the tail percentile and the
output checks. Run with `python3 -m pytest perfbench -q` from the repo root.
"""

import csv
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.load_liprint()


def _snapshot(wl, workdir):
    """Commands and input bytes, with the work directory factored out."""
    argvs = [[a.replace(str(workdir), "<work>") for a in c.argv] + [c.ticks]
             for c in wl.pool + [wl.warmup]]
    files = [(p.name, p.read_bytes()) for p in sorted(workdir.iterdir())]
    return argvs, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_generates_identical_inputs(mods, tmp_path, name):
    cls = workloads.WORKLOADS[name]
    snaps = []
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / sub).mkdir()
        snaps.append(_snapshot(cls(mods, seed, tmp_path / sub), tmp_path / sub))
    assert snaps[0] == snaps[1]
    assert snaps[0] != snaps[2]


@pytest.mark.parametrize("n", [11, 12, 40, 100, 101, 333, 1000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    samples = random.Random(n).sample(range(n), n)  # distinct values
    value, pct, beyond = run.tail_percentile(samples)
    assert beyond == 10
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # The next sample up would leave only nine beyond it.
    assert sum(1 for s in samples if s > sorted(samples)[n - 10]) == 9


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail_percentile(list(range(10)))[0] == 9


def _run_warmup(mods, name, workdir):
    wl = workloads.WORKLOADS[name](mods, 1, workdir)
    code = mods.cli.main(wl.warmup.argv)
    wl.check(wl.warmup, code)  # the real output passes
    return wl


def _rewrite_csv(path, edit):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _drop_last_row(rows):
    rows.pop()


def _touchdown_into_gap(wl):
    events = json.loads(wl.events.read_text())
    ev = events["step_events"][3]
    _, width, period, offset = (float(v) if i else v for i, v in
                                enumerate(wl.warmup.info["spec"].split(":")))
    centre = offset + width / 2.0
    ev["realized"]["x"] = centre + period * round((ev["realized"]["x"] - centre) / period)
    wl.events.write_text(json.dumps(events))


def _swap_rows(rows):
    rows[1], rows[2] = rows[2], rows[1]


def _more_successes_than_trials(rows):
    rows[1][4] = str(int(rows[1][3]) + 1)
    rows[1][5] = "1.1000000000000001"


def _total_off(rows):
    rows[5][-1] = repr(float(rows[5][-1]) + 1e-3)


def _term_above_peak(rows):
    col = rows[0].index("velocity_tracking")
    old = float(rows[7][col])
    rows[7][col] = repr(4.5)
    rows[7][-1] = repr(float(rows[7][-1]) - old + 4.5)


CORRUPTIONS = [
    ("gap-replan", "trajectory row missing", lambda wl: _rewrite_csv(wl.out, _drop_last_row)),
    ("gap-replan", "touchdown in a gap", _touchdown_into_gap),
    ("rough-sweep", "grid rows out of order", lambda wl: _rewrite_csv(wl.out, _swap_rows)),
    ("rough-sweep", "successes exceed trials",
     lambda wl: _rewrite_csv(wl.out, _more_successes_than_trials)),
    ("score-log", "terms do not sum to total", lambda wl: _rewrite_csv(wl.out, _total_off)),
    ("score-log", "task term above its peak", lambda wl: _rewrite_csv(wl.out, _term_above_peak)),
    ("score-log", "reward row missing", lambda wl: _rewrite_csv(wl.out, _drop_last_row)),
]


@pytest.mark.parametrize("name,what,corrupt", CORRUPTIONS, ids=[c[1] for c in CORRUPTIONS])
def test_check_rejects_corrupted_output(mods, tmp_path, name, what, corrupt):
    wl = _run_warmup(mods, name, tmp_path)
    corrupt(wl)
    with pytest.raises(CheckFailed):
        wl.check(wl.warmup, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_rejects_nonzero_exit(mods, tmp_path, name):
    wl = _run_warmup(mods, name, tmp_path)
    with pytest.raises(CheckFailed):
        wl.check(wl.warmup, 2)


def test_host_normalized_cancels_host_speed():
    ref = run.REFERENCE_PROBE_S
    at_ref = [[ref] * run.PROBES] * 4
    assert run.host_normalized([0.1, 0.2, 0.3], at_ref) == pytest.approx([0.1, 0.2, 0.3])
    # A host twice as slow around the second command: probes and command
    # take twice as long, and the normalized time does not move.
    slow = [[ref] * run.PROBES, [2 * ref] * run.PROBES, [2 * ref] * run.PROBES,
            [ref] * run.PROBES]
    assert run.host_normalized([0.1, 0.4, 0.3], slow) == pytest.approx([0.1 / 1.5, 0.2, 0.3 / 1.5])


def test_host_normalized_needs_probes_on_both_sides():
    with pytest.raises(ValueError):
        run.host_normalized([0.1, 0.2], [[0.002]] * 2)
