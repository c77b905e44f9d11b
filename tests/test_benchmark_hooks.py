"""Guard for the hooks perfbench/ places on liprint.

perfbench/tracer.py wraps liprint functions by (module, attribute) name
and reads some of their results; perfbench/run.py reads a few package
attributes. A refactor that renames such a function, stops calling it
through its module, or reshapes a result the tracer reads would silently
zero a per-layer span rather than fail, so these tests pin the hooks from
the library side.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import liprint
from liprint import _kernels, cli, metrics, sim, terrain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_mod = _load_tracer()
MODS = SimpleNamespace(liprint=liprint, cli=cli, sim=sim, _kernels=_kernels,
                       terrain=terrain, metrics=metrics)


def test_every_traced_target_is_a_callable():
    for mod_name, attr, _, _ in tracer_mod.TARGETS:
        assert callable(getattr(getattr(MODS, mod_name), attr, None)), f"{mod_name}.{attr}"


def test_sim_loop_ticks_counter_reads_the_recorded_rows(tmp_path):
    """The tracer counts sim_loop's result[0] as ticks; a failed run records
    fewer rows than it has ticks, so only the recorded-row count matches."""
    tracer = tracer_mod.Tracer()
    out = tmp_path / "t.csv"
    with tracer.installed(MODS):
        assert cli.main(["simulate", "--vx", "2.5", "--reach-limit", "0.35",
                         "--duration", "3", "--out", str(out)]) == 2
    rows = len(out.read_text().splitlines()) - 1
    assert 0 < rows < 300
    assert tracer.counters["kernels.sim_loop.ticks"] == rows


def test_traced_sweep_counts_the_simulated_ticks(tmp_path):
    """sweep runs sim_loop recording vel_x only; its result[0] must still be
    the recorded-tick count, which failed runs make smaller than n_ticks."""
    argv = ["sweep", "--vx-list", "0.6,2.5", "--terrain", "flat",
            "--terrain", "rough:0.05:0.5:4", "--trials", "2", "--duration", "2",
            "--window", "1", "--reach-limit", "0.35", "--replan", "at-step-start",
            "--out", str(tmp_path / "rates.csv")]
    args = cli.build_parser().parse_args(argv)
    runs = []
    for text in args.terrain:
        spec = cli._load_terrain(text)
        for vx in (0.6, 2.5):
            args.vx = vx
            cfg = cli._make_config(args, spec)
            if spec is None:
                runs.append(cfg)
            else:
                runs += [replace(cfg, terrain=spec.with_seed(sim._trial_seed(0, trial)))
                         for trial in range(2)]
    ticks = [sim.run(cfg).sample_array.shape[0] for cfg in runs]
    assert len(ticks) == 6 and min(ticks) < 200 == max(ticks)
    tracer = tracer_mod.Tracer()
    with tracer.installed(MODS):
        assert cli.main(argv) == 0
    assert tracer.stats["kernels.sim_loop"][0] == len(runs)
    assert tracer.counters["kernels.sim_loop.ticks"] == sum(ticks)


def test_traced_simulate_fills_the_writer_and_kernel_spans(tmp_path):
    tracer = tracer_mod.Tracer()
    out = tmp_path / "t.csv"
    argv = ["simulate", "--vx", "0.7", "--duration", "2", "--terrain", "gap:0.15:0.8:0.55",
            "--replan", "every-tick", "--out", str(out)]
    with tracer.installed(MODS):
        assert cli.main(argv) == 0
    rows = len(out.read_text().splitlines()) - 1
    events = json.loads((tmp_path / "t.events.json").read_text())["step_events"]
    assert rows == 200 and len(events) == 5
    layer = tracer.per_layer(1)
    for name in ("sim.run", "sim.write_trajectory_csv", "sim.write_step_events",
                 "kernels.sim_loop", "kernels.snap_to_steppable", "kernels.steppable"):
        assert tracer.stats[name][0] >= 1, name
    assert layer["kernels.sim_loop.ticks"][0] == rows
    assert layer["sim.write_trajectory_csv.bytes"][0] == out.stat().st_size
    # the moved counter compares the result with args[5], args[6] as the query
    # x and y: gap targets move on some calls, never on more than all of them
    calls = tracer.stats["kernels.snap_to_steppable"][0]
    assert 0 < tracer.counters["kernels.snap_to_steppable.moved"] <= calls


def test_numba_flag_exists_while_run_reads_it():
    if "liprint.NUMBA_ENABLED" in (PERFBENCH / "run.py").read_text():
        assert liprint.NUMBA_ENABLED is False
