"""Span and counter tracing of liprint's layers, from outside the package.

The tracer replaces chosen module attributes with timing wrappers for the
duration of a `with tracer.installed(mods):` block. liprint calls these
functions through module globals (`_kernels.sim_loop` calls `steppable` by
global name, `cli` calls `sim.run` by attribute), so the wrappers see the
internal calls too. This only works while the kernels run as plain Python:
with numba enabled, calls made inside compiled kernels are not seen.

Per function it aggregates calls, inclusive time and self time (duration
minus the time covered by traced child calls). Spans of the first traced
command are also kept, for writing out when the run ends.
"""

import os
from contextlib import contextmanager
from time import perf_counter_ns


def _snap_moved(counters, args, result):
    found, sx, sy = result
    if found and (sx != args[5] or sy != args[6]):
        counters["kernels.snap_to_steppable.moved"] += 1


def _steppable_true(counters, args, result):
    if result:
        counters["kernels.steppable.true"] += 1


def _sim_loop_ticks(counters, args, result):
    counters["kernels.sim_loop.ticks"] += result[0]


def _generate_nodes(counters, args, result):
    counters["terrain.generate.nodes"] += result.heights.size


def _csv_bytes(counters, args, result):
    counters["sim.write_trajectory_csv.bytes"] += os.path.getsize(args[1])


# (module, attribute, span name, post-call counter hook). The `_kernels`
# layer is named `kernels` in metric names, which must start with a letter.
# Leaf arithmetic kernels (lip_step, grid_bilinear, ...) are not wrapped:
# the wrapper would cost more than the call.
TARGETS = (
    ("cli", "main", "cli", None),
    ("sim", "run", "sim.run", None),
    ("sim", "sweep", "sim.sweep", None),
    ("sim", "success_metric", "sim.success_metric", None),
    ("sim", "write_trajectory_csv", "sim.write_trajectory_csv", _csv_bytes),
    ("sim", "write_step_events", "sim.write_step_events", None),
    ("_kernels", "sim_loop", "kernels.sim_loop", _sim_loop_ticks),
    ("_kernels", "snap_to_steppable", "kernels.snap_to_steppable", _snap_moved),
    ("_kernels", "steppable", "kernels.steppable", _steppable_true),
    ("terrain", "generate", "terrain.generate", _generate_nodes),
    ("terrain", "parse_spec", "terrain.parse_spec", None),
    ("metrics", "RobotSample", "metrics.RobotSample", None),
    ("metrics", "total_reward", "metrics.total_reward", None),
    ("metrics", "regularization", "metrics.regularization", None),
)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0, 0] for _, _, name, _ in TARGETS}  # calls, ns, self ns
        self.counters = {"kernels.snap_to_steppable.moved": 0,
                         "kernels.steppable.true": 0,
                         "kernels.sim_loop.ticks": 0,
                         "terrain.generate.nodes": 0,
                         "sim.write_trajectory_csv.bytes": 0}
        self.spans = []  # (request, span id, parent id, name, start ns, end ns)
        self.keep_spans = False
        self.request = 0
        self._stack = []  # open frames: [child ns, span id]
        self._next_id = 0

    def _wrap(self, name, fn, post):
        stats = self.stats[name]
        stack = self._stack
        counters = self.counters

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0, self._next_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0
                stats[2] += t1 - t0 - frame[0]
                if self.keep_spans:
                    self.spans.append((self.request, frame[1],
                                       parent[1] if parent else None, name, t0, t1))
            if post is not None:
                post(counters, args, result)
            if parent is not None:
                # The hook's own cost is charged to no layer.
                parent[0] += perf_counter_ns() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, mods):
        """Wrap every target on the given liprint modules, then restore."""
        saved = []
        try:
            for mod_name, attr, name, post in TARGETS:
                mod = getattr(mods, mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, post))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def per_layer(self, n_commands):
        """Per-command layer metrics over the traced commands."""
        n = max(1, n_commands)

        def calls(name):
            return self.stats[name][0]

        def ms(name):
            return self.stats[name][1] / 1e6 / n

        def self_ms(name):
            return self.stats[name][2] / 1e6 / n

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        return {
            "kernels.snap_to_steppable.ms": (ms("kernels.snap_to_steppable"), "ms/cmd"),
            "kernels.snap_to_steppable.calls": (calls("kernels.snap_to_steppable") / n, "calls/cmd"),
            "kernels.snap_to_steppable.moved_ratio": (
                ratio(c["kernels.snap_to_steppable.moved"], calls("kernels.snap_to_steppable")), "ratio"),
            "kernels.steppable.ms": (ms("kernels.steppable"), "ms/cmd"),
            "kernels.steppable.calls": (calls("kernels.steppable") / n, "calls/cmd"),
            "kernels.steppable.true_ratio": (
                ratio(c["kernels.steppable.true"], calls("kernels.steppable")), "ratio"),
            "kernels.sim_loop.self_ms": (self_ms("kernels.sim_loop"), "ms/cmd"),
            "kernels.sim_loop.ticks": (c["kernels.sim_loop.ticks"] / n, "ticks/cmd"),
            "terrain.generate.ms": (ms("terrain.generate"), "ms/cmd"),
            "terrain.generate.calls": (calls("terrain.generate") / n, "calls/cmd"),
            "terrain.generate.nodes": (c["terrain.generate.nodes"] / n, "nodes/cmd"),
            "sim.run.self_ms": (self_ms("sim.run"), "ms/cmd"),
            "sim.run.calls": (calls("sim.run") / n, "calls/cmd"),
            "sim.success_metric.ms": (ms("sim.success_metric"), "ms/cmd"),
            "sim.sweep.self_ms": (self_ms("sim.sweep"), "ms/cmd"),
            "sim.write_trajectory_csv.ms": (ms("sim.write_trajectory_csv"), "ms/cmd"),
            "sim.write_trajectory_csv.bytes": (c["sim.write_trajectory_csv.bytes"] / n, "bytes/cmd"),
            "sim.write_step_events.ms": (ms("sim.write_step_events"), "ms/cmd"),
            "metrics.RobotSample.ms": (ms("metrics.RobotSample"), "ms/cmd"),
            "metrics.total_reward.ms": (ms("metrics.total_reward"), "ms/cmd"),
            "metrics.total_reward.calls": (calls("metrics.total_reward") / n, "calls/cmd"),
            "metrics.regularization.ms": (ms("metrics.regularization"), "ms/cmd"),
            "cli.self_ms": (self_ms("cli"), "ms/cmd"),
        }
