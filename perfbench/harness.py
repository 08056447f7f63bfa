"""Timing hooks installed from outside trailnav.

Each hook replaces a function at the module attribute its caller looks up
(``trailnav.runner.simulate_lidar``, ``trailnav.icp.match``, ...) and puts the
original back on exit. Three parts:

* ``RefKernel``: a fixed kd-tree workload timed between ticks. The host's
  speed drifts from run to run; a time multiplied by ``Probe.factor()`` is
  expressed at the reference speed, so most of the drift cancels.
* ``Probe``: marks ticks at ``runner._rollout`` (called once per tick by both
  closed-loop drivers), runs the kernel there, and times every
  ``simulate_lidar`` and ``teach_step``/``repeat_step`` call. Its clock stops
  while the kernel runs, so no interval includes kernel time.
* ``Tracer``: records one span per call into each layer, kept in memory and
  written out at the end, plus counts of the work done.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import time
from collections import Counter

import numpy as np
from scipy.spatial import cKDTree

import trailnav.icp as icp
import trailnav.mapping as mapping
import trailnav.mission as mission
import trailnav.runner as runner
import trailnav.simworld as simworld

# Median kernel time on the reference host (2-core x86-64 VM, Python 3.11,
# numpy 2.4, scipy 1.17). Steadied times read as if every kernel run had
# taken exactly this long.
REF_KERNEL_MS = 20.0

# The kernel runs at a tick boundary once this much probe clock has passed
# since its last run, and KERNEL_BURST times when a phase begins, so every
# phase has samples of its own.
KERNEL_INTERVAL_S = 1.0
KERNEL_BURST = 3

# Kernel runs whose median steadies one simulator or pipeline sample.
LOCAL_RUNS = 5


@contextlib.contextmanager
def patched(targets):
    """Set each (module_or_class, attribute, value) and restore on exit."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in targets]
    try:
        for obj, name, value in targets:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)


def speed_factor(runs) -> float:
    """Multiply a raw time by this to express it at the reference speed,
    given the (clock, seconds) kernel runs made around it."""
    return REF_KERNEL_MS / (1e3 * statistics.median(s for _, s in runs))


class RefKernel:
    """Fixed work of the kind that dominates a tick: a kd-tree build over
    20 000 points and a 7-nearest-neighbour query of 3 000 more. Of the
    kernels tried, its time tracked the simulator's and ICP's best."""

    def __init__(self):
        rng = np.random.default_rng(20211126)
        self._pts = rng.random((20_000, 3)) * 30.0
        self._query = rng.random((3_000, 3)) * 30.0

    def run(self) -> float:
        """Seconds one run took."""
        t0 = time.perf_counter()
        cKDTree(self._pts).query(self._query, k=7)
        return time.perf_counter() - t0


class Probe:
    """Tick marks plus simulator and pipeline call times, split into the
    ``setup`` and ``timed`` phases. Each sample and kernel run is kept as
    (probe clock at its start, seconds)."""

    def __init__(self, timed_from_tick: int | None = None):
        self.kernel = RefKernel()
        self.timed_from_tick = timed_from_tick
        self._kernel_total = 0.0
        self._kernel_due = 0.0
        self.ticks = 0
        self.phase = "setup"
        self.tick_count = Counter()
        self.kernel_s = {"setup": [], "timed": []}
        self.sim_s = {"setup": [], "timed": []}
        self.pipe_s = {"setup": [], "timed": []}
        self.marks = {}

    def clock(self) -> float:
        """Seconds, stopped while the reference kernel runs."""
        return time.perf_counter() - self._kernel_total

    def mark(self, name: str) -> None:
        self.marks[name] = self.clock()

    def _run_kernel(self) -> None:
        at = self.clock()
        elapsed = self.kernel.run()
        self._kernel_total += elapsed
        self.kernel_s[self.phase].append((at, elapsed))
        self._kernel_due = self.clock() + KERNEL_INTERVAL_S

    def start(self) -> None:
        """Begin the setup phase."""
        for _ in range(KERNEL_BURST):
            self._run_kernel()
        self.mark("start")

    def start_timed(self) -> None:
        self.phase = "timed"
        for _ in range(KERNEL_BURST):
            self._run_kernel()
        self.mark("timed")

    def factor(self, *phases) -> float:
        """Multiply a raw time from these phases (default: all) by this to
        express it at the reference speed."""
        return speed_factor([run for p in phases or self.kernel_s
                             for run in self.kernel_s[p]])

    def steadied(self, store, phase: str = "timed") -> list:
        """The phase's samples from ``store`` at the reference speed, each
        scaled by the median of the LOCAL_RUNS kernel runs nearest to it in
        time, which follows drift within a run as well as between runs."""
        runs = self.kernel_s["setup"] + self.kernel_s["timed"]
        at = np.array([t for t, _ in runs])
        return [s * speed_factor([runs[i] for i in np.argsort(
                    np.abs(at - t), kind="stable")[:LOCAL_RUNS]])
                for t, s in store[phase]]

    def wall_s(self, start: str, end: str) -> float:
        return self.marks[end] - self.marks[start]

    def _rollout(self, fn):
        def tick(*args, **kwargs):
            if self.ticks == self.timed_from_tick:
                self.start_timed()
            elif self.clock() >= self._kernel_due:
                self._run_kernel()
            self.ticks += 1
            self.tick_count[self.phase] += 1
            return fn(*args, **kwargs)
        return tick

    def _timer(self, fn, store):
        def timed(*args, **kwargs):
            at, t0 = self.clock(), time.perf_counter()
            out = fn(*args, **kwargs)
            store[self.phase].append((at, time.perf_counter() - t0))
            return out
        return timed

    def installed(self):
        return patched([
            (runner, "_rollout", self._rollout(runner._rollout)),
            (runner, "simulate_lidar",
             self._timer(runner.simulate_lidar, self.sim_s)),
            (runner, "teach_step", self._timer(runner.teach_step, self.pipe_s)),
            (runner, "repeat_step",
             self._timer(runner.repeat_step, self.pipe_s)),
        ])


# Span name -> per-layer metric its self time adds to. Every span's self time
# lands in exactly one metric, so the metrics add up to the mean tick.
SPAN_METRIC = {
    "sim": "simworld.other_ms",
    "ground": "simworld.ground_ms",
    "trunks": "simworld.trunks_ms",
    "foliage": "simworld.foliage_ms",
    "boxes": "simworld.boxes_ms",
    "step": "mission.other_ms",
    "init": "mission.other_ms",
    "load_database": "mission.load_database_ms",
    "ref_index": "mission.ref_index_ms",
    "deskew": "prior.deskew_ms",
    "filter": "icp.filter_ms",
    "register": "icp.register_ms",
    "match": "icp.match_ms",
    "trim": "icp.trim_ms",
    "error": "icp.error_ms",
    "minimize": "icp.minimize_ms",
    "insert": "mapping.insert_ms",
    "normals": "mapping.normals_ms",
    "rebuild": "mapping.rebuild_ms",
    "dynamic": "mapping.dynamic_ms",
    "retile": "mapping.retile_ms",
    "save_map": "mapping.save_map_ms",
    "project": "controller.project_ms",
    "command": "controller.command_ms",
}

# Counts reported as a mean per tick.
PER_TICK_COUNTS = ("simworld.rays", "simworld.returns", "mapping.normals_calls",
                   "mapping.local_rebuilds", "mapping.inserted_points",
                   "mapping.retile_moves", "icp.iterations", "icp.error_evals",
                   "icp.matches", "mission.ref_index_builds")


class Tracer:
    """Per-layer spans and counts. Spans are kept in memory as
    [name, start, end, parent, tick, child_seconds] and written out by
    ``write``; a span's self time is its duration minus its children's."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.local_points = []
        self.wall_s = 0.0
        self.ticks = 0

    def _span(self, name, fn, after=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, self.probe.ticks, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[2] = time.perf_counter()
                if parent >= 0:
                    self.spans[parent][5] += rec[2] - rec[1]
            if after is not None:
                after(out, *args)
            return out
        return traced

    def _count(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _add(self, key, amount):
        self.counts[key] += amount

    def _after_register(self, result, *_):
        self.counts["icp.registrations"] += 1
        self.counts["icp.converged"] += bool(result.converged)
        self.counts["icp.iterations"] += result.iterations

    def _after_step(self, _out, state, *_):
        self.local_points.append(state.map.local_point_count())

    def _after_insert(self, _out, vmap, *_):
        self._add("mapping.inserted_points",
                  sum(len(rows) for _, rows in vmap.last_inserted))

    def _local_arrays(self, fn):
        rebuild = self._span("rebuild", fn)

        def local_arrays(vmap):
            if vmap._cache is None:
                self.counts["mapping.local_rebuilds"] += 1
                return rebuild(vmap)
            return fn(vmap)
        return local_arrays

    def _targets(self):
        s = self._span
        return [
            (runner, "simulate_lidar", s(
                "sim", runner.simulate_lidar,
                lambda out, *_: self._add("simworld.returns", len(out)))),
            (simworld, "_ray_ground", s(
                "ground", simworld._ray_ground,
                lambda _o, origins, *_: self._add("simworld.rays",
                                                  len(origins)))),
            (simworld, "_ray_cylinders", s("trunks", simworld._ray_cylinders)),
            (simworld, "_ray_spheres", s("foliage", simworld._ray_spheres)),
            (simworld, "_ray_boxes", s("boxes", simworld._ray_boxes)),
            (runner, "teach_step", s("step", runner.teach_step,
                                     self._after_step)),
            (runner, "repeat_step", s("step", runner.repeat_step,
                                      self._after_step)),
            (runner, "initialize_localization",
             s("init", runner.initialize_localization)),
            (runner, "load_database", s("load_database", runner.load_database)),
            (mission, "deskew", s("deskew", mission.deskew)),
            (mission, "apply_input_filters",
             s("filter", mission.apply_input_filters)),
            (mission, "register", s("register", mission.register,
                                    self._after_register)),
            (mission, "build_index", self._count(
                "mission.ref_index_builds",
                s("ref_index", mission.build_index))),
            (icp, "match", s("match", icp.match,
                             lambda out, *_: self._add("icp.matches",
                                                       len(out)))),
            (icp, "trim_outliers", s("trim", icp.trim_outliers)),
            (icp, "point_to_plane_error", self._count(
                "icp.error_evals", s("error", icp.point_to_plane_error))),
            (icp, "minimize_step", s("minimize", icp.minimize_step)),
            (mission, "insert_scan", s("insert", mission.insert_scan,
                                       self._after_insert)),
            (mission, "refresh_normals", s("normals", mission.refresh_normals)),
            (mapping, "_normals_for", self._count("mapping.normals_calls",
                                                  mapping._normals_for)),
            (mapping.VoxelMap, "_local_arrays",
             self._local_arrays(mapping.VoxelMap._local_arrays)),
            (mission, "filter_dynamic", s("dynamic", mission.filter_dynamic)),
            (mission, "retile", s(
                "retile", mission.retile,
                lambda out, *_: self._add("mapping.retile_moves",
                                          len(out[1])))),
            (mission, "save_map", s("save_map", mission.save_map)),
            (mission, "project_onto_path",
             s("project", mission.project_onto_path)),
            (mission, "compute_command", s("command", mission.compute_command)),
            (mission, "check_termination",
             s("command", mission.check_termination)),
        ]

    @contextlib.contextmanager
    def active(self):
        """Trace while inside; wall time and ticks accumulate over uses."""
        ticks0, t0 = self.probe.ticks, self.probe.clock()
        with patched(self._targets()):
            try:
                yield
            finally:
                self.wall_s += self.probe.clock() - t0
                self.ticks += self.probe.ticks - ticks0

    def metrics(self, factor: float) -> dict:
        """Per-layer means per traced tick; times at the reference speed."""
        n = max(self.ticks, 1)
        self_s = Counter()
        for name, start, end, _parent, _tick, child in self.spans:
            self_s[SPAN_METRIC[name]] += end - start - child
        out = {key: 1e3 * factor * self_s[key] / n
               for key in sorted(set(SPAN_METRIC.values()))}
        tick_ms = 1e3 * factor * self.wall_s / n
        out["runner.glue_ms"] = tick_ms - sum(out.values())
        out["runner.tick_ms"] = tick_ms
        for key in PER_TICK_COUNTS:
            out[key] = self.counts[key] / n
        out["icp.converged_ratio"] = (self.counts["icp.converged"] /
                                      max(self.counts["icp.registrations"], 1))
        out["mapping.local_points"] = (statistics.fmean(self.local_points)
                                       if self.local_points else 0.0)
        return out

    def write(self, path) -> None:
        """Spans as CSV, times in ms from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_ms", "end_ms", "parent", "tick",
                        "self_ms"])
            for i, (name, start, end, parent, tick, child) in enumerate(self.spans):
                w.writerow([i, name, f"{1e3 * (start - t0):.4f}",
                            f"{1e3 * (end - t0):.4f}", parent, tick,
                            f"{1e3 * (end - start - child):.4f}"])
