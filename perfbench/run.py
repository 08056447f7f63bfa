"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload repeat_laps_small --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
give the raw wall-clock figures, the checks and the output digest. trailnav
is imported from ``src/`` beside this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

UNITS = {"setup_s": "s", "pipeline_ms_p50": "ms", "pipeline_ms_tail": "ms",
         "sim_ms_p50": "ms", "realtime_factor": "x", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metrics(run, pipe, sim, setup_factor, timed_factor) -> dict:
    probe = run.probe
    pipe = sorted(pipe)
    timed_s = probe.wall_s("timed", "end") * timed_factor
    return {
        "setup_s": probe.wall_s("start", "timed") * setup_factor,
        "pipeline_ms_p50": 1e3 * statistics.median(pipe),
        "pipeline_ms_tail": 1e3 * pipe[oracles.tail_rank(len(pipe)) or -1],
        "sim_ms_p50": 1e3 * statistics.median(sim),
        "realtime_factor": probe.tick_count["timed"] * run.period / timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(run) -> tuple[dict, dict]:
    """Steadied metrics (at the reference kernel speed) and the raw ones.
    Each call time is steadied by the kernel runs nearest to it; set-up time
    by all of the run's kernel runs, the timed part's wall time by the timed
    part's."""
    probe = run.probe
    raw = _metrics(run, [s for _, s in probe.pipe_s["timed"]],
                   [s for _, s in probe.sim_s["timed"]], 1.0, 1.0)
    steady = _metrics(run, probe.steadied(probe.pipe_s),
                      probe.steadied(probe.sim_s), probe.factor(),
                      probe.factor("timed"))
    return steady, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trailnav" / "__init__.py").is_file():
        print(f"perfbench: no trailnav sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # The saved database and the maps' spill directories land inside the
    # checkout, not in the system temporary directory.
    tempfile.tempdir = str(OUT)
    run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    print(f"workload {args.workload} seed {args.seed}: "
          f"{run.attempted} operations, {run.failed} failed")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"digest {run.digest}")
    for phase, runs in run.probe.kernel_s.items():
        print(f"reference kernel, {phase}: {len(runs)} runs, median "
              f"{1e3 * statistics.median(s for _, s in runs):.3f} ms, "
              f"steadying factor {run.probe.factor(phase):.4f}")

    if args.trace:
        metrics = run.tracer.metrics(run.probe.factor())
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        run.tracer.write(spans)
        print(f"{len(run.tracer.spans)} spans over {run.tracer.ticks} ticks "
              f"written to {spans.relative_to(HERE.parent)}")
        overhead_ms = 1e3 * run.overhead_s
        print(f"tracing overhead: {overhead_ms:+.3f} ms per timed tick "
              f"({100.0 * run.overhead_s / run.untraced_tick_s:+.2f} % of "
              f"the untraced {1e3 * run.untraced_tick_s:.3f} ms)")
        metrics["trace.overhead_ms"] = overhead_ms
        for name, value in metrics.items():
            print(f"  {name:28s} {value:14.4f}")
        units = {name: ("count" if not name.endswith("_ms") else "ms")
                 for name in metrics}
        units["icp.converged_ratio"] = "ratio"
        units["mapping.local_points"] = "points"
    else:
        metrics, raw = end_to_end(run)
        pipe = run.probe.steadied(run.probe.pipe_s)
        n = len(pipe)
        print(f"pipeline samples {n}; tail is p"
              f"{oracles.tail_percentile(n):.1f}" if n > 10 else
              f"pipeline samples {n}; too few for a tail, reporting the max")
        over = sum(s > run.period for s in pipe)
        print(f"pipeline over the {1e3 * run.period:.0f} ms scan period on "
              f"{over} of {n} timed ticks ({100.0 * over / n:.0f} %)")
        for name, value in metrics.items():
            print(f"  {name:18s} {value:12.4f} {UNITS[name]:3s}"
                  f" (raw {raw[name]:.4f})")
        units = UNITS

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
