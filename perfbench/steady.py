"""Run every workload several times and show how steady each metric is.

    python3 perfbench/steady.py --runs 10 [--seed0 1] [--traced] [--workload W]

Round i runs each workload once with seed seed0 + i, alternating the order
of the workloads from round to round. For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, against the metric's bound in BENCHMARK.json,
for the steadied values and for the raw wall-clock ones. ``--traced`` adds
one traced run per workload with seed0, which prints the per-layer metrics
and the tracing overhead, and checks that its output digest matches the
untraced run's.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW_LINE = re.compile(r"^\s+(\S+)\s+(-?[\d.]+)\s+\S+\s+\(raw (-?[\d.]+)\)$")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next(l.split()[1] for l in lines if l.startswith("digest "))
    result["raw"] = {m.group(1): float(m.group(3))
                     for m in map(RAW_LINE.match, lines) if m}
    result["text"] = lines[:-1]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--workload", action="append",
                   help="run only this workload (repeatable)")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            r = run_once(w, args.seed0 + i, seconds, 0)
            results[w].append(r)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in r["metrics"].items())
            print(f"round {i} {w} seed {args.seed0 + i}: "
                  f"correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} digest={r['digest']}\n  {values}",
                  flush=True)

    ok = True
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares {shares}")
        print(f"  {'metric':18s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s} {'raw median':>11s} "
              f"{'raw spread':>10s}")
        for name, bound in bounds.items():
            q1, med, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            raw = spread([r["raw"][name] for r in runs])
            if name == "setup_s":
                verdict = "not gated"
            elif s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict, ok = "TOO WIDE", False
            print(f"  {name:18s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{s:7.3f} {bound:6.2f} {raw[1]:11.4f} {raw[3]:10.3f}  "
                  f"{verdict}")
        ok &= all(r["correct"] for r in runs)

    if args.traced:
        for w in workloads:
            r = run_once(w, args.seed0, seconds, 1)
            same = r["digest"] == results[w][0]["digest"] if args.runs else None
            ok &= r["correct"] and same is not False
            print(f"\ntraced {w} seed {args.seed0}: correct={r['correct']}, "
                  f"digest matches the untraced run: {same}")
            print("\n".join(r["text"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
