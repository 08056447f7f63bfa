"""Alternating parent/change runs of one benchmark workload, summarised.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload teach_forest_default --seed 201 --pairs 5 --seconds 10

Runs ``perfbench/run.py`` once in PARENT_DIR and once in CHANGE_DIR per
pair, each in its own checkout; the parent runs first in odd pairs and the
change first in even ones, so an effect of running first or second falls on
both sides alike. Each pair's line gives its two runs' lap counts (from
the runs' ``lap i:`` lines; 0 for a workload without laps). It prints, for
each side, the median and quartiles of every metric that CHANGE_DIR's
``BENCHMARK.json`` names (end-to-end with ``--trace 0``, per-layer with
``--trace 1``), the number of pairs the change won on each, the set of
output digests and the set of lap counts. The lap count sets a laps run's
digest, tail and memory, so when the runs differ in it, one more table
follows for each lap count that both sides ran.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

LAP_LINE = re.compile(r"^\s*lap \d+:")


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its metric values, its
    digest, its lap count and whether its checks passed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"perfbench/run.py failed in {checkout}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    return {"metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "digest": next(line.split()[1] for line in lines
                           if line.startswith("digest ")),
            "laps": sum(bool(LAP_LINE.match(line)) for line in lines),
            "correct": result["correct"]}


def _quartiles(values) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, metrics, laps=None) -> dict:
    """Summary of ``pairs``, a list of (parent run, change run) as
    ``run_once`` returns them, over ``metrics``, a list of (name, "lower" or
    "higher" is better). Each metric maps to the parent's and the change's
    (first quartile, median, third quartile) and the number of pairs whose
    change run was strictly better, out of ``pairs``; ``digests``, ``laps``
    and ``incorrect`` map each side to its set of digests, its set of lap
    counts and its number of runs whose checks failed.

    With ``laps``, only the runs of that lap count enter: each side's
    quartiles are over its runs of that count, and the wins over the pairs
    whose two runs both have it."""
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    if laps is not None:
        sides = {side: [r for r in runs if r["laps"] == laps]
                 for side, runs in sides.items()}
        pairs = [(p, c) for p, c in pairs if p["laps"] == c["laps"] == laps]
    out = {"pairs": len(pairs)}
    for name, better in metrics:
        sign = 1.0 if better == "lower" else -1.0
        out[name] = {
            side: _quartiles([r["metrics"][name] for r in runs])
            for side, runs in sides.items()}
        out[name]["won"] = sum(sign * (c["metrics"][name] - p["metrics"][name])
                               < 0 for p, c in pairs)
    for key, field in (("digests", "digest"), ("laps", "laps")):
        out[key] = {side: {r[field] for r in runs}
                    for side, runs in sides.items()}
    out["incorrect"] = {side: sum(not r["correct"] for r in runs)
                        for side, runs in sides.items()}
    return out


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def _print_table(title, summary, metrics) -> None:
    print(title)
    print(f"  {'metric':28s} {'parent median [q1, q3]':28s} "
          f"{'change median [q1, q3]':28s} change won")
    for name, _ in metrics:
        row = summary[name]
        print(f"  {name:28s} {_fmt(row['parent']):28s} "
              f"{_fmt(row['change']):28s} {row['won']} of {summary['pairs']}")
    for key in ("digests", "laps", "incorrect"):
        print(f"  {key}: " + "; ".join(
            f"{side} {sorted(v) if isinstance(v, set) else v}"
            for side, v in summary[key].items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"])
               for m in spec["per_layer" if args.trace else "end_to_end"]]
    pairs = []
    for i in range(args.pairs):
        swap = i % 2 == 1
        first, second = (run_once(side, args.workload, args.seed,
                                  args.seconds, args.trace)
                         for side in ((args.change, args.parent) if swap
                                      else (args.parent, args.change)))
        pair = (second, first) if swap else (first, second)
        pairs.append(pair)
        print(f"pair {i + 1}, {'change' if swap else 'parent'} first, "
              f"laps {pair[0]['laps']} -> {pair[1]['laps']}: "
              + ", ".join(f"{name} {pair[0]['metrics'][name]:.4g} -> "
                          f"{pair[1]['metrics'][name]:.4g}"
                          for name, _ in metrics[:2]), flush=True)

    summary = summarize(pairs, metrics)
    _print_table(f"{args.workload} seed {args.seed}, {len(pairs)} pairs, "
                 f"--seconds {args.seconds} --trace {args.trace}",
                 summary, metrics)
    laps = summary["laps"]
    if len(laps["parent"] | laps["change"]) > 1:
        common = sorted(laps["parent"] & laps["change"])
        if not common:
            print("no lap count ran on both sides")
        for count in common:
            _print_table(f"runs of {count} laps only", summarize(
                pairs, metrics, laps=count), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
