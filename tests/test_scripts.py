"""Every script under ``scripts/`` imports against the current package and
defines its ``main`` entry point."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports_and_defines_main(path):
    assert callable(_load(path).main)


def test_bench_pairs_summary_counts_wins_in_each_metrics_direction():
    module = _load(SCRIPT_DIR / "bench_pairs.py")

    def run(ms, rate, digest="d0", laps=3, correct=True):
        return {"metrics": {"pipeline_ms_p50": ms, "realtime_factor": rate},
                "digest": digest, "laps": laps, "correct": correct}

    pairs = [(run(10.0, 1.0), run(8.0, 1.2)),
             (run(12.0, 1.0), run(12.0, 0.9, laps=4)),
             (run(11.0, 1.1), run(9.0, 1.1, digest="d1", correct=False))]
    summary = module.summarize(pairs, [("pipeline_ms_p50", "lower", None),
                                       ("realtime_factor", "higher", None)])
    ms = summary["pipeline_ms_p50"]
    assert ms["parent"] == (10.5, 11.0, 11.5)
    assert ms["change"] == (8.5, 9.0, 10.5)
    assert ms["won"] == 2                  # a tie is not a win
    assert summary["realtime_factor"]["won"] == 1
    assert summary["digests"] == {"parent": {"d0"}, "change": {"d0", "d1"}}
    assert summary["laps"] == {"parent": {3}, "change": {3, 4}}
    assert summary["incorrect"] == {"parent": 0, "change": 1}


def test_bench_pairs_alternates_which_side_runs_first(tmp_path, monkeypatch,
                                                      capsys):
    module = _load(SCRIPT_DIR / "bench_pairs.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "pipeline_ms_p50", "better": "lower"}]}))
    order = []

    def run_once(checkout, *_):
        order.append(checkout.name)
        ms = 10.0 if checkout == parent else 8.0
        return {"metrics": {"pipeline_ms_p50": ms}, "digest": checkout.name,
                "laps": 0, "correct": True}

    monkeypatch.setattr(module, "run_once", run_once)
    assert module.main([str(parent), str(change), "--workload", "w",
                        "--seed", "1", "--pairs", "3"]) == 0
    assert order == ["parent", "change", "change", "parent",
                     "parent", "change"]
    out = capsys.readouterr().out
    assert out.count("10 -> 8") == 3                  # each run on its side
    assert "3 of 3" in out and "parent ['parent']; change ['change']" in out


def test_bench_pairs_compares_runs_of_equal_lap_count(tmp_path, monkeypatch,
                                                      capsys):
    """Runs of 1 and 2 laps differ in tail and memory whatever the code, so
    each pair line names its lap counts, and a side that mixes them gets a
    table per lap count that both sides ran, wins counted over the pairs
    whose runs both ran it."""
    module = _load(SCRIPT_DIR / "bench_pairs.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "pipeline_ms_tail", "better": "lower"}]}))
    # (parent laps, parent tail), (change laps, change tail), in pair order
    # (the change runs first in even pairs).
    runs = iter([(2, 26.0), (1, 16.0), (2, 24.0), (2, 27.0),
                 (2, 28.0), (2, 25.0), (1, 15.0), (2, 26.5)])

    def run_once(checkout, *_):
        laps, tail = next(runs)
        return {"metrics": {"pipeline_ms_tail": tail}, "digest": f"d{laps}",
                "laps": laps, "correct": True}

    monkeypatch.setattr(module, "run_once", run_once)
    assert module.main([str(parent), str(change), "--workload", "w",
                        "--seed", "1", "--pairs", "4"]) == 0
    out = capsys.readouterr().out
    assert "pair 1, parent first, laps 2 -> 1:" in out
    assert "pair 2, change first, laps 2 -> 2:" in out
    assert "pair 4, change first, laps 2 -> 1:" in out
    assert "laps: parent [2]; change [1, 2]" in out
    assert out.count("runs of ") == 1
    table = out[out.index("runs of 2 laps only"):]
    # Parent 26, 27, 28, 26.5; change 24, 25: the change won both pairs that
    # ran 2 laps on each side.
    assert "26.75 [26.38, 27.25]" in table and "24.5 [24.25, 24.75]" in table
    assert "2 of 2" in table
    assert "laps: parent [2]; change [2]" in table


    def run(laps, tail):
        return {"metrics": {"pipeline_ms_tail": tail}, "digest": "d",
                "laps": laps, "correct": True}

    # Both sides ran 1 and 2 laps, never in the same pair.
    crossed = module.summarize([(run(1, 16.0), run(2, 24.0)),
                                (run(2, 27.0), run(1, 15.0))],
                               [("pipeline_ms_tail", "lower", None)], laps=1)
    assert crossed["pairs"] == 0 and crossed["pipeline_ms_tail"]["won"] == 0
    assert crossed["pipeline_ms_tail"]["parent"] == (16.0, 16.0, 16.0)
    assert crossed["pipeline_ms_tail"]["change"] == (15.0, 15.0, 15.0)


def test_bench_pairs_verdict_holds_each_metric_to_its_bound():
    """Worse is positive in either direction; past the bound is ``over``; a
    parent spread wider than the bound is ``unresolved`` unless every change
    run beats every parent run."""
    verdict = _load(SCRIPT_DIR / "bench_pairs.py").verdict
    steady = [9.9, 10.0, 10.0, 10.1, 10.2]
    assert verdict(steady, [10.1, 10.2, 10.2, 10.3, 10.4], "lower", 0.25) \
        == (pytest.approx(2.0), "ok")
    assert verdict(steady, [12.0, 13.0, 13.0, 13.0, 14.0], "lower", 0.25) \
        == (pytest.approx(30.0), "over")
    assert verdict(steady, [0.5, 0.6, 0.6, 0.7, 0.8], "higher", 0.25)[1] \
        == "over"
    assert verdict(steady, [10.6, 10.7, 10.7, 10.8, 10.9], "higher",
                   0.05) == (pytest.approx(-7.0), "ok")
    wide = [6.0, 8.0, 10.0, 12.0, 14.0]   # quartiles 8 and 12 about 10
    assert verdict(wide, [7.0, 9.0, 10.0, 11.0, 13.0], "lower", 0.25) \
        == (0.0, "unresolved")
    assert verdict(wide, [5.0, 5.2, 5.5, 5.6, 5.9], "lower", 0.25)[1] == "ok"
    assert verdict(wide, [5.0, 5.2, 5.5, 5.6, 6.0], "lower", 0.25)[1] \
        == "unresolved"                   # a tie with a parent run


def test_bench_pairs_prints_a_verdict_per_lap_count(tmp_path, monkeypatch,
                                                    capsys):
    """Each end-to-end row, in the pooled table and the one per lap count,
    ends in the change's median against the parent's, its bound and its
    verdict; a metric without a bound gets none."""
    module = _load(SCRIPT_DIR / "bench_pairs.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "pipeline_ms_tail", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        {"name": "ticks", "better": "higher"}]}))
    # Per run, in pair order (the change runs first in even pairs): laps,
    # tail, RSS. 2-lap runs read 27 ms and 91 MB, 1-lap runs 15 ms and
    # 87 MB; the change's 2-lap RSS is 10 % up.
    runs = iter([(2, 27.0, 91.0), (1, 15.0, 87.0), (2, 27.0, 100.1),
                 (2, 27.0, 91.0), (1, 15.0, 87.0), (1, 15.0, 87.0),
                 (2, 27.0, 100.1), (2, 27.0, 91.0)])

    def run_once(checkout, *_):
        laps, tail, rss = next(runs)
        return {"metrics": {"pipeline_ms_tail": tail, "peak_rss_mb": rss,
                            "ticks": 10.0},
                "digest": "d", "laps": laps, "correct": True}

    monkeypatch.setattr(module, "run_once", run_once)
    assert module.main([str(parent), str(change), "--workload", "w",
                        "--seed", "1", "--pairs", "4"]) == 0
    out = capsys.readouterr().out
    two = out[out.index("runs of 2 laps only"):]
    one = out[out.index("runs of 1 laps only"):out.index("runs of 2 laps")]
    assert "  +0.0%    25%  ok" in two
    assert " +10.0%     5%  over" in two
    assert "  +0.0%     5%  ok" in one
    ticks = [line for line in out.splitlines() if line.startswith("  ticks ")]
    assert len(ticks) == 3 and not any("%" in line for line in ticks)
