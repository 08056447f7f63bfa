"""The benchmark's tracer (perfbench/harness.py) patches trailnav functions by
the names their callers look up. These checks fail when such a name or return
shape changes, instead of ``perfbench/run.py --trace 1`` breaking silently."""

import json
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from harness import Probe, Tracer  # noqa: E402
from test_mission import _small_cfg, _small_world  # noqa: E402

from trailnav.geom import FRAME_MAP, PointCloud  # noqa: E402
from trailnav.mapping import (MappingConfig, VoxelMap, insert_scan,  # noqa: E402
                              retile)
from trailnav.runner import run_teach  # noqa: E402


def test_every_traced_attribute_resolves():
    targets = Tracer(Probe())._targets()
    assert targets
    for owner, name, _ in targets:
        assert callable(getattr(owner, name)), f"{owner.__name__}.{name}"


def test_voxel_map_keeps_the_cache_the_tracer_reads(tmp_path):
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    assert vmap._cache is None
    vmap._local_arrays()
    assert vmap._cache is not None


def test_retile_returns_its_actions_second(tmp_path):
    vmap = VoxelMap(5.0, spill_dir=tmp_path)
    cfg = MappingConfig(r=10.0, v_s=5.0)
    pts = np.random.default_rng(0).uniform(-40, 40, (500, 3))
    insert_scan(vmap, PointCloud(pts, FRAME_MAP), cfg.rho)
    out = retile(vmap, [0.0, 0.0, 0.0], cfg)
    assert len(out) == 2
    assert out[0] is vmap
    actions = out[1]
    assert isinstance(actions, list) and actions
    assert all(kind in ("load", "unload") and isinstance(key, tuple)
               for kind, key in actions)


def test_traced_small_teach_reports_every_layer():
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_ms"}
    probe = Probe()
    tracer = Tracer(probe)
    with probe.installed(), tracer.active():
        probe.start()
        run_teach(_small_world(length=6.0), _small_cfg(),
                  waypoints=[(6.0, 0.0)], v_teach=1.0)
    metrics = tracer.metrics(probe.factor())
    assert wanted <= set(metrics), sorted(wanted - set(metrics))
    assert metrics["mission.ref_index_builds"] == 0
    assert metrics["mapping.local_rebuilds"] <= 2.0
