from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from trailnav.cli import main
from trailnav.config import (ConfigError, GlobalConfig, config_from_dict,
                             load_config, save_config)
from trailnav.icp import RegistrationFailure
from trailnav.mission import TeachAbort
from trailnav.csvio import read_csv, read_float_csv
from trailnav.npcd import read_npcd
from trailnav.runner import IMU_HEADER, ODOM_HEADER, SCANS_HEADER
from trailnav.simworld import LidarParams, WorldParams

REPO_ROOT = Path(__file__).resolve().parents[1]


def _small_config() -> GlobalConfig:
    """Seed 3 at the acceptance tests' small lidar (8x200 beams, 20 m)."""
    cfg = GlobalConfig(seed=3)
    cfg.sim.lidar = LidarParams(beams=8, azimuth_steps=200, rate=2.5,
                                max_range=20.0)
    cfg.registration.r = cfg.mapping.r = 20.0
    return cfg


def _ten_metre_world(tmp_path, cfg=None) -> list[str]:
    """``--config`` arguments naming ``cfg`` (defaults when omitted), set on
    a 10 m trail and saved."""
    cfg = cfg or GlobalConfig()
    cfg.world = WorldParams(trail_length=10.0)
    save_config(cfg, tmp_path / "ten_metres.yaml")
    return ["--config", str(tmp_path / "ten_metres.yaml")]


def test_shipped_default_config_matches_code_defaults():
    """Every shipped config loads; ``default.yaml`` is the code's defaults,
    and ``demo.yaml`` the demo's trail."""
    shipped = {path.name: load_config(path)
               for path in sorted((REPO_ROOT / "configs").glob("*.yaml"))}
    assert set(shipped) == {"default.yaml", "demo.yaml"}
    demo = shipped["demo.yaml"]
    assert demo.seed == 4 and len(demo.world.centerline) == 32
    cfg = shipped["default.yaml"]
    assert cfg == GlobalConfig()
    reg = cfg.registration
    assert (reg.eta_s, reg.r, reg.n_m, reg.eps) == (0.7, 80.0, 7, 1.0)
    assert (reg.d_max, reg.eta_d, reg.i_max) == (2.0, 0.7, 40)
    assert (reg.eps_theta_min, reg.eps_t_min) == (0.001, 0.01)
    assert reg.bboxes == [(-1.5, 0.5, -1.0, 1.0, -1.0, 0.5),
                          (-10.0, -1.5, -2.5, 2.5, -1.0, 1.0)]
    mp = cfg.mapping
    assert (mp.rho, mp.v_s, mp.n_n, mp.tau_d) == (0.1, 20.0, 15, 0.8)
    pf = cfg.path_following
    assert (pf.k, pf.K_h, pf.omega_m, pf.K_g) == (0.4, 3.0, 1.0, 0.5)
    assert (pf.v_nom, pf.v_min, pf.v_max) == (1.5, 0.5, 1.5)
    assert (pf.tau_g, pf.tau_w) == (0.15, 1.0)
    assert (cfg.prior.beta, cfg.prior.rate_hz) == (0.1, 100.0)
    assert cfg.mission.d_ref == 0.05
    assert cfg.mission.init_overlap_floor == 40.0


def test_round_trip_preserves_config(tmp_path):
    cfg = GlobalConfig(seed=7)
    cfg.registration.eta_s = 0.5
    cfg.mapping.rho = 0.2
    save_config(cfg, tmp_path / "c.yaml")
    assert load_config(tmp_path / "c.yaml") == cfg


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="unknown key 'mapping.bogus'"):
        config_from_dict({"mapping": {"bogus": 1}})
    with pytest.raises(ConfigError, match="unknown key 'sim.lidar.bogus'"):
        config_from_dict({"sim": {"lidar": {"bogus": 1}}})
    with pytest.raises(ConfigError, match="unknown key '1'"):
        config_from_dict({1: 2, "bogus": 3})


def test_invalid_value_names_section():
    with pytest.raises(ConfigError, match="registration"):
        config_from_dict({"registration": {"eta_d": 1.3}})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": "zero"})
    with pytest.raises(ConfigError, match="registration"):
        config_from_dict({"registration": {"bboxes": [list("abcdef")]}})


@pytest.mark.parametrize("data, key", [
    ({"sim": {"lidar": {"max_range": "far"}}}, "sim.lidar.max_range"),
    ({"mapping": {"rho": True}}, "mapping.rho"),
    ({"world": {"trail_length": "ten"}}, "world.trail_length"),
], ids=["string_max_range", "bool_rho", "string_trail_length"])
def test_float_key_rejects_a_non_number(data, key):
    """A string or a bool for a ``float`` key is rejected with its key path,
    whether or not the section's own checks would catch it."""
    with pytest.raises(ConfigError, match=f"'{key}' must be a number"):
        config_from_dict(data)


def test_float_key_accepts_an_integer():
    cfg = config_from_dict({"mapping": {"rho": 1}, "world": {"cell": 2}})
    assert cfg.mapping.rho == 1 and cfg.world.cell == 2


def test_partial_config_fills_defaults(tmp_path):
    (tmp_path / "c.yaml").write_text("seed: 3\nmapping:\n  rho: 0.15\n")
    cfg = load_config(tmp_path / "c.yaml")
    assert cfg.seed == 3
    assert cfg.mapping.rho == 0.15
    assert cfg.registration == GlobalConfig().registration


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.yaml")


# One value per WorldParams field, each unlike its default, in the types the
# world generator is given in code.
_WORLD_FIELDS = dict(
    trail_width=3.0, trail_length=80.0, tree_density=0.04,
    extent=(-10.0, 90.0, -30.0, 30.0), cell=0.5, terrain_amplitude=0.3,
    terrain_scale=20.0, centerline=[(0.0, 0.0), (40.0, 5.0), (80.0, 0.0)],
    buildings=[(50.0, 12.0, 6.0, 4.0, 3.0)], clearing_center=(40.0, 5.0),
    clearing_radius=8.0, canopy_porosity=0.5, trunk_height=(2.5, 6.0),
    trunk_radius=(0.1, 0.25), foliage_radius=(1.2, 2.0),
    foliage_jitter_sd=0.05)


def test_config_to_dict_is_plain_yaml(tmp_path):
    """``save_config`` writes plain YAML, with no ``!!python/`` tag for the
    tuples of a registration box or of the world."""
    cfg = GlobalConfig(world=WorldParams(**_WORLD_FIELDS))
    save_config(cfg, tmp_path / "c.yaml")
    text = (tmp_path / "c.yaml").read_text()
    assert "!!" not in text
    assert config_from_dict(yaml.safe_load(text)) == cfg


def test_save_config_writes_numpy_scalars_as_numbers(tmp_path):
    """A config built from numpy values, such as a numpy path's rows, saves
    as plain numbers and loads back equal."""
    path = np.array([[0.0, 0.0], [10.0, 2.0]])
    cfg = GlobalConfig(seed=np.int64(3), world=WorldParams(
        centerline=[tuple(p) for p in path],
        extent=tuple(np.array([-5.0, 15.0, -5.0, 5.0])),
        buildings=[tuple(np.array([5.0, 3.0, 1.0, 1.0, 2.0]))],
        clearing_center=(np.float32(1.5), np.float64(2.0)),
        clearing_radius=np.float64(1.0)))
    save_config(cfg, tmp_path / "c.yaml")
    assert "!!" not in (tmp_path / "c.yaml").read_text()
    assert load_config(tmp_path / "c.yaml") == cfg


def test_world_spec_round_trips_every_field(tmp_path):
    """Every WorldParams field loads back equal, in its own type, through a
    saved config's world section; a field this test does not list fails
    it."""
    assert set(_WORLD_FIELDS) == {f.name for f in fields(WorldParams)}
    params = WorldParams(**_WORLD_FIELDS)
    assert all(getattr(params, f.name) != getattr(WorldParams(), f.name)
               for f in fields(WorldParams))
    save_config(GlobalConfig(seed=3, world=params), tmp_path / "c.yaml")
    back = load_config(tmp_path / "c.yaml")
    assert back.seed == 3 and back.world == params
    for f in fields(WorldParams):
        assert (type(getattr(back.world, f.name))
                is type(getattr(params, f.name)))


# -- CLI ----------------------------------------------------------------------


@pytest.mark.parametrize("text, key", [
    ("sim:\n  lidar:\n    beams: 8.0\n", "sim.lidar.beams"),
    ("registration:\n  n_m: 7.0\n", "registration.n_m"),
    ("mapping:\n  n_n: true\n", "mapping.n_n"),
    ("sim:\n  canopy_porosity: 0.3\n", "sim.canopy_porosity"),
    ("sim:\n  lidar:\n    max_range: far\n", "sim.lidar.max_range"),
], ids=["float_beams", "float_n_m", "bool_n_n", "porosity_in_config",
        "string_max_range"])
def test_cli_bad_config_key_exit_two(tmp_path, capsys, text, key):
    """An integer key given a float or a bool, a float key given a string,
    or a key the config does not have, exits 2 with the key path named."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    rc = main(["teach", "--out-dir", str(tmp_path / "t"),
               "--config", str(path)])
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_world_spec_porosity_reaches_the_world(tmp_path, monkeypatch):
    import trailnav.cli as cli
    worlds = []

    def recording_run_teach(world, *args, **kwargs):
        worlds.append(world)
        raise TeachAbort("stop after world generation", scan_id=0,
                         last_pose=None)

    monkeypatch.setattr(cli, "run_teach", recording_run_teach)
    (tmp_path / "c.yaml").write_text(
        "world:\n  trail_length: 10.0\n  canopy_porosity: 0.7\n")
    assert main(["teach", "--out-dir", str(tmp_path / "t"),
                 "--config", str(tmp_path / "c.yaml")]) == 3
    assert worlds[0].params.canopy_porosity == 0.7


def test_cli_bad_config_exit_two(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mapping:\n  bogus: 1\n")
    rc = main(["teach", "--out-dir", str(tmp_path / "t"),
               "--config", str(bad)])
    assert rc == 2
    rc = main(["teach", "--out-dir", str(tmp_path / "t"),
               "--config", str(tmp_path / "absent.yaml")])
    assert rc == 2


@pytest.mark.parametrize("text, why", [
    ("world:\n  bogus: 2\n", "unknown key 'world.bogus'"),
    ("world:\n  trail_length: ten\n", "'world.trail_length' must be a number"),
    ("world:\n  canopy_porosity: 1.5\n", "world: canopy_porosity"),
    ("seed: 1.7\n", "'seed' must be an integer"),
    ("seed: true\n", "'seed' must be an integer"),
    ("world:\n  cell: 0.0\n", "world: cell must be positive"),
    ("world:\n  extent: [10.0, -10.0, -5.0, 5.0]\n", "world: extent"),
    ("world:\n  trunk_height: 3\n", "world: trunk_height"),
    ("world:\n  trunk_radius: [0.3, 0.1]\n", "world: trunk_radius"),
    ("world:\n  centerline: [[0.0, 0.0]]\n", "world: centerline"),
    ("world:\n  buildings: [[1.0, 2.0]]\n", "world: buildings"),
    ("world:\n  terrain_scale: 0.0\n", "world: terrain_scale"),
    ("world:\n  foliage_jitter_sd: -0.1\n", "world: foliage_jitter_sd"),
    ("world:\n  clearing_center: [1.0]\n", "world: clearing_center"),
    ("world:\n  buildings: [[a, 1, 1, 1, 1]]\n", "'world.buildings'"),
    ("world:\n  buildings: [[1, 1, true, 1, 2]]\n", "'world.buildings'"),
    ("world:\n  buildings: [[1, 1, 1, 1, -3]]\n", "world: buildings"),
    ("world:\n  clearing_center: [a, 1]\n  clearing_radius: 2.0\n",
     "'world.clearing_center'"),
    ("world:\n  clearing_center: [true, 1]\n", "'world.clearing_center'"),
    ("world:\n  centerline: [[0, 0], [10, x]]\n", "'world.centerline'"),
    ("world:\n  extent: [-5, 5, -5, null]\n", "'world.extent'"),
], ids=["unknown_key", "bad_json", "porosity_above_one", "float_seed",
        "bool_seed", "zero_cell", "inverted_extent", "scalar_trunk_height",
        "inverted_trunk_radius", "one_point_centerline", "short_building",
        "zero_terrain_scale", "negative_jitter", "one_number_clearing_center",
        "string_in_building", "bool_in_building", "negative_building_height",
        "string_in_clearing_center", "bool_in_clearing_center",
        "string_in_centerline", "null_in_extent"])
def test_cli_malformed_world_spec_exit_two(tmp_path, capsys, text, why):
    """A config whose world section, or whose seed (the world's seed), is
    malformed exits 2 with the world key or the seed named."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    rc = main(["teach", "--out-dir", str(tmp_path / "t"), "--config",
               str(path)])
    assert rc == 2
    assert why in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("argv, option", [
    (["replay", "--scans", "s"], "--seed"),
    (["analyze", "cross-track", "--executed", "e", "--reference", "r"],
     "--seed"),
    (["analyze", "curvature-bins", "--cross-track", "c"], "--seed"),
    (["analyze", "overlap", "--db", "d", "--scans", "s"], "--seed"),
    (["analyze", "perturbation", "--db", "d", "--scans", "s"], "--seed"),
    (["analyze", "cross-track", "--executed", "e", "--reference", "r"],
     "--config"),
    (["analyze", "curvature-bins", "--cross-track", "c"], "--config"),
], ids=["replay_seed", "cross_track_seed", "curvature_bins_seed",
        "overlap_seed", "perturbation_seed", "cross_track_config",
        "curvature_bins_config"])
def test_cli_rejects_an_option_the_command_does_not_read(tmp_path, capsys,
                                                         argv, option):
    """A command declares only the shared options it reads; argparse exits 2
    on any other, before a missing file could be ignored."""
    value = "9" if option == "--seed" else str(tmp_path / "nothere.yaml")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "o"), option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_cli_missing_database_exit_four(tmp_path):
    rc = main(["repeat", "--out-dir", str(tmp_path / "r"),
               "--db", str(tmp_path / "no_such_db"),
               *_ten_metre_world(tmp_path)])
    assert rc == 4


_MANIFEST = ('{"format": "trailnav-map", "version": 1, "v_s": 10.0, '
             '"voxels": [{"index": [0, 0, 0], "count": 1, "file": "v.npcd"}]}')


@pytest.mark.parametrize("command", ["repeat", "overlap", "perturbation"])
@pytest.mark.parametrize("manifest, why", [
    (_MANIFEST[:-5], "JSONDecodeError"),
    (_MANIFEST.replace('"v_s"', '"edge"'), "KeyError 'v_s'"),
    (_MANIFEST.replace('"voxels"', '"chunks"'), "KeyError 'voxels'"),
    (_MANIFEST.replace('"file"', '"name"'), "KeyError 'file'"),
], ids=["bad_json", "no_v_s", "no_voxels", "no_entry_file"])
def test_cli_malformed_manifest_exit_four(tmp_path, capsys, command,
                                          manifest, why):
    db = tmp_path / "db"
    db.mkdir()
    (db / "manifest.json").write_text(manifest)
    if command == "repeat":
        argv = ["repeat", *_ten_metre_world(tmp_path)]
    else:
        argv = ["analyze", command, "--scans", str(tmp_path / "scans")]
    rc = main([*argv, "--db", str(db), "--out-dir", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err
    assert str(db / "manifest.json") in err and why in err


def test_cli_repeats_a_teach_from_its_saved_config(tmp_path, capsys):
    """The ``config_used.yaml`` a teach writes holds its world, so a repeat
    reads that file and the database, and nothing else."""
    cfg = _small_config()
    teach = tmp_path / "teach"
    assert main(["teach", "--out-dir", str(teach),
                 *_ten_metre_world(tmp_path, cfg)]) == 0
    assert load_config(teach / "config_used.yaml") == cfg
    assert main(["repeat", "--config", str(teach / "config_used.yaml"),
                 "--db", str(teach / "db"),
                 "--out-dir", str(tmp_path / "repeat")]) == 0
    assert "status goal_reached" in capsys.readouterr().out


def test_cli_teach_abort_exit_three(tmp_path, monkeypatch):
    def abort(state, scan, prior_tail):
        raise TeachAbort("teach registration failed on scan 0", scan_id=0,
                         last_pose=None)

    monkeypatch.setattr("trailnav.runner.teach_step", abort)
    rc = main(["teach", "--out-dir", str(tmp_path / "t"),
               *_ten_metre_world(tmp_path)])
    assert rc == 3


def test_cli_teach_abort_keeps_scan_log(tmp_path, monkeypatch, capsys):
    """A logged teach whose registration fails on scan k still exits 3 and
    leaves scans 0..k, each with its prior samples, for diagnosis; the log
    replays to the same abort, on scan k from a bit-equal last pose."""
    import trailnav.mission as mission
    import trailnav.runner as runner
    k = 3
    calls, aborts = [], []

    def failing_localize(*args, **kwargs):
        calls.append(1)
        if len(calls) == k + 1:
            raise RegistrationFailure("forced failure")
        return localize(*args, **kwargs)

    def recording_teach_step(*args):
        try:
            teach_step(*args)
        except TeachAbort as exc:
            aborts.append(exc)
            raise

    localize, teach_step = mission.localize, runner.teach_step
    monkeypatch.setattr(mission, "localize", failing_localize)
    monkeypatch.setattr(runner, "teach_step", recording_teach_step)
    cfg = _small_config()
    common = _ten_metre_world(tmp_path, cfg)
    rc = main(["teach", "--out-dir", str(tmp_path / "t"), "--log-scans",
               *common])
    assert rc == 3
    assert f"failed on scan {k}" in capsys.readouterr().err
    log = tmp_path / "t" / "scans"
    scans = read_csv(log / "scans.csv", SCANS_HEADER, (float, str))
    imu = read_float_csv(log / "imu.csv", IMU_HEADER)
    odom = read_float_csv(log / "odom.csv", ODOM_HEADER)
    assert len(scans) == k + 1
    per_scan = round(cfg.prior.rate_hz / cfg.sim.lidar.rate)
    assert len(imu) == len(odom) == (k + 1) * per_scan
    # The failing scan's prior window is logged too.
    assert np.array_equal(imu[-per_scan:, 0], np.full(per_scan, k))
    assert scans[-1][0] < imu[-per_scan, 1] < imu[-1, 1]
    assert len(read_npcd(log / scans[-1][1])) > 100

    calls.clear()
    assert main(["replay", "--scans", str(log),
                 "--out-dir", str(tmp_path / "r"), *common]) == 3
    taught, replayed = aborts
    assert replayed.scan_id == taught.scan_id == k
    assert np.array_equal(replayed.last_pose.rotation,
                          taught.last_pose.rotation)
    assert np.array_equal(replayed.last_pose.translation,
                          taught.last_pose.translation)
