import numpy as np
import pytest

from trailnav.analysis import CrossTrackSeries
from trailnav.cli import main
from trailnav.csvio import CsvFormatError, read_csv, read_float_csv, write_csv
from trailnav.geom import PointCloud
from trailnav.mapping import MAP_FORMAT, MAP_VERSION
from trailnav.npcd import write_npcd
from trailnav.trajectory import TRAJECTORY_HEADER, Trajectory


def test_cells_are_written_by_one_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"],
              [(0.1, 3, "goal_reached", None),
               (np.float64(1e-17), np.int64(2), 2.0, float("nan"))])
    assert path.read_bytes() == (b"a,b,c,d\r\n"
                                 b"0.1,3,goal_reached,\r\n"
                                 b"1e-17,2.0,2.0,nan\r\n")


def test_float_rows_round_trip_bit_exact(tmp_path):
    data = np.random.default_rng(0).normal(size=(50, 3)) * 1e3
    write_csv(tmp_path / "t.csv", ["x", "y", "z"], data)
    back = read_float_csv(tmp_path / "t.csv", ["x", "y", "z"])
    assert back.shape == (50, 3) and np.array_equal(back, data)
    write_csv(tmp_path / "empty.csv", ["x", "y", "z"], [])
    assert read_float_csv(tmp_path / "empty.csv", ["x", "y", "z"]).shape \
        == (0, 3)


def test_typed_columns(tmp_path):
    write_csv(tmp_path / "t.csv", ["stamp", "file"], [(0.5, "scan_00000.npcd")])
    assert read_csv(tmp_path / "t.csv", ["stamp", "file"], (float, str)) == \
        [[0.5, "scan_00000.npcd"]]


@pytest.mark.parametrize("text, line, why", [
    ("x,z\n1.0,2.0\n", 1, "not the expected header x,y"),
    ("", 1, "not the expected header x,y"),
    ("x,y\n1.0,2.0\n3.0\n", 3, "1 cells where the expected header x,y has 2"),
    ("x,y\n1.0,2.0\n\n", 3, "0 cells"),
    ("x,y\n1.0,2.0,3.0\n", 2, "3 cells"),
    ("x,y\n1.0,abc\n", 2, "could not convert string to float: 'abc'"),
    ("x,y\n1.0,\n", 2, "could not convert string to float"),
])
def test_malformed_table_names_file_line_and_header(tmp_path, text, line, why):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as exc:
        read_float_csv(path, ["x", "y"])
    msg = str(exc.value)
    assert msg.startswith(f"{path}: line {line}: ")
    assert why in msg and "x,y" in msg


def test_cross_track_series_reads_what_it_writes(tmp_path):
    rng = np.random.default_rng(1)
    series = CrossTrackSeries(*rng.random((3, 20)))
    series.save_csv(tmp_path / "a.csv")
    series.save_csv(tmp_path / "b.csv")
    back = CrossTrackSeries.load_csv(tmp_path / "a.csv", tmp_path / "b.csv")
    for got, want in ((back.arc_position, series.arc_position),
                      (back.eps_ct, series.eps_ct), (back.kappa, series.kappa)):
        assert np.array_equal(got, np.concatenate([want, want]))


# -- malformed input files through the CLI: exit 4, message names the file ---


def _trajectory(n=12):
    s = np.linspace(0.0, 5.0, n)
    return Trajectory(s, np.column_stack([s, np.zeros((n, 2))]),
                      np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)))


def _exits_four(capsys, argv, path):
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and f"{path}: line " in err
    return err


def test_cross_track_short_row_exits_four(tmp_path, capsys):
    _trajectory().save_csv(tmp_path / "ref.csv")
    executed = tmp_path / "executed.csv"
    _trajectory().save_csv(executed)
    lines = executed.read_text().splitlines()
    lines[4] = ",".join(lines[4].split(",")[:5])
    executed.write_text("\n".join(lines) + "\n")
    err = _exits_four(capsys, ["analyze", "cross-track",
                               "--executed", str(executed),
                               "--reference", str(tmp_path / "ref.csv"),
                               "--out-dir", str(tmp_path / "ct")], executed)
    assert "line 5: 5 cells" in err
    assert not (tmp_path / "ct" / "cross_track.csv").exists()


@pytest.mark.parametrize("text, why", [
    ("arc,eps,kappa\n0.0,0.01,0.0\n0.1,high,0.0\n", "line 3"),
    ("arc,eps,curvature\n0.0,0.01,0.0\n", "line 1"),
])
def test_curvature_bins_malformed_series_exits_four(tmp_path, capsys, text,
                                                     why):
    good = tmp_path / "good.csv"
    CrossTrackSeries(np.zeros(3), np.zeros(3), np.zeros(3)).save_csv(good)
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    err = _exits_four(capsys, ["analyze", "curvature-bins", "--cross-track",
                               str(good), str(bad),
                               "--out-dir", str(tmp_path / "bins")], bad)
    assert why in err and "arc,eps,kappa" in err


def _one_scan_log(scans):
    """A one-scan log in ``scans``: the scan, its start record, one IMU and
    one odometry sample."""
    scans.mkdir()
    write_npcd(scans / "scan_00000.npcd",
               PointCloud(np.zeros((2, 3)), timestamps=np.array([0.0, 0.01])))
    (scans / "scans.csv").write_text("stamp,file\n0.0,scan_00000.npcd\n")
    (scans / "start.csv").write_text("x,y,z,yaw\n0.0,0.0,1.3,0.0\n")
    (scans / "imu.csv").write_text("scan,stamp,dt,gx,gy,gz,ax,ay,az\n"
                                   "0,0.01,0.01,0.0,0.0,0.0,0.0,0.0,9.81\n")
    (scans / "odom.csv").write_text("scan,stamp,v\n0,0.01,1.0\n")


def test_replay_short_imu_row_exits_four(tmp_path, capsys):
    scans = tmp_path / "scans"
    _one_scan_log(scans)
    with open(scans / "imu.csv", "a") as fh:
        fh.write("0,0.02,0.01,0.0,0.0,0.0,0.0\n")
    err = _exits_four(capsys, ["replay", "--scans", str(scans),
                               "--out-dir", str(tmp_path / "r")],
                      scans / "imu.csv")
    assert "line 3: 7 cells" in err


@pytest.mark.parametrize("empty", ["imu.csv", "odom.csv"])
def test_replay_log_without_samples_exits_four(tmp_path, capsys, empty):
    scans = tmp_path / "scans"
    _one_scan_log(scans)
    header = (scans / empty).read_text().splitlines()[0]
    (scans / empty).write_text(header + "\n")
    assert main(["replay", "--scans", str(scans),
                 "--out-dir", str(tmp_path / "r")]) == 4
    assert (f"{scans / empty}: no samples for scan 0 of the 1 logged scans"
            in capsys.readouterr().err)


def test_repeat_truncated_trajectory_exits_four(tmp_path, capsys):
    db = tmp_path / "db"
    db.mkdir()
    (db / "manifest.json").write_text(
        f'{{"format": "{MAP_FORMAT}", "version": {MAP_VERSION}, '
        f'"v_s": 10.0, "voxels": []}}')
    _trajectory().save_csv(db / "trajectory.csv")
    text = (db / "trajectory.csv").read_text()
    last = text.rstrip("\n").rfind("\n") + 1       # cut halfway into the last row
    (db / "trajectory.csv").write_text(text[:last + (len(text) - last) // 2])
    err = _exits_four(capsys, ["repeat", "--db", str(db),
                               "--out-dir", str(tmp_path / "r")],
                      db / "trajectory.csv")
    assert "line 13" in err


def _trajectory_csv(path, n=12, cell=None):
    """``_trajectory(n)`` written to ``path``, with the table cell (row,
    column) set to a value when ``cell`` is (row, column, value)."""
    t = _trajectory(n)
    table = np.column_stack([t.stamps, t.positions, t.quats, t.arc_length])
    if cell is not None:
        table[cell[:2]] = cell[2]
    write_csv(path, TRAJECTORY_HEADER, table)


_CROSS_TRACK = ["analyze", "cross-track", "--executed", "executed.csv",
                "--reference", "reference.csv"]


@pytest.mark.parametrize("argv, bad, rows, cell, why", [
    (_CROSS_TRACK, "reference.csv", 12, (5, 8, 0.0),
     "arc_length must be non-decreasing"),
    (_CROSS_TRACK, "executed.csv", 12, (3, 0, 0.0),
     "stamps must be strictly increasing"),
    (_CROSS_TRACK, "executed.csv", 1, None,
     "1 rows; an executed trajectory needs at least 2"),
    (_CROSS_TRACK, "reference.csv", 9, None,
     "9 rows; a reference's curvature fit needs at least 10"),
    (["analyze", "curvature-bins", "--cross-track", "series.csv"],
     "series.csv", None, None, "0 rows; curvature binning needs at least 1"),
    (["repeat", "--db", "."], "trajectory.csv",
     12, (3, 0, 0.0), "stamps must be strictly increasing"),
], ids=["decreasing_arc_length", "repeated_stamp", "one_executed_pose",
        "nine_reference_poses", "header_only_series", "repeat_database"])
def test_unusable_input_file_exits_four_naming_it(tmp_path, capsys,
                                                  monkeypatch, argv, bad,
                                                  rows, cell, why):
    monkeypatch.chdir(tmp_path)
    for name in ("executed.csv", "reference.csv", "trajectory.csv"):
        _trajectory_csv(name, *((rows, cell) if name == bad else ()))
    write_csv("series.csv", CrossTrackSeries.HEADER, [])
    if argv[0] == "repeat":
        (tmp_path / "manifest.json").write_text(
            f'{{"format": "{MAP_FORMAT}", "version": {MAP_VERSION}, '
            f'"v_s": 10.0, "voxels": []}}')
    assert main(argv + ["--out-dir", "out"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {bad}: ") and why in err
