"""Closed-loop simulation drivers: scripted teach runs, autonomous repeat runs,
and replay of logged scan sequences. Glues the simulator, prior integration,
the teach/repeat mission, and run logging together."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import GlobalConfig
from .controller import Pose2D, Status, wrap_angle
from .csvio import CsvFormatError, read_csv, read_float_csv, write_csv
from .geom import RigidTransform
from .mapping import VoxelMap
from .mission import (InitResult, RepeatState, RepeatStepResult, TeachState,
                      finalize_teach, initialize_localization, load_database,
                      repeat_step, teach_step)
from .npcd import read_npcd, write_npcd
from .prior import GRAVITY, dead_reckon
from .simworld import RobotState, World, simulate_lidar, step_robot
from .trajectory import Trajectory

RUN_LOG_HEADER = ["stamp", "x", "y", "theta", "x_n", "d_g", "v_x", "omega",
                  "status"]


SCANS_HEADER = ["stamp", "file"]
START_HEADER = ["x", "y", "z", "yaw"]
IMU_HEADER = ["scan", "stamp", "dt", "gx", "gy", "gz", "ax", "ay", "az"]
ODOM_HEADER = ["scan", "stamp", "v"]


def level_anchor(pose: RigidTransform) -> tuple:
    """The (x, y, z, yaw) anchor ``dead_reckon`` starts a window from."""
    return (*pose.translation, pose.yaw)


@dataclass
class ScanLog:
    """Streams a run's raw scans to ``out_dir`` as they come, one NPCD file
    per scan, and keeps the IMU/odometry sample rows until ``close`` writes
    ``scans.csv``, ``start.csv`` (the anchor of the first prior window),
    ``imu.csv`` and ``odom.csv``. A sample row starts with the row index of
    its scan in ``scans.csv``."""

    out_dir: Path
    start: tuple                               # (x, y, z, yaw)
    rows: list = field(default_factory=list)   # (stamp, NPCD file name)
    imu: list = field(default_factory=list)    # (scan, IMU_HEADER[1:] block)
    odom: list = field(default_factory=list)   # (scan, ODOM_HEADER[1:] block)

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def add_scan(self, stamp: float, scan) -> None:
        name = f"scan_{len(self.rows):05d}.npcd"
        write_npcd(self.out_dir / name, scan)
        self.rows.append((stamp, name))

    def add_samples(self, stamps, dts, gyro, accel, speeds) -> None:
        """The prior samples of the last added scan."""
        i = len(self.rows) - 1
        self.imu.append((i, np.column_stack([stamps, dts, gyro, accel])))
        self.odom.append((i, np.column_stack([stamps, speeds])))

    def close(self) -> None:
        write_csv(self.out_dir / "scans.csv", SCANS_HEADER, self.rows)
        write_csv(self.out_dir / "start.csv", START_HEADER, [self.start])
        for name, header, blocks in (("imu.csv", IMU_HEADER, self.imu),
                                     ("odom.csv", ODOM_HEADER, self.odom)):
            write_csv(self.out_dir / name, header,
                      ((i, *row) for i, block in blocks for row in block))


def _read_samples(path, header, scan_stamps) -> list:
    """The per-scan sample table at ``path`` as one float block per logged
    scan, its columns after ``scan``. Rows go in scan order, every scan has
    at least one, and a scan's stamps increase from the scan's own stamp."""
    rows = read_csv(path, header, [int] + [float] * (len(header) - 1))
    data = np.array(rows, dtype=np.float64).reshape(-1, len(header))
    scan = data[:, 0].astype(np.int64)
    n = len(scan_stamps)
    outside = (scan < 0) | (scan >= n)
    if outside.any():
        j = int(np.argmax(outside))
        raise CsvFormatError(f"{path}: line {j + 2}: scan {scan[j]} is not a "
                             f"row of the {n} in scans.csv")
    same = np.concatenate(([False], scan[1:] == scan[:-1]))
    before = np.where(same, np.roll(data[:, 1], 1), scan_stamps[scan])
    bad = (np.diff(scan, prepend=0) < 0) | (data[:, 1] <= before)
    if bad.any():
        j = int(np.argmax(bad))
        raise CsvFormatError(f"{path}: line {j + 2}: out of order; rows go in "
                             f"scan order and a scan's stamps increase from "
                             f"its stamp in scans.csv")
    counts = np.bincount(scan, minlength=n)
    if not counts.all():
        raise CsvFormatError(f"{path}: no samples for scan "
                             f"{int(np.argmin(counts))} of the {n} logged scans")
    return np.split(data[:, 1:], np.cumsum(counts)[:-1])


def read_scan_log(scans_dir):
    """A logged run's start anchor (x, y, z, yaw) and a generator of its
    (scan, stamp, prior samples), reading one scan file per item.

    The four tables are checked when this is called. The samples of a scan
    are (stamps, dts, gyro, accel, speeds), its IMU rows with the odometry
    speed interpolated at their stamps, for ``dead_reckon`` from the scan's
    stamp; a replay anchors scan 0 at the start and each later scan at the
    last registered pose, as the run did."""
    scans_dir = Path(scans_dir)
    rows = read_csv(scans_dir / "scans.csv", SCANS_HEADER, (float, str))
    if not rows:
        raise CsvFormatError(f"{scans_dir / 'scans.csv'}: line 2: no scans "
                             f"logged")
    start = read_float_csv(scans_dir / "start.csv", START_HEADER)
    if len(start) != 1:
        raise CsvFormatError(f"{scans_dir / 'start.csv'}: {len(start)} rows; "
                             f"a scan log has one start anchor")
    stamps = np.array([stamp for stamp, _ in rows])
    imu, odom = (_read_samples(scans_dir / name, header, stamps)
                 for name, header in (("imu.csv", IMU_HEADER),
                                      ("odom.csv", ODOM_HEADER)))
    bad_dt = [i for i, block in enumerate(imu) if np.any(block[:, 1] <= 0)]
    if bad_dt:
        raise CsvFormatError(f"{scans_dir / 'imu.csv'}: scan {bad_dt[0]} has "
                             f"a dt that is not positive")

    def scans():
        for (stamp, name), block, speed in zip(rows, imu, odom):
            yield (read_npcd(scans_dir / name, frame="L"), stamp,
                   (block[:, 0], block[:, 1], block[:, 2:5], block[:, 5:8],
                    np.interp(block[:, 0], speed[:, 0], speed[:, 1])))

    return tuple(start[0]), scans()


# -- true-motion rollout and simulated sensing --------------------------------

ROLLOUT_SUBSTEPS = 20   # true-motion integration steps per scan period


def _rollout(state: RobotState, v: float, omega: float, slip_rot: float,
             period: float):
    """Integrate the true motion over one scan period in ``ROLLOUT_SUBSTEPS``
    substeps.

    Returns (track, final RobotState); the track is the (4, substeps + 1)
    array of substep stamps, x, y and unwrapped heading that
    ``simulate_lidar`` senses along."""
    dt = period / ROLLOUT_SUBSTEPS
    rows = [(state.stamp, state.pose.x, state.pose.y, state.pose.theta_r)]
    s = state
    for _ in range(ROLLOUT_SUBSTEPS):
        s = step_robot(s, (v, omega), dt, slip_rot)
        rows.append((s.stamp, s.pose.x, s.pose.y, s.pose.theta_r))
    track = np.array(rows).T
    track[3] = np.unwrap(track[3])
    return track, s


def _prior_window(anchor: RigidTransform, t0: float, period: float,
                  rate_hz: float, beta: float, gyro_z: float, speed: float,
                  log: ScanLog | None = None) -> Trajectory:
    """Integrate the IMU/odometry prior over one scan window, anchored at the
    last registered pose. Simulated IMU: planar motion, gravity along +z."""
    n = max(int(round(rate_hz * period)), 1)
    dt = period / n
    samples = (t0 + np.arange(1, n + 1) * dt, np.full(n, dt),
               np.tile(np.array([0.0, 0.0, gyro_z]), (n, 1)),
               np.tile(np.array([0.0, 0.0, GRAVITY]), (n, 1)),
               np.full(n, float(speed)))
    if log is not None:
        log.add_samples(*samples)
    return dead_reckon(level_anchor(anchor), t0, *samples, beta)


def _sensor_anchor(world: World, state: RobotState,
                   mount_height: float) -> RigidTransform:
    z = float(world.ground.sample(state.pose.x, state.pose.y)) + mount_height
    return RigidTransform.from_yaw(state.pose.theta_r,
                                   [state.pose.x, state.pose.y, z],
                                   from_frame="L", to_frame="G")


def _sense(world: World, cfg: GlobalConfig, state: RobotState, v: float,
           omega: float, anchor: RigidTransform, seed,
           log: ScanLog | None = None):
    """One simulated tick from ``state`` under the command (v, omega): the
    true motion over one scan period, the scan taken along it and the prior
    window anchored at ``anchor``, both also written to ``log`` when given.

    Returns (scan, prior window, RobotState at the end of the period)."""
    lp = cfg.sim.lidar
    period = 1.0 / lp.rate
    t0 = state.stamp
    track, next_state = _rollout(state, v, omega, cfg.sim.slip_rot, period)
    scan = simulate_lidar(world, track, lp, seed=seed)
    if log is not None:
        log.add_scan(t0, scan)
    tail = _prior_window(anchor, t0, period, cfg.prior.rate_hz, cfg.prior.beta,
                         omega * (1.0 - cfg.sim.slip_rot), v, log)
    return scan, tail, next_state


def initialize_at_rest(world: World, vmap: VoxelMap, cfg: GlobalConfig,
                       pose: Pose2D, seed) -> InitResult:
    """Localization init from one scan taken at rest at ``pose`` at stamp 0,
    with a stationary prior window anchored at the true sensor pose."""
    lp = cfg.sim.lidar
    anchor = _sensor_anchor(world, RobotState(pose=pose), lp.mount_height)
    scan = simulate_lidar(world, [[0.0], [pose.x], [pose.y], [pose.theta_r]],
                          lp, seed=seed)
    tail = _prior_window(anchor, 0.0, 1.0 / lp.rate, cfg.prior.rate_hz,
                         cfg.prior.beta, 0.0, 0.0)
    return initialize_localization(vmap, scan, tail, cfg.registration,
                                   cfg.mission.init_overlap_floor)


# -- teach --------------------------------------------------------------------


@dataclass
class TeachRunResult:
    state: TeachState
    db_dir: Path | None
    truth: Trajectory


WAYPOINT_TOL = 1.0   # m, distance at which a teach waypoint counts as reached


def _waypoint_command(pose: Pose2D, waypoint, v_teach: float):
    bearing = float(np.arctan2(waypoint[1] - pose.y, waypoint[0] - pose.x))
    err = wrap_angle(bearing - pose.theta_r)
    omega = float(np.clip(2.0 * err, -1.0, 1.0))
    v = v_teach if abs(err) < 0.8 else 0.3 * v_teach
    return v, omega


def run_teach(world: World, cfg: GlobalConfig, waypoints,
              out_dir=None, start: Pose2D | None = None,
              v_teach: float = 1.0, max_ticks: int = 5000,
              scan_log_dir=None) -> TeachRunResult:
    """Drive the scripted waypoint follower (using ground-truth pose) while the
    teach pipeline builds the map; optionally persist the database to out_dir.

    With ``scan_log_dir`` each raw scan is written there as soon as it is
    simulated (~0.39 MB on disk per default-config scan), and ``scans.csv``,
    ``imu.csv`` and ``odom.csv`` when the run ends, also when it ends by
    ``TeachAbort``: the log then holds every scan up to and including the
    failing one, each with its prior samples. ``read_scan_log`` reads the
    directory back. Without it the run keeps neither scans nor prior
    samples."""
    waypoints = [np.asarray(w, dtype=np.float64)[:2] for w in waypoints]
    if not waypoints:
        raise ValueError("run_teach needs at least one waypoint")
    if start is None:
        start = Pose2D(0.0, 0.0, 0.0)
    state = RobotState(pose=start)
    mission = TeachState(VoxelMap(cfg.mapping.v_s), cfg.registration,
                         cfg.mapping)
    truth_stamps, truth_poses = [], []
    wp_i = 0
    mount = cfg.sim.lidar.mount_height
    start_anchor = _sensor_anchor(world, state, mount)
    log = (None if scan_log_dir is None
           else ScanLog(scan_log_dir, level_anchor(start_anchor)))

    try:
        for tick in range(max_ticks):
            if wp_i >= len(waypoints):
                break
            v, omega = _waypoint_command(state.pose, waypoints[wp_i], v_teach)
            scan, tail, state = _sense(world, cfg, state, v, omega,
                                       mission.current_pose or start_anchor,
                                       (cfg.seed, tick), log)
            teach_step(mission, scan, tail)
            truth_stamps.append(state.stamp)
            truth_poses.append(_sensor_anchor(world, state, mount))
            if np.hypot(state.pose.x - waypoints[wp_i][0],
                        state.pose.y - waypoints[wp_i][1]) < WAYPOINT_TOL:
                wp_i += 1
    finally:
        if log is not None:
            log.close()

    db_dir = None
    if out_dir is not None:
        db_dir = finalize_teach(mission, cfg.mission.d_ref, out_dir)
    truth = Trajectory.from_poses(truth_stamps, truth_poses)
    return TeachRunResult(state=mission, db_dir=db_dir, truth=truth)


# -- repeat -------------------------------------------------------------------


@dataclass
class RepeatRunResult:
    status: Status | None
    init: InitResult
    mission: RepeatState | None
    log_rows: list          # one tuple per controlled tick, RUN_LOG_HEADER order
    executed: Trajectory | None
    truth: Trajectory | None


def run_repeat(world: World, db_dir, cfg: GlobalConfig,
               start: Pose2D, reverse: bool = False,
               max_ticks: int = 5000,
               scan_seed_base: int = 10_000) -> RepeatRunResult:
    """Autonomous repeat, in the given (possibly changed) world, of the
    database taught into ``db_dir``. Each call loads the database afresh, so
    a repeat never starts from the residency another one left behind; the
    map and trajectory it ran on are ``mission.map`` and
    ``mission.trajectory`` of the result."""
    vmap, trajectory = load_database(db_dir)
    if reverse:
        trajectory = trajectory.reversed()
    init = initialize_at_rest(world, vmap, cfg, start,
                              seed=(cfg.seed, scan_seed_base))
    if not init.success:
        return RepeatRunResult(status=None, init=init, mission=None,
                               log_rows=[], executed=None, truth=None)

    mission = RepeatState(vmap, trajectory, cfg.registration, cfg.mapping,
                          cfg.path_following, init.pose)
    # The first tick starts one scan period after the scan taken at rest.
    state = RobotState(pose=start, stamp=1.0 / cfg.sim.lidar.rate)
    v_cmd, om_cmd = 0.0, 0.0
    rows = []
    stamps, exec_poses, truth_poses = [], [], []
    status = Status.CONTINUE

    for tick in range(max_ticks):
        scan, tail, state = _sense(world, cfg, state, v_cmd, om_cmd,
                                   mission.current_pose,
                                   (cfg.seed, scan_seed_base + 1 + tick))
        step: RepeatStepResult = repeat_step(mission, scan, tail)
        status = step.status
        if not step.skipped:
            stamps.append(state.stamp)
            exec_poses.append(step.pose)
            truth_poses.append(_sensor_anchor(world, state,
                                              cfg.sim.lidar.mount_height))
        if step.frenet is not None:
            rows.append((state.stamp, float(step.pose.translation[0]),
                         float(step.pose.translation[1]), step.pose.yaw,
                         step.frenet.x_n, step.frenet.d_g,
                         step.command.v_x, step.command.omega,
                         step.status.value))
        if status is not Status.CONTINUE:
            break
        if step.command is not None:
            v_cmd, om_cmd = step.command.v_x, step.command.omega
    else:
        status = Status.SAFETY_ABORT

    executed = truth = None
    if len(stamps) >= 2:
        executed = Trajectory.from_poses(stamps, exec_poses)
        truth = Trajectory.from_poses(stamps, truth_poses)
    return RepeatRunResult(status=status, init=init, mission=mission,
                           log_rows=rows, executed=executed, truth=truth)


# -- replay -------------------------------------------------------------------


def run_replay(scans_dir, cfg: GlobalConfig, out_dir) -> Path:
    """Run a logged scan sequence back through the teach pipeline, one scan
    at a time, each prior window anchored where the teach anchored it, and
    persist a database: a log of a teach on this config replays to that
    teach's database, or to its ``TeachAbort``. A log that registers fewer
    than two scans raises ``CsvFormatError``."""
    mission = TeachState(VoxelMap(cfg.mapping.v_s), cfg.registration,
                         cfg.mapping)
    start, scans = read_scan_log(scans_dir)
    for scan, stamp, samples in scans:
        pose = mission.current_pose
        anchor = start if pose is None else level_anchor(pose)
        teach_step(mission, scan,
                   dead_reckon(anchor, stamp, *samples, cfg.prior.beta))
    if len(mission.raw_poses) < 2:
        raise CsvFormatError(
            f"{Path(scans_dir) / 'scans.csv'}: {mission.scan_count} logged "
            f"scans registered {len(mission.raw_poses)} poses; a database "
            f"needs at least 2")
    return finalize_teach(mission, cfg.mission.d_ref, out_dir)
