"""Closed-loop simulation drivers: scripted teach runs, autonomous repeat runs,
and replay of logged scan sequences. Glues the simulator, prior integration,
the teach/repeat mission, and run logging together."""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .config import GlobalConfig
from .controller import Pose2D, Status, wrap_angle
from .csvio import CsvFormatError, read_csv, read_float_csv, write_csv
from .geom import RigidTransform, _quat_normalize
from .mapping import VoxelMap
from .mission import (InitResult, RepeatState, RepeatStepResult, TeachState,
                      finalize_teach, initialize_localization, load_database,
                      new_teach_state, repeat_step, teach_step)
from .npcd import read_npcd, write_npcd
from .prior import GRAVITY, dead_reckon
from .simworld import RobotState, World, simulate_lidar, step_robot
from .trajectory import Trajectory

RUN_LOG_HEADER = ["stamp", "x", "y", "theta", "x_n", "d_g", "v_x", "omega",
                  "status"]


@dataclass
class LogRow:
    stamp: float
    x: float
    y: float
    theta: float
    x_n: float
    d_g: float
    v_x: float
    omega: float
    status: str


def save_run_log(path, rows) -> None:
    write_csv(path, RUN_LOG_HEADER, map(astuple, rows))


SCANS_HEADER = ["stamp", "file"]
IMU_HEADER = ["stamp", "gx", "gy", "gz", "ax", "ay", "az"]
ODOM_HEADER = ["stamp", "v"]


@dataclass
class ScanLog:
    """Streams a run's raw scans to ``out_dir`` as they come, one NPCD file
    per scan, and keeps the IMU/odometry sample rows until ``close`` writes
    ``scans.csv``, ``imu.csv`` and ``odom.csv``."""

    out_dir: Path
    rows: list = field(default_factory=list)   # (stamp, NPCD file name)
    imu: list = field(default_factory=list)    # (n, 7) blocks of IMU_HEADER rows
    odom: list = field(default_factory=list)   # (n, 2) blocks of ODOM_HEADER rows

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def add_scan(self, stamp: float, scan) -> None:
        name = f"scan_{len(self.rows):05d}.npcd"
        write_npcd(self.out_dir / name, scan)
        self.rows.append((stamp, name))

    def close(self) -> None:
        write_csv(self.out_dir / "scans.csv", SCANS_HEADER, self.rows)
        write_csv(self.out_dir / "imu.csv", IMU_HEADER,
                  chain.from_iterable(self.imu))
        write_csv(self.out_dir / "odom.csv", ODOM_HEADER,
                  chain.from_iterable(self.odom))


def read_scan_log(scans_dir, beta: float, start_position=(0.0, 0.0, 0.0)):
    """Yield a logged run's (scan, prior window) pairs, reading one scan file
    per item.

    The three tables are checked, and the logged IMU/odometry prior is dead
    reckoned, before the first item. The prior starts level, heading along x,
    at ``start_position`` and the first scan's stamp, where the run's first
    prior window began, so it covers every logged point stamp. Odometry speed
    is interpolated at each IMU stamp. An IMU sample whose stamp is not after
    every earlier one and the start is skipped. A scan's window runs from its
    stamp to its last point, so the window's last pose is the scan-end prior
    that registration starts from."""
    scans_dir = Path(scans_dir)
    rows = read_csv(scans_dir / "scans.csv", SCANS_HEADER, (float, str))
    imu, odom = (read_float_csv(scans_dir / name, header) for name, header in
                 (("imu.csv", IMU_HEADER), ("odom.csv", ODOM_HEADER)))
    if not rows:
        raise CsvFormatError(f"{scans_dir / 'scans.csv'}: line 2: no scans "
                             f"logged")
    for name, samples in (("imu.csv", imu), ("odom.csv", odom)):
        if not len(samples):
            raise CsvFormatError(f"{scans_dir / name}: line 2: no samples for "
                                 f"the {len(rows)} logged scans")
    start_stamp = rows[0][0]
    # A sample's dt runs from the latest stamp before it, or from the start.
    prev = np.maximum.accumulate(np.concatenate(([start_stamp], imu[:, 0])))[:-1]
    keep = imu[:, 0] > prev
    imu = imu[keep]
    prior = dead_reckon(start_stamp, start_position,
                        np.array([1.0, 0.0, 0.0, 0.0]), imu[:, 0],
                        imu[:, 0] - prev[keep], imu[:, 1:4], imu[:, 4:7],
                        np.interp(imu[:, 0], odom[:, 0], odom[:, 1]), beta)
    for stamp, name in rows:
        scan = read_npcd(scans_dir / name, frame="L")
        ts = scan.timestamps
        end = float(ts.max()) if ts is not None and len(ts) else stamp
        yield scan, prior.window(stamp, end)


# -- true-motion rollout and simulated sensing --------------------------------

ROLLOUT_SUBSTEPS = 20   # true-motion integration steps per scan period


def _rollout(state: RobotState, v: float, omega: float, slip_rot: float,
             period: float):
    """Integrate the true motion over one scan period in ``ROLLOUT_SUBSTEPS``
    substeps.

    Returns (pose_fn over absolute time, final RobotState); pose_fn
    interpolates the substep poses (heading unwrapped)."""
    dt = period / ROLLOUT_SUBSTEPS
    times = [state.stamp]
    xs = [state.pose.x]
    ys = [state.pose.y]
    ths = [state.pose.theta_r]
    s = state
    for _ in range(ROLLOUT_SUBSTEPS):
        s = step_robot(s, (v, omega), dt, slip_rot)
        times.append(s.stamp)
        xs.append(s.pose.x)
        ys.append(s.pose.y)
        ths.append(s.pose.theta_r)
    times = np.array(times)
    xs = np.array(xs)
    ys = np.array(ys)
    ths = np.unwrap(np.array(ths))

    def pose_fn(t):
        return (float(np.interp(t, times, xs)), float(np.interp(t, times, ys)),
                float(np.interp(t, times, ths)))

    return pose_fn, s


def _prior_window(anchor: RigidTransform, t0: float, period: float,
                  rate_hz: float, beta: float, gyro_z: float, speed: float,
                  log: ScanLog | None = None) -> Trajectory:
    """Integrate the IMU/odometry prior over one scan window, anchored at the
    last registered pose. Simulated IMU: planar motion, gravity along +z."""
    n = max(int(round(rate_hz * period)), 1)
    dt = period / n
    stamps = t0 + np.arange(1, n + 1) * dt
    gyro = np.tile(np.array([0.0, 0.0, gyro_z]), (n, 1))
    accel = np.tile(np.array([0.0, 0.0, GRAVITY]), (n, 1))
    speeds = np.full(n, float(speed))
    if log is not None:
        log.imu.append(np.column_stack([stamps, gyro, accel]))
        log.odom.append(np.column_stack([stamps, speeds]))
    half = 0.5 * anchor.yaw
    quat = _quat_normalize(np.array([np.cos(half), 0.0, 0.0, np.sin(half)]))
    return dead_reckon(t0, anchor.translation, quat, stamps, np.full(n, dt),
                       gyro, accel, speeds, beta)


def _sensor_anchor(world: World, state: RobotState,
                   mount_height: float) -> RigidTransform:
    z = float(world.ground_height(state.pose.x, state.pose.y)) + mount_height
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
    pose_fn, next_state = _rollout(state, v, omega, cfg.sim.slip_rot, period)
    scan = simulate_lidar(world, pose_fn, lp, seed=seed, t0=t0)
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
    scan = simulate_lidar(world, pose, lp, seed=seed)
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
    mission = new_teach_state(cfg.registration, cfg.mapping)
    log = None if scan_log_dir is None else ScanLog(scan_log_dir)
    truth_stamps, truth_poses = [], []
    wp_i = 0
    mount = cfg.sim.lidar.mount_height
    start_anchor = _sensor_anchor(world, state, mount)

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
    log_rows: list
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
            cmd = step.command
            rows.append(LogRow(
                stamp=state.stamp,
                x=float(step.pose.translation[0]),
                y=float(step.pose.translation[1]),
                theta=step.pose.yaw,
                x_n=step.frenet.x_n, d_g=step.frenet.d_g,
                v_x=0.0 if cmd is None else cmd.v_x,
                omega=0.0 if cmd is None else cmd.omega,
                status=step.status.value))
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
    at a time, rebuilding the prior from the logged IMU/odometry streams, and
    persist a database. A log that registers fewer than two scans raises
    ``CsvFormatError``."""
    mission = new_teach_state(cfg.registration, cfg.mapping)
    for scan, window in read_scan_log(scans_dir, cfg.prior.beta):
        teach_step(mission, scan, window)
    if len(mission.raw_poses) < 2:
        raise CsvFormatError(
            f"{Path(scans_dir) / 'scans.csv'}: {mission.scan_count} logged "
            f"scans registered {len(mission.raw_poses)} poses; a database "
            f"needs at least 2")
    return finalize_teach(mission, cfg.mission.d_ref, out_dir)
