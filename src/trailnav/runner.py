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
from .mission import (InitResult, MissionState, RepeatStepResult, finalize_teach,
                      initialize_localization, load_database, new_repeat_state,
                      new_teach_state, repeat_step, teach_step)
from .npcd import read_npcd, write_npcd
from .prior import (GRAVITY, PriorTrajectory, dead_reckon,
                    prior_windows_from_log)
from .simworld import RobotState, World, simulate_lidar, step_robot
from .trajectory import ReferenceTrajectory

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


def load_scan_log(scans_dir):
    """Read a logged run back: [(stamp, scan)], the (n, 7) IMU rows and the
    (m, 2) odometry rows. A log with scans has samples in both files."""
    scans_dir = Path(scans_dir)
    scans = [(stamp, read_npcd(scans_dir / name, frame="L")) for stamp, name in
             read_csv(scans_dir / "scans.csv", SCANS_HEADER, (float, str))]
    samples = []
    for path, header in ((scans_dir / "imu.csv", IMU_HEADER),
                         (scans_dir / "odom.csv", ODOM_HEADER)):
        rows = read_float_csv(path, header)
        if scans and not len(rows):
            raise CsvFormatError(f"{path}: line 2: no samples for the "
                                 f"{len(scans)} logged scans")
        samples.append(rows)
    return scans, *samples


# -- true-motion rollout and simulated sensing --------------------------------

ROLLOUT_SUBSTEPS = 20   # true-motion integration steps per scan period


def _rollout(world: World, state: RobotState, v: float, omega: float,
             slip_rot: float, period: float):
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
        s = step_robot(world, s, (v, omega), dt, slip_rot)
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
                  log: ScanLog | None = None) -> PriorTrajectory:
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
    state: MissionState
    db_dir: Path | None
    truth: ReferenceTrajectory
    scan_log: Path | None


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
    failing one, each with its prior samples. ``load_scan_log`` reads the
    directory back. Without it the run keeps neither scans nor prior
    samples."""
    waypoints = [np.asarray(w, dtype=np.float64)[:2] for w in waypoints]
    if not waypoints:
        raise ValueError("run_teach needs at least one waypoint")
    lp = cfg.sim.lidar
    period = 1.0 / lp.rate
    if start is None:
        start = Pose2D(0.0, 0.0, 0.0)
    state = RobotState(pose=start,
                       z=float(world.ground_height(start.x, start.y)))
    mission = new_teach_state(cfg.registration, cfg.mapping)
    log = None if scan_log_dir is None else ScanLog(scan_log_dir)
    truth_stamps = []
    truth_poses = []
    wp_i = 0
    anchor = _sensor_anchor(world, state, lp.mount_height)

    try:
        for tick in range(max_ticks):
            if wp_i >= len(waypoints):
                break
            v, omega = _waypoint_command(state.pose, waypoints[wp_i], v_teach)
            t0 = state.stamp
            pose_fn, next_state = _rollout(world, state, v, omega,
                                           cfg.sim.slip_rot, period)
            scan = simulate_lidar(world, pose_fn, lp, seed=(cfg.seed, tick),
                                  t0=t0)
            if log is not None:
                log.add_scan(t0, scan)
            tail = _prior_window(anchor, t0, period, cfg.prior.rate_hz,
                                 cfg.prior.beta,
                                 omega * (1.0 - cfg.sim.slip_rot), v, log)
            teach_step(mission, scan, tail)
            if mission.current_pose is not None:
                anchor = mission.current_pose
            state = next_state
            truth_stamps.append(state.stamp)
            truth_poses.append(_sensor_anchor(world, state, lp.mount_height)
                               .retagged("R", "G"))
            if np.hypot(state.pose.x - waypoints[wp_i][0],
                        state.pose.y - waypoints[wp_i][1]) < WAYPOINT_TOL:
                wp_i += 1
    finally:
        if log is not None:
            log.close()

    db_dir = None
    if out_dir is not None:
        db_dir = finalize_teach(mission, cfg.mission.d_ref, out_dir)
    truth = ReferenceTrajectory.from_poses(truth_stamps, truth_poses)
    return TeachRunResult(state=mission, db_dir=db_dir, truth=truth,
                          scan_log=None if log is None else log.out_dir)


# -- repeat -------------------------------------------------------------------


@dataclass
class RepeatRunResult:
    status: Status | None
    init: InitResult
    mission: MissionState | None
    log_rows: list
    executed: ReferenceTrajectory | None
    truth: ReferenceTrajectory | None


def run_repeat(world: World, database, cfg: GlobalConfig,
               start: Pose2D, reverse: bool = False,
               max_ticks: int = 5000, scan_seed_base: int = 10_000,
               spill_dir=None) -> RepeatRunResult:
    """Autonomous repeat of a taught database in the given (possibly changed)
    world. ``database`` is a directory path or a (VoxelMap, trajectory) pair."""
    if isinstance(database, (str, Path)):
        vmap, trajectory = load_database(database, spill_dir=spill_dir)
    else:
        vmap, trajectory = database
    if reverse:
        trajectory = trajectory.reversed()
    lp = cfg.sim.lidar
    period = 1.0 / lp.rate
    state = RobotState(pose=start,
                       z=float(world.ground_height(start.x, start.y)))
    init = initialize_at_rest(world, vmap, cfg, start,
                              seed=(cfg.seed, scan_seed_base))
    if not init.success:
        return RepeatRunResult(status=None, init=init, mission=None,
                               log_rows=[], executed=None, truth=None)

    mission = new_repeat_state(vmap, trajectory, cfg.registration, cfg.mapping,
                               init.pose)
    anchor = init.pose
    state = RobotState(pose=state.pose, z=state.z, stamp=state.stamp + period)
    v_cmd, om_cmd = 0.0, 0.0
    rows = []
    exec_stamps, exec_poses = [], []
    truth_stamps, truth_poses = [], []
    status = Status.CONTINUE

    for tick in range(max_ticks):
        t0 = state.stamp
        pose_fn, next_state = _rollout(world, state, v_cmd, om_cmd,
                                       cfg.sim.slip_rot, period)
        scan = simulate_lidar(world, pose_fn, lp,
                              seed=(cfg.seed, scan_seed_base + 1 + tick), t0=t0)
        tail = _prior_window(anchor, t0, period, cfg.prior.rate_hz,
                             cfg.prior.beta,
                             om_cmd * (1.0 - cfg.sim.slip_rot), v_cmd)
        step: RepeatStepResult = repeat_step(mission, scan, tail,
                                             cfg.path_following)
        state = next_state
        status = step.status
        if step.pose is not None and not step.skipped:
            anchor = step.pose
            exec_stamps.append(state.stamp)
            exec_poses.append(step.pose.retagged("R", "G"))
            truth_stamps.append(state.stamp)
            truth_poses.append(_sensor_anchor(world, state, lp.mount_height)
                               .retagged("R", "G"))
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

    executed = (ReferenceTrajectory.from_poses(exec_stamps, exec_poses)
                if len(exec_poses) >= 2 else None)
    truth = (ReferenceTrajectory.from_poses(truth_stamps, truth_poses)
             if len(truth_poses) >= 2 else None)
    return RepeatRunResult(status=status, init=init, mission=mission,
                           log_rows=rows, executed=executed, truth=truth)


# -- replay -------------------------------------------------------------------


def run_replay(scans_dir, cfg: GlobalConfig, out_dir) -> Path:
    """Run a logged scan sequence back through the teach pipeline, rebuilding
    the prior from the logged IMU/odometry streams, and persist a database."""
    scans, imu, odom = load_scan_log(scans_dir)
    windows = prior_windows_from_log(scans, imu, odom, cfg.prior.beta)
    mission = new_teach_state(cfg.registration, cfg.mapping)
    for (_, scan), window in zip(scans, windows):
        teach_step(mission, scan, window)
    return finalize_teach(mission, cfg.mission.d_ref, out_dir)
