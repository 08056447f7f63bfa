"""High-frequency localization prior from IMU + wheel odometry, and scan deskewing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from .geom import (FRAME_LIDAR, FRAME_MAP, PointCloud, RigidTransform,
                   _quat_from_rotvec, _quat_mul, _quat_normalize, _quat_to_matrix)

GRAVITY = 9.81
DEFAULT_BETA = 0.1
DEFAULT_RATE_HZ = 100.0


class PriorCoverageError(ValueError):
    """A scan timestamp falls outside the prior trajectory window."""


@dataclass
class ImuSample:
    gyro: np.ndarray      # rad/s, body frame
    accel: np.ndarray     # m/s^2, body frame (specific force, +z up at rest)
    stamp: float

    def __post_init__(self):
        self.gyro = np.asarray(self.gyro, dtype=np.float64).reshape(3)
        self.accel = np.asarray(self.accel, dtype=np.float64).reshape(3)


@dataclass
class OdomSample:
    linear_speed: float   # m/s along robot x
    stamp: float


@dataclass
class OrientationState:
    """Unit quaternion (w, x, y, z) mapping body coordinates to world."""

    quat: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        self.quat = _quat_normalize(np.asarray(self.quat, dtype=np.float64).reshape(4))

    @property
    def matrix(self) -> np.ndarray:
        return _quat_to_matrix(self.quat)

    @property
    def yaw(self) -> float:
        m = self.matrix
        return float(np.arctan2(m[1, 0], m[0, 0]))


def update_orientation(state: OrientationState, imu: ImuSample, dt: float,
                       beta: float = DEFAULT_BETA) -> OrientationState:
    """One complementary-filter step: gyro integration plus gravity tilt correction.

    The tilt correction is applied about a horizontal world axis only, so yaw is
    driven purely by the gyro. A zero-norm accelerometer sample skips the
    correction step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    q = state.quat
    # Body-frame gyro integration (right-multiplicative).
    q = _quat_mul(q, _quat_from_rotvec(imu.gyro * dt))
    a_norm = np.linalg.norm(imu.accel)
    if a_norm > 1e-12:
        a_hat = imu.accel / a_norm
        up_world = _quat_to_matrix(q) @ a_hat           # measured up, world frame
        err = np.cross(up_world, np.array([0.0, 0.0, 1.0]))  # z component is zero
        q = _quat_mul(_quat_from_rotvec(beta * dt * err), q)
    return OrientationState(_quat_normalize(q))


@dataclass
class PriorTrajectory:
    """Ordered (stamp, pose L->G) samples at the IMU rate."""

    stamps: np.ndarray
    translations: np.ndarray   # (n, 3)
    quats: np.ndarray          # (n, 4) wxyz

    def __post_init__(self):
        self.stamps = np.asarray(self.stamps, dtype=np.float64).reshape(-1)
        self.translations = np.asarray(self.translations, dtype=np.float64).reshape(-1, 3)
        self.quats = np.asarray(self.quats, dtype=np.float64).reshape(-1, 4)
        if not (len(self.stamps) == len(self.translations) == len(self.quats)):
            raise ValueError("stamps, translations and quats must have equal length")
        if len(self.stamps) > 1 and np.any(np.diff(self.stamps) <= 0):
            raise ValueError("stamps must be strictly increasing")

    def __len__(self):
        return len(self.stamps)

    def pose_at_index(self, i: int) -> RigidTransform:
        return RigidTransform(_quat_to_matrix(self.quats[i]), self.translations[i],
                              FRAME_LIDAR, FRAME_MAP)

    def window(self, t_from: float, t_to: float) -> "PriorTrajectory":
        """Samples covering [t_from, t_to]: from the sample at or just before
        t_from through the first sample at or after t_to."""
        i = max(int(np.searchsorted(self.stamps, t_from, side="right")) - 1, 0)
        j = int(np.searchsorted(self.stamps, t_to, side="left")) + 1
        return PriorTrajectory(self.stamps[i:j], self.translations[i:j],
                               self.quats[i:j])


class PriorIntegrator:
    """Accumulates the 100 Hz prior: orientation filter + odometry dead reckoning."""

    def __init__(self, start_stamp: float = 0.0, start_position=(0.0, 0.0, 0.0),
                 start_orientation: OrientationState | None = None,
                 beta: float = DEFAULT_BETA):
        self.beta = beta
        self.orientation = start_orientation or OrientationState()
        self.position = np.asarray(start_position, dtype=np.float64).copy()
        self._stamps = [start_stamp]
        self._translations = [self.position.copy()]
        self._quats = [self.orientation.quat.copy()]

    def step(self, imu: ImuSample, odom: OdomSample, dt: float) -> None:
        self.orientation = update_orientation(self.orientation, imu, dt, self.beta)
        pose = integrate_prior(self.position, odom, self.orientation, dt)
        self.position = pose.translation.copy()
        self._stamps.append(imu.stamp)
        self._translations.append(self.position.copy())
        self._quats.append(self.orientation.quat.copy())

    def trajectory(self) -> PriorTrajectory:
        return PriorTrajectory(np.array(self._stamps), np.array(self._translations),
                               np.array(self._quats))


def prior_windows_from_log(scans, imu, odom, start_position=(0.0, 0.0, 0.0),
                           beta: float = DEFAULT_BETA) -> list[PriorTrajectory]:
    """Dead-reckon a logged run's prior from its IMU and odometry, and cut it
    into one window per scan.

    ``scans`` is the run's [(stamp, scan)] list. The prior starts at the first
    scan's stamp, where the run's first prior window began, so it covers every
    logged point stamp. Odometry speed is interpolated at each IMU stamp. A
    scan's window runs from its stamp to its last point, so the window's last
    pose is the scan-end prior that registration starts from.
    """
    if not scans:
        raise ValueError("a logged run needs at least one scan")
    start_stamp = scans[0][0]
    integ = PriorIntegrator(start_stamp=start_stamp,
                            start_position=start_position, beta=beta)
    odom_stamps = np.array([o.stamp for o in odom])
    odom_speeds = np.array([o.linear_speed for o in odom])
    prev = start_stamp
    for s in imu:
        dt = s.stamp - prev
        if dt <= 0:
            continue
        speed = float(np.interp(s.stamp, odom_stamps, odom_speeds))
        integ.step(s, OdomSample(speed, s.stamp), dt)
        prev = s.stamp
    prior = integ.trajectory()
    windows = []
    for stamp, scan in scans:
        ts = scan.timestamps
        end = float(ts.max()) if ts is not None and len(ts) else stamp
        windows.append(prior.window(stamp, end))
    return windows


def integrate_prior(position, odom: OdomSample, orientation: OrientationState,
                    dt: float) -> RigidTransform:
    """Advance the pose along the orientation's forward axis by linear_speed * dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rot = orientation.matrix
    new_pos = np.asarray(position, dtype=np.float64) + odom.linear_speed * dt * rot[:, 0]
    return RigidTransform(rot, new_pos, FRAME_LIDAR, FRAME_MAP)


def _interp_poses(prior: PriorTrajectory, times: np.ndarray):
    """Linear translation / slerp rotation interpolation at the given times."""
    trans = np.column_stack([
        np.interp(times, prior.stamps, prior.translations[:, i]) for i in range(3)
    ])
    if len(prior) == 1:
        rots = Rotation.from_quat(np.tile(prior.quats[0][[1, 2, 3, 0]], (len(times), 1)))
    else:
        key = Rotation.from_quat(prior.quats[:, [1, 2, 3, 0]])  # to xyzw
        rots = Slerp(prior.stamps, key)(times)
    return trans, rots


def deskew(scan: PointCloud, prior: PriorTrajectory) -> PointCloud:
    """Re-express every point in the lidar pose at the scan-end stamp.

    p' = T(t_end)^-1 . T(t_point) . p with translation interpolated linearly and
    rotation spherically between prior samples.
    """
    if scan.timestamps is None:
        raise ValueError("deskew requires per-point timestamps")
    if len(scan) == 0:
        return scan.copy()
    ts = scan.timestamps
    lo, hi = prior.stamps[0], prior.stamps[-1]
    bad = (ts < lo) | (ts > hi)
    if np.any(bad):
        t_bad = float(ts[np.argmax(bad)])
        raise PriorCoverageError(
            f"point stamp {t_bad} outside prior coverage [{lo}, {hi}]")
    # One pose per distinct stamp (a scan has one per azimuth column), then
    # gathered per point by Rotation indexing: a round trip through from_quat
    # would renormalize and move points in the last bits.
    stamps, inv = np.unique(ts, return_inverse=True)
    trans, rots = _interp_poses(prior, stamps)
    rot_end_inv = rots[-1].inv()
    trans_end = trans[-1]
    # World-frame point at its own stamp, then back into the scan-end frame.
    world = rots[inv].apply(scan.points) + trans[inv]
    pts = rot_end_inv.apply(world - trans_end)
    out = scan.copy()
    out.points = pts
    out.timestamps = np.full(len(scan), stamps[-1])
    if out.normals is not None:
        out.normals = (rot_end_inv * rots)[inv].apply(scan.normals)
    return out

