"""High-frequency localization prior from IMU + wheel odometry, and scan deskewing."""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from .geom import (PointCloud, _quat_from_rotvec, _quat_mul, _quat_normalize,
                   _quat_to_matrix)
from .trajectory import Trajectory

GRAVITY = 9.81


class PriorCoverageError(ValueError):
    """A scan timestamp falls outside the prior trajectory window."""


def update_orientation(quat: np.ndarray, gyro: np.ndarray, accel: np.ndarray,
                       dt: float, beta: float) -> np.ndarray:
    """One complementary-filter step on the unit quaternion (w, x, y, z) that
    maps body coordinates to world: gyro integration (rad/s, body frame) plus
    a gravity tilt correction from the accelerometer (specific force, m/s^2,
    body frame, +z up at rest).

    The tilt correction is applied about a horizontal world axis only, so yaw is
    driven purely by the gyro. A zero-norm accelerometer sample skips the
    correction step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    # Body-frame gyro integration (right-multiplicative).
    q = _quat_mul(quat, _quat_from_rotvec(gyro * dt))
    a_norm = np.linalg.norm(accel)
    if a_norm > 1e-12:
        a_hat = accel / a_norm
        up_world = _quat_to_matrix(q) @ a_hat           # measured up, world frame
        err = np.cross(up_world, np.array([0.0, 0.0, 1.0]))  # z component is zero
        q = _quat_mul(_quat_from_rotvec(beta * dt * err), q)
    # Normalized twice: the second pass moves the last bits of some
    # quaternions, and the saved maps, trajectories and benchmark digests
    # depend on those bits.
    return _quat_normalize(_quat_normalize(q))


def dead_reckon(anchor, start_stamp: float, stamps: np.ndarray,
                dts: np.ndarray, gyro: np.ndarray, accel: np.ndarray,
                speeds: np.ndarray, beta: float) -> Trajectory:
    """The one builder of a prior window, for the closed loop and for logged
    runs alike: the IMU/odometry prior from the level pose ``anchor`` =
    (x, y, z, yaw) at ``start_stamp``. Sample i turns the orientation by
    ``update_orientation`` over ``dts[i]`` with ``gyro[i]`` and ``accel[i]``,
    then advances the position along the new forward (body x) axis by
    ``speeds[i] * dts[i]``, giving the pose at ``stamps[i]``."""
    x, y, z, yaw = anchor
    half = 0.5 * yaw
    n = len(stamps)
    quats = np.empty((n + 1, 4))
    positions = np.empty((n + 1, 3))
    quats[0] = _quat_normalize(np.array([np.cos(half), 0.0, 0.0, np.sin(half)]))
    positions[0] = (x, y, z)
    for i in range(n):
        quats[i + 1] = update_orientation(quats[i], gyro[i], accel[i], dts[i],
                                          beta)
        positions[i + 1] = (positions[i] + speeds[i] * dts[i]
                            * _quat_to_matrix(quats[i + 1])[:, 0])
    return Trajectory(np.concatenate(([start_stamp], stamps)), positions, quats)


def _interp_poses(prior: Trajectory, times: np.ndarray):
    """Linear translation / slerp rotation interpolation at the given times;
    the prior has at least two poses, as ``dead_reckon`` gives."""
    trans = np.column_stack([
        np.interp(times, prior.stamps, prior.positions[:, i]) for i in range(3)
    ])
    key = Rotation.from_quat(prior.quats[:, [1, 2, 3, 0]])  # to xyzw
    return trans, Slerp(prior.stamps, key)(times)


def deskew(scan: PointCloud, prior: Trajectory) -> PointCloud:
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

