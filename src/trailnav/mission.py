"""Teach/repeat orchestration: teach builds the map and reference trajectory,
repeat localizes in the frozen map and drives the path follower."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import scan_overlap
from .controller import (Command, ControllerConfig, Pose2D, Status,
                         check_termination, compute_command, project_onto_path)
# build_index is unused here but kept: perfbench/harness.py patches it here.
from .geom import PointCloud, RigidTransform, build_index, transform_cloud
from .icp import (RegistrationConfig, RegistrationFailure, RegistrationResult,
                  apply_input_filters, register)
from .mapping import (MappingConfig, VoxelMap, filter_dynamic, insert_scan,
                      load_map, refresh_normals, retile, save_map)
from .prior import deskew
from .trajectory import Trajectory, subsample_by_distance

INIT_OVERLAP_THRESHOLD = 0.5   # m, overlap distance used at localization init


class TeachAbort(RuntimeError):
    """Registration failed during teach; carries the scan id and last good pose."""

    def __init__(self, msg, scan_id, last_pose):
        super().__init__(msg)
        self.scan_id = scan_id
        self.last_pose = last_pose


@dataclass
class TeachState:
    """A teach in progress: the growing map and the registered raw poses;
    ``finalize_teach`` sets the subsampled trajectory."""

    map: VoxelMap
    reg_cfg: RegistrationConfig
    map_cfg: MappingConfig
    anchor: tuple   # level (x, y, z, yaw) the next prior window starts from
    scan_count: int = 0
    raw_stamps: list = field(default_factory=list)
    raw_poses: list = field(default_factory=list)
    trajectory: Trajectory | None = None


@dataclass
class RepeatState:
    """A repeat localized in the frozen map from its initialization pose."""

    map: VoxelMap
    trajectory: Trajectory
    reg_cfg: RegistrationConfig
    map_cfg: MappingConfig
    ctrl_cfg: ControllerConfig
    anchor: tuple   # level (x, y, z, yaw) the next prior window starts from
    scan_count: int = 0
    intervention_count: int = 0


@dataclass
class InitResult:
    success: bool
    pose: RigidTransform | None
    overlap: float
    reason: str = ""


@dataclass
class RepeatStepResult:
    command: Command | None
    status: Status
    frenet: object = None
    pose: RigidTransform | None = None   # None: the tick registered nothing


def level_anchor(pose: RigidTransform) -> tuple:
    """The (x, y, z, yaw) anchor ``dead_reckon`` starts a window from."""
    return (*pose.translation, pose.yaw)


def next_anchor(result: RegistrationResult | None,
                prior_tail: Trajectory) -> tuple:
    """Where the prior window after this tick's starts: the registered
    pose, or the end of this tick's window when it registered nothing, so
    that the distance driven during such a tick is kept."""
    return level_anchor(result.T_hat if result else prior_tail.pose(-1))


def _filtered_scan(vmap: VoxelMap, scan: PointCloud, prior_tail: Trajectory,
                   reg_cfg: RegistrationConfig) -> PointCloud | None:
    """The scan deskewed along the prior and input-filtered, or None when it
    has no point or none survives; the local tree's build starts first."""
    if len(scan) == 0:
        return None
    vmap.prefetch_reference()
    filtered = apply_input_filters(deskew(scan, prior_tail), reg_cfg)
    return filtered if len(filtered) else None


def localize(vmap: VoxelMap, scan: PointCloud, prior_tail: Trajectory,
             reg_cfg: RegistrationConfig) -> RegistrationResult | None:
    """Deskew and filter the scan, then register it against the map's local
    reference from the prior's last pose.

    When the map changed since its reference was built, the reference's
    kd-tree is built on the worker thread (``geom.WORKER``) while the scan
    is deskewed and filtered here; ICP's match query then splits a large
    reading between the worker and this thread. Deskew, the input filters,
    the match and everything else the benchmark's tracer wraps run here.

    Returns None for a scan with no point, and when nothing survives the
    input filters. Raises RegistrationFailure when the local map is empty
    or lacks a normal, and whatever ``register`` raises, or the tree's
    build."""
    filtered = _filtered_scan(vmap, scan, prior_tail, reg_cfg)
    if filtered is None:
        return None
    ref = vmap.registration_reference()
    if ref is None:
        raise RegistrationFailure("local map has no usable normals")
    reference, tree = ref
    return register(filtered, reference, prior_tail.pose(-1), reg_cfg,
                    ref_index=tree)


def teach_step(state: TeachState, scan: PointCloud,
               prior_tail: Trajectory) -> None:
    """One teach tick: localize (on an empty local map, place the scan at
    the prior), then dynamic-filter the map while the scan is inserted and
    the new points' normals computed, then retile; the registered pose joins
    the raw trajectory, and the next window starts at ``next_anchor``.

    The one worker thread (``geom.WORKER``) builds the local kd-tree while
    ``localize`` deskews and filters the scan, queries half of each large
    ICP match, and runs the filter's visibility pass while this thread
    inserts the scan and takes the new normals. Every map write, and every
    function the benchmark's tracer wraps, runs on this thread: the tracer's
    span stack is not thread-safe.

    The filter runs the insertion and the normals before it changes the
    map. So the filter, the insertion gate and the normals merge all work on
    the local arrays registration cached, and the filter updates and drops
    only points that were local before the insertion. The map ends as if
    the filter had run first and the scan been inserted after it: the
    filter would leave a new point untouched, and a spilled voxel that
    insertion reloads (which the local cube's margin keeps from happening
    near the robot) missed this tick's filter either way."""
    scan_id = state.scan_count
    state.scan_count += 1
    vmap, map_cfg = state.map, state.map_cfg
    if vmap.local_point_count() == 0:   # nothing to register on
        filtered = _filtered_scan(vmap, scan, prior_tail, state.reg_cfg)
        prior_pose = prior_tail.pose(-1)
        result = None if filtered is None else RegistrationResult(
            prior_pose, transform_cloud(filtered, prior_pose), iterations=0,
            final_error=np.nan, converged=False)
    else:
        try:
            result = localize(vmap, scan, prior_tail, state.reg_cfg)
        except RegistrationFailure as exc:
            last = state.raw_poses[-1] if state.raw_poses else None
            raise TeachAbort(f"teach registration failed on scan {scan_id}: "
                             f"{exc}", scan_id=scan_id, last_pose=last) from exc
    state.anchor = next_anchor(result, prior_tail)
    if result is None:   # no point, or none survived the input filters
        return
    t_hat, reading_in_map = result.T_hat, result.reading_in_map
    sensor = t_hat.translation

    def grow():
        insert_scan(vmap, reading_in_map, map_cfg.rho)
        refresh_normals(vmap, map_cfg, sensor)

    filter_dynamic(vmap, reading_in_map, sensor, map_cfg, meanwhile=grow)
    retile(vmap, sensor, map_cfg)
    state.raw_stamps.append(float(scan.timestamps.max()))
    state.raw_poses.append(t_hat)


def finalize_teach(state: TeachState, d_ref: float, out_dir) -> Path:
    """Subsample the raw trajectory (consecutive kept poses >= d_ref apart,
    endpoints always kept) and persist map + trajectory as a database."""
    if len(state.raw_poses) < 2:
        raise ValueError("finalize_teach needs at least 2 raw poses")
    positions = np.array([p.translation for p in state.raw_poses])
    idx = subsample_by_distance(positions, d_ref)
    trajectory = Trajectory.from_poses(
        np.asarray(state.raw_stamps, dtype=np.float64)[idx],
        [state.raw_poses[i] for i in idx])
    out_dir = Path(out_dir)
    save_map(state.map, out_dir)
    trajectory.save_csv(out_dir / "trajectory.csv")
    state.trajectory = trajectory
    return out_dir


def load_database(db_dir):
    db_dir = Path(db_dir)
    return load_map(db_dir), Trajectory.load_csv(db_dir / "trajectory.csv")


def initialize_localization(vmap: VoxelMap, scan: PointCloud,
                            prior_tail: Trajectory,
                            reg_cfg: RegistrationConfig,
                            overlap_floor: float) -> InitResult:
    """Localize the first scan at the start prior; success requires
    convergence and scan overlap at or above the floor."""
    try:
        result = localize(vmap, scan, prior_tail, reg_cfg)
    except RegistrationFailure as exc:
        return InitResult(False, None, 0.0, f"registration failed: {exc}")
    if result is None:
        return InitResult(False, None, 0.0, "scan empty after input filters")
    overlap = scan_overlap(result.reading_in_map, vmap, INIT_OVERLAP_THRESHOLD)
    if not result.converged:
        return InitResult(False, result.T_hat, overlap,
                          f"no convergence in {result.iterations} iterations; "
                          f"overlap {overlap:.1f}%")
    if overlap < overlap_floor:
        return InitResult(False, result.T_hat, overlap,
                          f"overlap {overlap:.1f}% below floor {overlap_floor}%")
    return InitResult(True, result.T_hat, overlap)


def repeat_step(state: RepeatState, scan: PointCloud,
                prior_tail: Trajectory) -> RepeatStepResult:
    """One repeat tick: localize in the frozen map (no insertion, no dynamic
    filtering; retile for locality only) and compute the next command."""
    ctrl_cfg = state.ctrl_cfg
    state.scan_count += 1
    try:
        result = localize(state.map, scan, prior_tail, state.reg_cfg)
    except RegistrationFailure:
        state.intervention_count += 1
        return RepeatStepResult(None, Status.SAFETY_ABORT)
    state.anchor = next_anchor(result, prior_tail)
    if result is None:
        return RepeatStepResult(None, Status.CONTINUE)
    t_hat = result.T_hat
    retile(state.map, t_hat.translation, state.map_cfg)
    pose2d = Pose2D(float(t_hat.translation[0]), float(t_hat.translation[1]),
                    t_hat.yaw)
    frenet = project_onto_path(pose2d, state.trajectory)
    status = check_termination(frenet, ctrl_cfg)
    if status is not Status.CONTINUE:
        return RepeatStepResult(Command(0.0, 0.0), status, frenet, t_hat)
    return RepeatStepResult(compute_command(frenet, ctrl_cfg), status, frenet,
                            t_hat)
