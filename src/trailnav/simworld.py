"""Deterministic synthetic subarctic-forest world: procedural terrain, tree and
building primitives, skid-steer kinematics, ray-cast lidar with intrascan motion,
snowfall noise, and heterogeneous snow accumulation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .controller import Pose2D, wrap_angle
from .geom import FRAME_LIDAR, PointCloud

# Ground-truth point class labels carried in PointCloud.labels.
CLASS_GROUND = 1
CLASS_VEGETATION = 2
CLASS_BUILDING = 3
CLASS_SNOWFALL = 5

_STREAM_TERRAIN = 11
_STREAM_TREES = 12
_STREAM_FOLIAGE = 13
_STREAM_NOISE = 14
_STREAM_SNOWFALL = 15


def _rng(seed, stream):
    """Named sub-stream RNG; seed may be an int or a sequence of ints."""
    entropy = list(seed) if isinstance(seed, (tuple, list)) else [int(seed)]
    return np.random.default_rng(entropy + [stream])


@dataclass
class LidarParams:
    beams: int = 16
    azimuth_steps: int = 900
    rate: float = 10.0           # Hz
    max_range: float = 80.0      # m
    range_noise_sd: float = 0.02  # m
    fov_low_deg: float = -15.0
    fov_high_deg: float = 15.0
    mount_height: float = 1.3    # sensor height above local ground (m)

    def __post_init__(self):
        if self.beams < 1:
            raise ValueError("beams must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.azimuth_steps < 1:
            raise ValueError("azimuth_steps must be >= 1")


@dataclass
class WorldParams:
    trail_width: float = 4.5
    trail_length: float = 200.0
    tree_density: float = 0.03           # trees per m^2
    extent: tuple | None = None          # (xmin, xmax, ymin, ymax)
    cell: float = 1.0                    # heightfield cell size (m)
    terrain_amplitude: float = 0.5
    terrain_scale: float = 25.0          # dominant undulation wavelength (m)
    centerline: list | None = None       # [(x, y), ...]; default straight +x
    buildings: list = field(default_factory=list)  # (cx, cy, sx, sy, height)
    clearing_center: tuple | None = None
    clearing_radius: float = 0.0
    canopy_porosity: float = 0.3
    trunk_height: tuple = (2.0, 5.0)
    trunk_radius: tuple = (0.12, 0.3)
    foliage_radius: tuple = (1.0, 2.5)
    foliage_jitter_sd: float = 0.08      # radial blob texture (m)

    def __post_init__(self):
        for name in ("trail_width", "trail_length", "cell", "terrain_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("tree_density", "foliage_jitter_sd"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.canopy_porosity <= 1.0:
            raise ValueError("canopy_porosity must lie in [0, 1]")
        if self.extent is not None:
            box = np.asarray(self.extent, dtype=np.float64)
            if box.shape != (4,) or not (box[0] < box[1] and box[2] < box[3]):
                raise ValueError("extent must be (xmin, xmax, ymin, ymax) with "
                                 "xmin < xmax and ymin < ymax")
        self.resolved_centerline()      # raises on fewer than 2 points
        if (self.clearing_center is not None
                and np.shape(self.clearing_center) != (2,)):
            raise ValueError("clearing_center must be (x, y)")
        if any(np.shape(b) != (5,) or not min(b[2:]) > 0
               for b in self.buildings):
            raise ValueError("buildings must each be (cx, cy, sx, sy, height) "
                             "with sx, sy and height positive")
        for name in ("trunk_height", "trunk_radius", "foliage_radius"):
            lo_hi = np.asarray(getattr(self, name))
            if (lo_hi.shape != (2,) or lo_hi.dtype.kind not in "iuf"
                    or not lo_hi[0] <= lo_hi[1]):
                raise ValueError(f"{name} must be two numbers (lo, hi) with "
                                 "lo <= hi")

    def resolved_centerline(self) -> np.ndarray:
        if self.centerline is not None:
            line = np.asarray(self.centerline, dtype=np.float64).reshape(-1, 2)
            if len(line) < 2:
                raise ValueError("centerline needs at least 2 points")
            return line
        return np.array([[0.0, 0.0], [self.trail_length, 0.0]])

    def resolved_extent(self) -> tuple:
        if self.extent is not None:
            return tuple(float(v) for v in self.extent)
        line = self.resolved_centerline()
        margin = 40.0
        return (float(line[:, 0].min() - margin), float(line[:, 0].max() + margin),
                float(line[:, 1].min() - margin), float(line[:, 1].max() + margin))


@dataclass
class Heightfield:
    x0: float
    y0: float
    cell: float
    grid: np.ndarray   # (ny, nx) node heights

    def sample(self, x, y):
        """Bilinear height; coordinates outside the grid clamp to the border."""
        gx = np.clip((np.asarray(x) - self.x0) / self.cell, 0.0,
                     self.grid.shape[1] - 1.000001)
        gy = np.clip((np.asarray(y) - self.y0) / self.cell, 0.0,
                     self.grid.shape[0] - 1.000001)
        ix = gx.astype(np.int64)
        iy = gy.astype(np.int64)
        fx = gx - ix
        fy = gy - iy
        g = self.grid
        return ((g[iy, ix] * (1 - fx) + g[iy, ix + 1] * fx) * (1 - fy) +
                (g[iy + 1, ix] * (1 - fx) + g[iy + 1, ix + 1] * fx) * fy)


@dataclass
class Trees:
    xy: np.ndarray             # (t, 2) trunk centers
    trunk_radius: np.ndarray   # (t,)
    trunk_top: np.ndarray      # (t,) absolute z of trunk top
    base_z: np.ndarray         # (t,) ground level at the trunk
    foliage_center: np.ndarray  # (t, 3)
    foliage_radius: np.ndarray  # (t,)

    def __len__(self):
        return len(self.xy)


@dataclass
class Building:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    z_base: float
    z_top: float


@dataclass
class World:
    ground: Heightfield
    trees: Trees
    buildings: list
    params: WorldParams


@dataclass
class RobotState:
    pose: Pose2D
    stamp: float = 0.0


def _dist_to_polyline(pts: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Distance of each 2D point to the polyline."""
    best = np.full(len(pts), np.inf)
    for a, b in zip(line[:-1], line[1:]):
        ab = b - a
        denom = max(float(ab @ ab), 1e-300)
        t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
        foot = a + t[:, None] * ab
        best = np.minimum(best, np.linalg.norm(pts - foot, axis=1))
    return best


def generate_world(seed: int, params: WorldParams) -> World:
    """Procedural forest with a cleared trail corridor; bitwise-reproducible
    from (seed, params)."""
    extent = params.resolved_extent()
    xmin, xmax, ymin, ymax = extent
    cell = params.cell
    nx = int(np.ceil((xmax - xmin) / cell)) + 1
    ny = int(np.ceil((ymax - ymin) / cell)) + 1

    rng_t = _rng(seed, _STREAM_TERRAIN)
    xs = xmin + cell * np.arange(nx)
    ys = ymin + cell * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.zeros((ny, nx))
    if params.terrain_amplitude > 0:
        for _ in range(6):
            wavelength = params.terrain_scale * rng_t.uniform(0.6, 1.8)
            phi = rng_t.uniform(0, 2 * np.pi)
            psi = rng_t.uniform(0, 2 * np.pi)
            amp = params.terrain_amplitude / 6.0 * rng_t.uniform(0.5, 1.5)
            k = 2 * np.pi / wavelength
            grid += amp * np.sin(k * (gx * np.cos(phi) + gy * np.sin(phi)) + psi)
    ground = Heightfield(xmin, ymin, cell, grid)

    rng_tr = _rng(seed, _STREAM_TREES)
    area = (xmax - xmin) * (ymax - ymin)
    count = int(rng_tr.poisson(params.tree_density * area))
    xy = np.column_stack([rng_tr.uniform(xmin, xmax, count),
                          rng_tr.uniform(ymin, ymax, count)])
    trunk_h = rng_tr.uniform(*params.trunk_height, count)
    trunk_r = rng_tr.uniform(*params.trunk_radius, count)
    fol_r = rng_tr.uniform(*params.foliage_radius, count)

    line = params.resolved_centerline()
    keep = _dist_to_polyline(xy, line) > params.trail_width / 2.0 + trunk_r
    if params.clearing_center is not None and params.clearing_radius > 0:
        c = np.asarray(params.clearing_center, dtype=np.float64)
        keep &= np.linalg.norm(xy - c, axis=1) > params.clearing_radius
    for spec in params.buildings:
        cx, cy, sx, sy, _ = spec
        inside = ((np.abs(xy[:, 0] - cx) < sx / 2 + 1.0) &
                  (np.abs(xy[:, 1] - cy) < sy / 2 + 1.0))
        keep &= ~inside
    xy, trunk_h, trunk_r, fol_r = xy[keep], trunk_h[keep], trunk_r[keep], fol_r[keep]

    base_z = np.asarray(ground.sample(xy[:, 0], xy[:, 1]), dtype=np.float64)
    trees = Trees(
        xy=xy, trunk_radius=trunk_r, trunk_top=base_z + trunk_h, base_z=base_z,
        foliage_center=np.column_stack([xy, base_z + trunk_h]),
        foliage_radius=fol_r,
    )

    buildings = []
    for cx, cy, sx, sy, h in params.buildings:
        zb = float(ground.sample(cx, cy))
        buildings.append(Building(cx - sx / 2, cx + sx / 2, cy - sy / 2,
                                  cy + sy / 2, zb, zb + h))

    return World(ground=ground, trees=trees, buildings=buildings,
                 params=params)


def step_robot(state: RobotState, u, dt: float,
               slip_rot: float = 0.0) -> RobotState:
    """Unicycle step with a rotational slip efficiency factor."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v, omega = u
    x = state.pose.x + v * np.cos(state.pose.theta_r) * dt
    y = state.pose.y + v * np.sin(state.pose.theta_r) * dt
    theta = wrap_angle(state.pose.theta_r + omega * (1.0 - slip_rot) * dt)
    return RobotState(pose=Pose2D(x, y, theta), stamp=state.stamp + dt)


# -- ray casting -------------------------------------------------------------


# Heightfield samples per ground-march block: the march's transient arrays
# stay a few MB whatever the ray count (~3 300 rays at 161 steps).
_GROUND_BLOCK_SAMPLES = 2 ** 19
_GROUND_COARSE_STEP = 0.5    # m between the march's heightfield samples
_GROUND_REFINE_ITERS = 30    # bisection steps per crossing ray
_T_MIN = 0.05                # m, primitive hits nearer the sensor are ignored


def _ray_ground(origins, dirs, ground: Heightfield, max_range):
    """First ray/heightfield crossing per ray via coarse march + bisection.

    A bilinear sample lies between the grid's min and max up to rounding, so
    the march samples the heightfield only at points inside that band (widened
    by a margin): above it a point is not below ground, under it a point is.
    Rays that start above the band and do not descend never enter it. The
    other rays are marched in blocks of ``_GROUND_BLOCK_SAMPLES`` samples,
    then the crossing rays are bisected together; each ray's result does not
    depend on the block it is in.
    """
    n_steps = max(int(np.ceil(max_range / _GROUND_COARSE_STEP)) + 1, 2)
    ts = np.linspace(0.0, max_range, n_steps)
    grid = ground.grid
    margin = 1e-9 * (1.0 + np.abs(grid).max())
    band = (grid.min() - margin, grid.max() + margin)
    cand = np.nonzero((origins[:, 2] <= band[1]) | (dirs[:, 2] < 0))[0]
    first = np.empty(len(cand), dtype=np.int64)
    block = max(_GROUND_BLOCK_SAMPLES // n_steps, 1)
    for start in range(0, len(cand), block):
        rows = cand[start:start + block]
        first[start:start + block] = _first_below(origins[rows], dirs[rows],
                                                  ground, ts, band)
    t_hit = np.full(len(origins), np.inf)
    hit = np.nonzero(first)[0]
    if len(hit):
        t_lo = ts[first[hit] - 1]
        t_hi = ts[first[hit]]
        rows = cand[hit]
        o = origins[rows]
        d = dirs[rows]
        for _ in range(_GROUND_REFINE_ITERS):
            t_mid = 0.5 * (t_lo + t_hi)
            p = o + d * t_mid[:, None]
            under = p[:, 2] < ground.sample(p[:, 0], p[:, 1])
            t_hi = np.where(under, t_mid, t_hi)
            t_lo = np.where(under, t_lo, t_mid)
        t_hit[rows] = 0.5 * (t_lo + t_hi)
    return t_hit


def _first_below(origins, dirs, ground: Heightfield, ts, band):
    """Index into ``ts`` of each ray's first coarse step below the ground, 0
    when none is: the march of one block of ``_ray_ground``'s rays, which
    samples the heightfield only inside the height ``band``."""
    lo, hi = band
    pz = origins[:, 2:3] + dirs[:, 2:3] * ts
    below = pz < lo
    r, k = np.nonzero((pz >= lo) & (pz <= hi))
    below[r, k] = pz[r, k] < ground.sample(origins[r, 0] + dirs[r, 0] * ts[k],
                                           origins[r, 1] + dirs[r, 1] * ts[k])
    below[:, 0] = False  # sensor is above ground
    return np.argmax(below, axis=1)


def _in_reach(origins, xy, radii, max_range):
    """Indices, ascending, of the upright primitives (plan-view centers
    ``xy``, radii ``radii``) that a unit ray from one of ``origins`` can hit
    before ``max_range``: a hit lies within ``max_range`` of its origin, so a
    primitive farther than ``max_range`` plus its radius from the origins'
    bounding box gives none. The extra 1 m covers rounding."""
    lo = origins[:, :2].min(axis=0)
    hi = origins[:, :2].max(axis=0)
    gap = np.maximum(np.maximum(lo - xy, xy - hi), 0.0)
    return np.nonzero(np.hypot(gap[:, 0], gap[:, 1])
                      <= max_range + radii + 1.0)[0]


def _ray_cylinders(origins, dirs, trees: Trees, max_range):
    """Nearest finite-cylinder (trunk) hit per unit ray; only the trunks in
    reach of the rays are tested."""
    best = np.full(len(origins), np.inf)
    ox, oy, oz = origins[:, 0], origins[:, 1], origins[:, 2]
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    a = dx * dx + dy * dy
    for i in _in_reach(origins, trees.xy, trees.trunk_radius, max_range):
        cx, cy = trees.xy[i]
        r = trees.trunk_radius[i]
        fx = ox - cx
        fy = oy - cy
        b = 2 * (fx * dx + fy * dy)
        c = fx * fx + fy * fy - r * r
        disc = b * b - 4 * a * c
        valid = (disc > 0) & (a > 1e-12)
        t = np.where(valid, (-b - np.sqrt(np.maximum(disc, 0.0))) /
                     np.where(a > 1e-12, 2 * a, 1.0), np.inf)
        z = oz + dz * t
        good = valid & (t > _T_MIN) & (t < max_range) & \
            (z >= trees.base_z[i] - 0.5) & (z <= trees.trunk_top[i])
        best = np.where(good & (t < best), t, best)
    return best


def _ray_spheres(origins, dirs, centers, radii, max_range):
    """Two nearest sphere (foliage shell) entry hits per ray."""
    n = len(origins)
    best1 = np.full(n, np.inf)
    best2 = np.full(n, np.inf)
    for i in range(len(centers)):
        f = origins - centers[i]
        b = 2 * np.einsum("ij,ij->i", f, dirs)
        c = np.einsum("ij,ij->i", f, f) - radii[i] ** 2
        disc = b * b - 4 * c
        valid = disc > 0
        t = np.where(valid, (-b - np.sqrt(np.maximum(disc, 0.0))) / 2.0, np.inf)
        good = valid & (t > _T_MIN) & (t < max_range)
        t = np.where(good, t, np.inf)
        closer = t < best1
        best2 = np.where(closer, best1, np.minimum(best2, t))
        best1 = np.where(closer, t, best1)
    return best1, best2


def _ray_boxes(origins, dirs, boxes, max_range):
    """Nearest axis-aligned box entry hit per ray (slab method)."""
    best = np.full(len(origins), np.inf)
    with np.errstate(divide="ignore"):
        inv = 1.0 / dirs
    for bx in boxes:
        lo = np.array([bx.xmin, bx.ymin, bx.z_base])
        hi = np.array([bx.xmax, bx.ymax, bx.z_top])
        with np.errstate(invalid="ignore"):
            t1 = (lo - origins) * inv
            t2 = (hi - origins) * inv
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        good = (t_near <= t_far) & (t_near > _T_MIN) & (t_near < max_range)
        best = np.where(good & (t_near < best), t_near, best)
    return best


def simulate_lidar(world: World, track, lp: LidarParams,
                   seed: int) -> PointCloud:
    """One revolution of the spinning lidar, swept over the scan period.

    ``track`` is the true planar robot motion as rows (stamps, x, y, yaw),
    e.g. a (4, m) array with increasing stamps and unwrapped yaw. The scan
    starts at the first stamp, and each azimuth column senses from the track
    linearly interpolated at its own time; a one-sample track is a robot at
    rest. Points are expressed in the instantaneous sensor frame at their
    own timestamp (frame L, skewed), ordered beam-major / azimuth-minor.
    """
    stamps, xs, ys, yaws = np.asarray(track, dtype=np.float64)
    period = 1.0 / lp.rate
    az = 2 * np.pi * np.arange(lp.azimuth_steps) / lp.azimuth_steps
    col_times = (stamps[0]
                 + period * np.arange(lp.azimuth_steps) / lp.azimuth_steps)
    px = np.interp(col_times, stamps, xs)
    py = np.interp(col_times, stamps, ys)
    yaw = np.interp(col_times, stamps, yaws)
    pz = world.ground.sample(px, py) + lp.mount_height

    elev = np.deg2rad(np.linspace(lp.fov_low_deg, lp.fov_high_deg, lp.beams))
    ce, se = np.cos(elev), np.sin(elev)
    # Sensor-frame directions (beams, az, 3).
    dir_local = np.stack([
        np.outer(ce, np.cos(az)),
        np.outer(ce, np.sin(az)),
        np.repeat(se[:, None], lp.azimuth_steps, axis=1),
    ], axis=-1)
    cy, sy = np.cos(yaw), np.sin(yaw)
    dir_world = np.empty_like(dir_local)
    dir_world[..., 0] = dir_local[..., 0] * cy - dir_local[..., 1] * sy
    dir_world[..., 1] = dir_local[..., 0] * sy + dir_local[..., 1] * cy
    dir_world[..., 2] = dir_local[..., 2]

    n = lp.beams * lp.azimuth_steps
    origins = np.tile(np.column_stack([px, py, pz]), (lp.beams, 1))
    dirs = dir_world.reshape(n, 3)
    dloc = dir_local.reshape(n, 3)
    times = np.tile(col_times, lp.beams)

    t_ground = _ray_ground(origins, dirs, world.ground, lp.max_range)
    t_trunk = _ray_cylinders(origins, dirs, world.trees, lp.max_range)
    t_building = _ray_boxes(origins, dirs, world.buildings, lp.max_range)

    t_solid = np.minimum.reduce([t_ground, t_trunk, t_building])
    cls = np.select(
        [t_solid == t_building, t_solid == t_trunk],
        [CLASS_BUILDING, CLASS_VEGETATION],
        default=CLASS_GROUND,
    )

    rng = _rng(seed, _STREAM_FOLIAGE)
    s1, s2 = _ray_spheres(origins, dirs, world.trees.foliage_center,
                          world.trees.foliage_radius, lp.max_range)
    porosity = world.params.canopy_porosity
    draw1 = rng.random(n)
    draw2 = rng.random(n)
    jitter = rng.normal(0.0, world.params.foliage_jitter_sd, n)
    hit1 = (s1 < t_solid) & (draw1 >= porosity)
    hit2 = (~hit1) & (s2 < t_solid) & (draw2 >= porosity)
    t_hit = np.where(hit1, s1 + jitter, np.where(hit2, s2 + jitter, t_solid))
    cls = np.where(hit1 | hit2, CLASS_VEGETATION, cls)

    returned = np.isfinite(t_hit) & (t_hit <= lp.max_range)
    rng_noise = _rng(seed, _STREAM_NOISE)
    noise = rng_noise.normal(0.0, lp.range_noise_sd, n) if lp.range_noise_sd > 0 \
        else np.zeros(n)
    ranges = t_hit + noise

    pts = dloc[returned] * ranges[returned, None]
    return PointCloud(points=pts, frame=FRAME_LIDAR,
                      timestamps=times[returned],
                      labels=cls[returned].astype(np.int64))


def apply_snowfall(scan: PointCloud, particle_count: int, near_radius: float,
                   seed: int) -> PointCloud:
    """Append spurious returns, uniform in a sphere around the sensor and
    stamped inside the scan window, to a raw scan (no normals, no dyn_prob)."""
    if particle_count < 0:
        raise ValueError("particle_count must be >= 0")
    if scan.normals is not None or scan.dyn_prob is not None:
        raise ValueError("snowfall injection expects a raw scan")
    if particle_count == 0:
        return scan.copy()
    rng = _rng(seed, _STREAM_SNOWFALL)
    v = rng.normal(size=(particle_count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radii = near_radius * rng.random(particle_count) ** (1.0 / 3.0)
    pts = v * radii[:, None]
    if scan.timestamps is not None and len(scan):
        t_lo, t_hi = float(scan.timestamps.min()), float(scan.timestamps.max())
    else:
        t_lo = t_hi = 0.0
    ts = rng.uniform(t_lo, t_hi, particle_count) if t_hi > t_lo \
        else np.full(particle_count, t_lo)
    out = scan.copy()
    if out.labels is None:
        out.labels = np.zeros(len(out), dtype=np.int64)
    if out.timestamps is None:
        out.timestamps = np.zeros(len(out))
    out.points = np.vstack([out.points, pts])
    out.timestamps = np.concatenate([out.timestamps, ts])
    out.labels = np.concatenate([out.labels,
                                 np.full(particle_count, CLASS_SNOWFALL,
                                         dtype=np.int64)])
    return out


def accumulate_snow(world: World, depth: float, class_factors: dict) -> World:
    """Heterogeneous accumulation: ground raised by depth*factor('ground'),
    building tops by depth*factor('building'), foliage shells displaced outward
    by depth*factor('vegetation'). Returns a new world that shares the
    arrays it leaves unchanged with ``world``."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    fg = float(class_factors.get("ground", 0.0))
    fv = float(class_factors.get("vegetation", 0.0))
    fb = float(class_factors.get("building", 0.0))
    ground, trees = world.ground, world.trees
    return replace(
        world, ground=replace(ground, grid=ground.grid + depth * fg),
        trees=replace(trees, foliage_radius=trees.foliage_radius + depth * fv),
        buildings=[replace(b, z_top=b.z_top + depth * fb)
                   for b in world.buildings])
