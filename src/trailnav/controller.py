"""Orthogonal-exponential path follower: Frenet projection, control law, termination."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .trajectory import Trajectory


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = float((a + np.pi) % (2.0 * np.pi) - np.pi)
    return np.pi if w == -np.pi else w


@dataclass
class ControllerConfig:
    k: float = 0.4            # convergence gain (1/m)
    K_h: float = 3.0          # angular gain
    K_g: float = 0.5          # goal proximity gain (m)
    v_nom: float = 1.5        # m/s
    v_min: float = 0.5        # m/s
    v_max: float = 1.5        # m/s
    omega_m: float = 1.0      # rad/s
    tau_g: float = 0.15       # goal tolerance (m)
    tau_w: float = 1.0        # safety tolerance (m)

    def __post_init__(self):
        for name in ("k", "K_h", "K_g", "v_nom", "v_min", "v_max", "omega_m",
                     "tau_g", "tau_w"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.v_min <= self.v_nom <= self.v_max:
            raise ValueError("require v_min <= v_nom <= v_max")


@dataclass
class Pose2D:
    x: float
    y: float
    theta_r: float

    def __post_init__(self):
        self.theta_r = wrap_angle(self.theta_r)

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass
class FrenetState:
    """Robot state in the path frame at the orthogonal projection.

    ``x_n`` is positive left of the path direction; ``theta_e`` is the wrapped
    heading error, robot heading minus path tangent heading. ``offset_dist``
    is the full Euclidean distance to the foot point (equals |x_n| while the
    projection is interior, larger when the robot is beyond a path end).
    """

    x_t: float
    x_n: float
    theta_e: float
    d_g: float
    offset_dist: float = 0.0


@dataclass
class Command:
    v_x: float
    omega: float


class Status(enum.Enum):
    CONTINUE = "continue"
    GOAL_REACHED = "goal_reached"
    SAFETY_ABORT = "safety_abort"


def project_onto_path(pose: Pose2D, x_ref: Trajectory) -> FrenetState:
    """Orthogonal projection onto the reference polyline (nearest segment wins)."""
    proj = x_ref.project(pose.xy)
    return FrenetState(
        x_t=proj.t_along,
        x_n=proj.signed_normal,
        theta_e=wrap_angle(pose.theta_r - proj.tangent_heading),
        d_g=max(0.0, x_ref.total_length() - proj.arc_position),
        offset_dist=proj.distance,
    )


def compute_command(f: FrenetState, cfg: ControllerConfig) -> Command:
    """Exponential-convergence steering with clamped angular and linear velocity.

    The angular command drives the heading error toward the convergence angle
    phi_c, so it steers toward the path for either sign of x_n.
    """
    if f.d_g <= 0.0:
        return Command(0.0, 0.0)
    phi_c = float(np.arctan(-cfg.k * f.x_n * np.exp(-cfg.k * f.x_t)))
    omega = float(np.clip(cfg.K_h * (phi_c - f.theta_e), -cfg.omega_m, cfg.omega_m))
    v_x = float(np.clip(cfg.v_nom * np.exp(-cfg.K_g / f.d_g), cfg.v_min, cfg.v_max))
    return Command(v_x, omega)


def check_termination(f: FrenetState, cfg: ControllerConfig) -> Status:
    """SafetyAbort dominates GoalReached; otherwise Continue."""
    if f.offset_dist > cfg.tau_w:
        return Status.SAFETY_ABORT
    if f.d_g <= cfg.tau_g:
        return Status.GOAL_REACHED
    return Status.CONTINUE
