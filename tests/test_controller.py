import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailnav.controller import (Command, ControllerConfig, FrenetState,
                                 Pose2D, Status, check_termination,
                                 compute_command, project_onto_path,
                                 wrap_angle)
from trailnav.trajectory import Trajectory


def _frenet(x_t=0.0, x_n=0.0, theta_e=0.0, d_g=100.0, offset=None):
    return FrenetState(x_t=x_t, x_n=x_n, theta_e=theta_e, d_g=d_g,
                       offset_dist=abs(x_n) if offset is None else offset)


CFG = ControllerConfig()


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.1 - 2 * np.pi) == pytest.approx(0.1)


def test_config_defaults_and_validation():
    assert (CFG.k, CFG.K_h, CFG.K_g) == (0.4, 3.0, 0.5)
    assert (CFG.v_nom, CFG.v_min, CFG.v_max) == (1.5, 0.5, 1.5)
    assert (CFG.omega_m, CFG.tau_g, CFG.tau_w) == (1.0, 0.15, 1.0)
    with pytest.raises(ValueError):
        ControllerConfig(v_min=2.0)   # violates v_min <= v_nom
    with pytest.raises(ValueError):
        ControllerConfig(k=0.0)


def test_on_path_drives_straight():
    cmd = compute_command(_frenet(), CFG)
    assert cmd.omega == 0.0
    assert cmd.v_x == pytest.approx(1.5 * np.exp(-0.5 / 100.0))


def test_convergence_angle_hand_example():
    # x_n = 1, x_t = 0: phi_c = arctan(-0.4); omega = K_h * phi_c (theta_e=0).
    cmd = compute_command(_frenet(x_n=1.0), CFG)
    phi_c = np.arctan(-0.4)
    assert cmd.omega == pytest.approx(max(3.0 * phi_c, -1.0))
    # with these gains 3*|phi_c| > 1 so the clamp binds
    assert cmd.omega == -1.0


def test_x_t_attenuates_convergence():
    # x_t = 5: exp(-0.4*5) scales the lateral term.
    cmd = compute_command(_frenet(x_t=5.0, x_n=1.0),
                          ControllerConfig(K_h=1.0))
    expected = np.arctan(-0.4 * np.exp(-2.0))
    assert cmd.omega == pytest.approx(expected)


def test_omega_clamp_both_sides():
    assert compute_command(_frenet(x_n=50.0), CFG).omega == -1.0
    assert compute_command(_frenet(x_n=-50.0), CFG).omega == 1.0


def test_heading_error_steers_back():
    # Pointing 0.2 rad left of the tangent on the path -> steer right.
    cmd = compute_command(_frenet(theta_e=0.2), CFG)
    assert cmd.omega == pytest.approx(-0.6)


def test_speed_clamps():
    assert compute_command(_frenet(d_g=1000.0), CFG).v_x == pytest.approx(
        1.5 * np.exp(-0.5 / 1000.0))
    assert compute_command(_frenet(d_g=0.2), CFG).v_x == 0.5   # lower clamp
    cfg_wide = ControllerConfig(v_nom=1.0, v_max=1.5)
    assert compute_command(_frenet(d_g=1e9), cfg_wide).v_x <= 1.5


def test_zero_command_at_goal():
    cmd = compute_command(_frenet(d_g=0.0), CFG)
    assert cmd == Command(0.0, 0.0)


def test_mirror_symmetry_grid():
    # (x_n, theta_e) -> (-x_n, -theta_e) must mirror omega and keep v_x.
    for x_n in np.linspace(-2.0, 2.0, 21):
        for theta_e in np.linspace(-1.5, 1.5, 21):
            a = compute_command(_frenet(x_n=x_n, theta_e=theta_e), CFG)
            b = compute_command(_frenet(x_n=-x_n, theta_e=-theta_e), CFG)
            assert a.omega == pytest.approx(-b.omega, abs=1e-12)
            assert a.v_x == pytest.approx(b.v_x, abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(st.floats(-10, 10), st.floats(-np.pi, np.pi), st.floats(0.01, 1e4),
       st.floats(-20, 20))
def test_command_always_within_clamps(x_n, theta_e, d_g, x_t):
    cmd = compute_command(_frenet(x_t=x_t, x_n=x_n, theta_e=theta_e, d_g=d_g),
                          CFG)
    assert -CFG.omega_m <= cmd.omega <= CFG.omega_m
    assert CFG.v_min <= cmd.v_x <= CFG.v_max


def test_termination_precedence():
    # Safety dominates goal when both hold.
    f = _frenet(d_g=0.1, offset=2.0)
    assert check_termination(f, CFG) is Status.SAFETY_ABORT
    assert check_termination(_frenet(d_g=0.1), CFG) is Status.GOAL_REACHED
    assert check_termination(_frenet(d_g=5.0), CFG) is Status.CONTINUE
    # Exactly at tau_w stays safe; exactly at tau_g reaches the goal.
    assert check_termination(_frenet(d_g=0.15, offset=1.0),
                             CFG) is Status.GOAL_REACHED


def _circle_traj(radius=10.0, n=200):
    th = np.linspace(0.0, np.pi, n)
    positions = np.column_stack([radius * np.cos(th), radius * np.sin(th),
                                 np.zeros(n)])
    yaw = th + np.pi / 2
    quats = np.column_stack([np.cos(yaw / 2), np.zeros(n), np.zeros(n),
                             np.sin(yaw / 2)])
    return Trajectory(np.arange(n, dtype=float), positions, quats)


def test_project_onto_path_fields():
    traj = _circle_traj()
    pose = Pose2D(11.0, 0.05, np.pi / 2)
    f = project_onto_path(pose, traj)
    assert f.x_n == pytest.approx(-1.0, abs=0.01)   # outside = right of travel
    assert abs(f.theta_e) < 0.05
    assert f.d_g == pytest.approx(traj.total_length(), abs=0.2)
    assert f.offset_dist == pytest.approx(1.0, abs=0.01)


def test_project_heading_error_wraps():
    traj = _circle_traj()
    pose = Pose2D(10.0, 0.0, np.pi / 2 + 4 * np.pi)
    f = project_onto_path(pose, traj)
    assert abs(f.theta_e) < 0.1
