"""Implicit midpoint stepping, trajectories, and the tangent-system check."""

import dataclasses

import numpy as np
import pytest

import passivebeam as pb
from passivebeam.dynamics import apply_generator, linear_generator_matrix, pack, pack_tangent
from passivebeam.errors import (
    DimensionMismatch,
    EmptyTrajectory,
    InsufficientResolution,
    NewtonDivergence,
    StepRejected,
)
from passivebeam.integrator import MidpointStepper

from conftest import default_config, linear_config, make_system, undamped_config, white_state


@pytest.fixture(scope="module")
def sys6(beam):
    return make_system(beam, 6)


def qnorm(state, sys, config):
    lin1 = pb.linearize_block(config.block_rotational)
    lin2 = pb.linearize_block(config.block_translational)
    return float(np.sqrt(pb.state_qnorm2(state, sys, config, lin1, lin2)))


def test_settings_validation():
    with pytest.raises(ValueError):
        pb.IntegratorSettings(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        pb.IntegratorSettings(dt=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        pb.IntegratorSettings(dt=0.1, t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        pb.IntegratorSettings(dt=0.1, t_end=1.0, newton_tol=-1.0)


def test_settings_reject_t_end_off_the_step_grid():
    # 0.01 / 0.003 = 3.33...: the run would stop at t = 0.009
    with pytest.raises(ValueError, match="whole number of steps"):
        pb.IntegratorSettings(dt=0.003, t_end=0.01)
    assert pb.IntegratorSettings(dt=1e-3, t_end=0.05).n_steps == 50
    assert pb.IntegratorSettings(dt=5e-4, t_end=5.0).n_steps == 10_000


def test_zero_state_is_fixed_point(sys6, beam):
    config = default_config(beam)
    zero = pb.zero_state(sys6, config)
    stepped = pb.step_midpoint(zero, 1e-2, sys6, config)
    assert np.abs(pack(stepped)).max() == 0.0


def test_undamped_step_preserves_energy_norm(sys6, beam):
    config = undamped_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    y0 = pb.first_mode_initial_state(sys6, config)
    state = y0
    n0 = qnorm(y0, sys6, config)
    for _ in range(100):
        state = stepper.step_with(state, newton_tol=1e-12, newton_max_iter=25)
        assert qnorm(state, sys6, config) == pytest.approx(n0, rel=1e-11)


def test_damped_linear_step_contracts(sys6, beam):
    config = linear_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = white_state(sys6, config, rng)
        stepped = stepper.step_with(state, newton_tol=1e-12, newton_max_iter=25)
        before = qnorm(state, sys6, config)
        after = qnorm(stepped, sys6, config)
        assert after <= before * (1.0 + 1e-12)


def test_time_reversal_of_undamped_flow(sys6, beam):
    config = undamped_config(beam)
    y0 = pb.first_mode_initial_state(sys6, config)
    tol = 1e-12
    forward = pb.step_midpoint(y0, 1e-3, sys6, config, newton_tol=tol)
    back = pb.step_midpoint(forward, -1e-3, sys6, config, newton_tol=tol)
    drift = qnorm(
        pb.StateVector(
            u_dofs=back.u_dofs - y0.u_dofs,
            v_dofs=back.v_dofs - y0.v_dofs,
            z1=back.z1 - y0.z1,
            z2=back.z2 - y0.z2,
        ),
        sys6,
        config,
    )
    assert drift <= 10.0 * tol * (1.0 + qnorm(y0, sys6, config))


def test_newton_divergence_reported(sys6, beam):
    config = default_config(beam)
    rng = np.random.default_rng(1)
    state = white_state(sys6, config, rng, scale=5.0)
    with pytest.raises(NewtonDivergence):
        pb.step_midpoint(state, 1e-3, sys6, config, newton_max_iter=1)


def test_cap_hit_while_falling_advises_smaller_step(sys6, beam):
    config = default_config(beam)
    state = white_state(sys6, config, np.random.default_rng(1), scale=5.0)
    with pytest.raises(NewtonDivergence, match="still falling.*halve dt"):
        pb.step_midpoint(state, 1e-3, sys6, config, newton_max_iter=3)


def test_roundoff_stagnation_is_reported_as_such(beam):
    # at n=64 the residual settles near 2e-17 from the fourth iteration on
    sys64 = make_system(beam, 64)
    config = default_config(beam)
    stepper = MidpointStepper(sys64, config, 1e-3)
    calls = []
    rhs = stepper.rhs
    stepper.rhs = lambda *args: calls.append(1) or rhs(*args)
    with pytest.raises(NewtonDivergence, match="stagnated at .* roundoff floor") as info:
        stepper.step_flat(pack(pb.first_mode_initial_state(sys64, config)), 1e-30, 25)
    assert len(calls) <= 6
    message = str(info.value)
    assert "halve dt" not in message
    assert 0.0 < info.value.residual < 1e-14
    assert f"stagnated at {info.value.residual:.3e} above tolerance" in message


def test_simulate_keeps_newton_residual(sys6, beam):
    config = default_config(beam)
    rng = np.random.default_rng(1)
    state = white_state(sys6, config, rng, scale=5.0)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.01, newton_max_iter=1)
    with pytest.raises(NewtonDivergence) as info:
        pb.simulate(state, settings, sys6, config)
    assert "t=0.001" in str(info.value)
    assert info.value.residual is not None and info.value.residual > 0.0


def test_non_finite_state_stops_newton_at_once(sys6, beam):
    config = default_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    flat = pack(pb.first_mode_initial_state(sys6, config))
    flat[3] = np.nan
    calls = []
    rhs = stepper.rhs
    stepper.rhs = lambda *args: calls.append(1) or rhs(*args)
    with pytest.raises(NewtonDivergence, match="not finite") as info:
        stepper.step_flat(flat, 1e-10, 25)
    assert len(calls) == 1
    assert np.isnan(info.value.residual)


@pytest.mark.parametrize("n_elements", [6, 64])
@pytest.mark.parametrize("dt", [1e-3, -1e-3])
def test_schur_solve_inverts_midpoint_matrix(beam, n_elements, dt):
    sys_n = make_system(beam, n_elements)
    config = default_config(beam)
    stepper = MidpointStepper(sys_n, config, dt)
    g = linear_generator_matrix(sys_n, config, stepper.lin1, stepper.lin2)
    rng = np.random.default_rng(3)
    r = pack(white_state(sys_n, config, rng))
    x = stepper.solve(r)
    defect = x - 0.5 * dt * (g @ x) - r
    assert stepper.qnorm(defect) <= 1e-12 * stepper.qnorm(r)


def test_stepper_rhs_matches_apply_generator(beam):
    sys_n = make_system(beam, 64)
    config = default_config(beam)
    stepper = MidpointStepper(sys_n, config, 1e-3)
    state = white_state(sys_n, config, np.random.default_rng(4))
    expected = pack_tangent(apply_generator(state, sys_n, config))
    got = stepper.rhs(pack(state))
    assert stepper.qnorm(got - expected) <= 1e-14 * stepper.qnorm(expected)


def test_stepper_rejects_non_banded_system(sys6, beam):
    dense = dataclasses.replace(sys6, stiffness_beam=np.ones_like(sys6.stiffness_beam))
    with pytest.raises(DimensionMismatch):
        MidpointStepper(dense, default_config(beam), 1e-3)


@pytest.mark.parametrize("n_elements", [256, 512])
def test_fine_mesh_steps_at_default_tolerance(beam, n_elements):
    sys_n = make_system(beam, n_elements)
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.1, record_every=100)
    traj = pb.simulate(pb.first_mode_initial_state(sys_n, config), settings, sys_n, config)
    assert traj.times[-1] == pytest.approx(0.1)
    assert not traj.h_flagged


def test_step_rejected_with_budget(sys6, beam):
    config = default_config(beam)
    y0 = pb.first_mode_initial_state(sys6, config)
    with pytest.raises(StepRejected):
        pb.step_midpoint(y0, 1e-3, sys6, config, h_budget=-1.0)


def test_simulate_zero_initial_state(sys6, beam):
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-2, t_end=0.1, record_every=2)
    traj = pb.simulate(pb.zero_state(sys6, config), settings, sys6, config)
    assert np.all(traj.totals() == 0.0)
    assert np.all(traj.hdots == 0.0)
    assert np.all(traj.nonlinearity_norms == 0.0)
    assert not traj.h_flagged


def test_simulate_record_layout(sys6, beam):
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.05, record_every=10)
    traj = pb.simulate(pb.first_mode_initial_state(sys6, config), settings, sys6, config)
    assert len(traj.times) == len(traj.states) == len(traj.energies)
    assert len(traj.hdots) == len(traj.nonlinearity_norms) == len(traj.tangent_norms)
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05)
    assert np.allclose(np.diff(traj.times), 0.01)


def test_simulate_records_state_energy_norms(sys6, beam):
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.05, record_every=10)
    traj = pb.simulate(pb.first_mode_initial_state(sys6, config), settings, sys6, config)
    expected = [qnorm(state, sys6, config) for state in traj.states]
    assert np.allclose(traj.state_norms, expected, rtol=1e-12, atol=0.0)


def test_simulate_energy_monotone_and_rates_negative(sys6, beam):
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=2.0, record_every=5)
    traj = pb.simulate(pb.first_mode_initial_state(sys6, config), settings, sys6, config)
    totals = traj.totals()
    assert np.all(np.diff(totals) <= pb.ENERGY_INCREASE_ETA * totals[0])
    assert not traj.h_flagged
    assert np.all(traj.hdots <= 0.0)
    # strict decay whenever the dissipating coordinates are active
    for state, hdot in zip(traj.states[1:], traj.hdots[1:]):
        active = np.linalg.norm(
            np.concatenate(
                [
                    state.z1,
                    state.z2,
                    [state.xi(sys6), state.psi(sys6)],
                ]
            )
        )
        if active > 1e-6:
            assert hdot < 0.0


def test_tangent_residual_zero_trajectory(sys6, beam):
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-2, t_end=0.1, record_every=1)
    traj = pb.simulate(pb.zero_state(sys6, config), settings, sys6, config)
    assert pb.tangent_residual(traj, sys6, config) == 0.0


def test_tangent_residual_needs_three_records(sys6, beam):
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-2, t_end=0.02, record_every=2)
    traj = pb.simulate(pb.zero_state(sys6, config), settings, sys6, config)
    assert len(traj.times) == 2
    with pytest.raises(InsufficientResolution):
        pb.tangent_residual(traj, sys6, config)


def test_tangent_residual_linear_second_order(beam):
    sys_c = make_system(beam, 4)
    config = linear_config(beam)
    y0 = pb.smooth_initial_state(sys_c, config, tip_fraction=0.1)
    residuals = []
    for dt in (1e-3, 5e-4):
        settings = pb.IntegratorSettings(dt=dt, t_end=1.0, record_every=1)
        traj = pb.simulate(y0, settings, sys_c, config)
        residuals.append(pb.tangent_residual(traj, sys_c, config))
    assert residuals[0] <= 1e-3
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.2)


def test_initial_states_scaled_to_tip_deflection(sys6, beam):
    config = default_config(beam)
    for builder in (pb.first_mode_initial_state, pb.smooth_initial_state):
        y0 = builder(sys6, config, tip_fraction=0.1)
        assert y0.u_dofs[sys6.tip_value_index] == pytest.approx(0.1 * beam.length)
    y0 = pb.first_mode_initial_state(sys6, config)
    assert np.abs(y0.v_dofs).max() == 0.0
    assert np.abs(y0.z1).max() == 0.0 and np.abs(y0.z2).max() == 0.0


def test_tip_momentum_accessors(sys6, beam):
    config = default_config(beam)
    rng = np.random.default_rng(2)
    state = white_state(sys6, config, rng)
    assert state.xi(sys6) == beam.tip_inertia * state.v_dofs[sys6.tip_slope_index]
    assert state.psi(sys6) == beam.tip_mass * state.v_dofs[sys6.tip_value_index]
