"""Implicit midpoint stepping, trajectories, and the tangent-system check."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import passivebeam as pb
from passivebeam import dynamics, integrator
from passivebeam.dynamics import ClosedLoopOperator, linear_generator_matrix
from passivebeam.errors import (
    DimensionMismatch,
    EmptyTrajectory,
    InsufficientResolution,
    LinearSolveFailure,
    NewtonDivergence,
    StepRejected,
)
from passivebeam.integrator import MidpointStepper

from conftest import (
    asymmetric_config,
    default_config,
    linear_config,
    linear_system,
    make_system,
    split_state,
    stiff_linear_config,
    undamped_config,
    white_state,
)


@pytest.fixture(scope="module")
def sys6(beam):
    return make_system(beam, 6)


def qnorm(flat, sys, config):
    return float(np.sqrt(ClosedLoopOperator(sys, config).inner(flat, flat)))


def test_settings_validation():
    with pytest.raises(ValueError):
        pb.IntegratorSettings(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        pb.IntegratorSettings(dt=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        pb.IntegratorSettings(dt=0.1, t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        pb.IntegratorSettings(dt=0.1, t_end=1.0, newton_tol=-1.0)
    # values that would fail only at the first step or after the whole run
    for field, bad in (("newton_tol", np.inf), ("newton_tol", np.nan), ("newton_max_iter", 2.5),
                       ("newton_max_iter", True), ("record_every", 1.5), ("record_every", True)):
        with pytest.raises(ValueError, match=field):
            pb.IntegratorSettings(dt=0.1, t_end=1.0, **{field: bad})
    assert pb.IntegratorSettings(dt=0.1, t_end=1.0, newton_max_iter=np.int64(3)).newton_max_iter == 3


def test_settings_reject_t_end_off_the_step_grid():
    # 0.01 / 0.003 = 3.33...: the run would stop at t = 0.009
    with pytest.raises(ValueError, match="whole number of steps"):
        pb.IntegratorSettings(dt=0.003, t_end=0.01)
    assert pb.IntegratorSettings(dt=1e-3, t_end=0.05).n_steps == 50
    assert pb.IntegratorSettings(dt=5e-4, t_end=5.0).n_steps == 10_000


def test_zero_state_is_fixed_point(sys6, beam):
    config = default_config(beam)
    zero = pb.zero_state(sys6, config)
    stepped = MidpointStepper(sys6, config, 1e-2).step_flat(zero, 1e-10, 25)
    assert np.abs(stepped).max() == 0.0


def test_undamped_step_preserves_energy_norm(sys6, beam):
    config = undamped_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    y0 = pb.first_mode_initial_state(sys6, config)
    state = y0
    n0 = qnorm(y0, sys6, config)
    for _ in range(100):
        state = stepper.step_flat(state, newton_tol=1e-12, newton_max_iter=25)
        assert qnorm(state, sys6, config) == pytest.approx(n0, rel=1e-11)


def test_damped_linear_step_contracts(sys6, beam):
    config = linear_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = white_state(sys6, config, rng)
        stepped = stepper.step_flat(state, newton_tol=1e-12, newton_max_iter=25)
        before = qnorm(state, sys6, config)
        after = qnorm(stepped, sys6, config)
        assert after <= before * (1.0 + 1e-12)


def test_time_reversal_of_undamped_flow(sys6, beam):
    config = undamped_config(beam)
    y0 = pb.first_mode_initial_state(sys6, config)
    tol = 1e-12
    forward = MidpointStepper(sys6, config, 1e-3).step_flat(y0, tol, 25)
    back = MidpointStepper(sys6, config, -1e-3).step_flat(forward, tol, 25)
    drift = qnorm(back - y0, sys6, config)
    assert drift <= 10.0 * tol * (1.0 + qnorm(y0, sys6, config))


def test_newton_divergence_reported(sys6, beam):
    config = default_config(beam)
    rng = np.random.default_rng(1)
    state = white_state(sys6, config, rng, scale=5.0)
    with pytest.raises(NewtonDivergence):
        MidpointStepper(sys6, config, 1e-3).step_flat(state, 1e-10, 1)


def test_cap_hit_while_falling_advises_smaller_step(sys6, beam):
    config = default_config(beam)
    state = white_state(sys6, config, np.random.default_rng(1), scale=5.0)
    with pytest.raises(NewtonDivergence, match="still falling.*halve dt"):
        MidpointStepper(sys6, config, 1e-3).step_flat(state, 1e-10, 3)


def count_value_calls(stepper):
    """Record each evaluation of the stepper's remainder loads F."""
    calls = []
    value = stepper.remainder.value
    stepper.remainder.value = lambda q: calls.append(1) or value(q)
    return calls


def test_tiny_tolerance_step_converges(beam):
    # the reduced residual holds no stiff product, so no roundoff floor stops
    # it: at n=64 it falls 8.8e-6 -> 2.9e-15 -> below 1e-30 (1 + |y|_Q)
    sys64 = make_system(beam, 64)
    config = default_config(beam)
    stepper = MidpointStepper(sys64, config, 1e-3)
    y0 = pb.first_mode_initial_state(sys64, config)
    calls = count_value_calls(stepper)
    stepped = stepper.step_flat(y0, 1e-30, 25)
    assert len(calls) <= 6
    loose = stepper.step_flat(y0, 1e-10, 25)
    assert stepper.qnorm(stepped - loose) <= 1e-10 * (1.0 + stepper.qnorm(y0))


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
    flat = pb.first_mode_initial_state(sys6, config)
    flat[3] = np.nan
    calls = count_value_calls(stepper)
    with pytest.raises(NewtonDivergence, match="not finite") as info:
        stepper.step_flat(flat, 1e-10, 25)
    assert len(calls) == 1
    assert np.isnan(info.value.residual)


@pytest.mark.parametrize("n_elements", [6, 64])
@pytest.mark.parametrize("dt, make_config", [
    pytest.param(dt, make_config, id=f"{prefix}{dt}")
    for prefix, make_config in (("", default_config), ("asymmetric-", asymmetric_config),
                                ("stiff-", stiff_linear_config))
    for dt in (1e-3, -1e-3)
])
def test_schur_solve_inverts_midpoint_matrix(beam, n_elements, dt, make_config):
    sys_n = make_system(beam, n_elements)
    config = make_config(beam)
    stepper = MidpointStepper(sys_n, config, dt)
    g = linear_generator_matrix(sys_n, config)
    rng = np.random.default_rng(3)
    r = white_state(sys_n, config, rng)
    x = stepper.solve(r)
    defect = x - 0.5 * dt * (g @ x) - r
    assert stepper.qnorm(defect) <= 1e-12 * stepper.qnorm(r)


def test_singular_midpoint_matrix_raises(sys6, beam):
    # a decoupled block z' = -z makes I - dt/2 G singular at dt = -2
    with pytest.raises(LinearSolveFailure, match="singular"):
        MidpointStepper(sys6, undamped_config(beam), -2.0)


def test_singular_newton_matrix_raises(sys6, beam, monkeypatch):
    # a Jacobian with one entry c at (0, 0) leaves the Newton matrix
    # I - h J U_q with the first row (1 - h c U_q[0, 0], -h c U_q[0, 1:]) and
    # zeros below it in the first column; h c U_q[0, 0] = 1 exactly (h a power
    # of two, c a floating-point neighbour of 1 / (h U_q[0, 0])) zeroes the column
    config = default_config(beam)
    stepper = MidpointStepper(sys6, config, 2.0**-10)
    rem, h = stepper.remainder, 2.0**-11
    u00 = stepper._sel_kinv_e[0, 0]
    c = 1.0 / (h * u00)
    jac = np.zeros((rem.p, rem.m))
    jac[0, 0] = next(x for x in c + np.spacing(c) * np.arange(-4, 5) if h * (x * u00) == 1.0)
    monkeypatch.setattr(rem, "jacobian_analytic", lambda q: jac.copy())
    y0 = pb.first_mode_initial_state(sys6, config)
    with pytest.raises(LinearSolveFailure, match="Newton matrix of the remainder loads is singular"):
        stepper.step_flat(y0, 1e-10, 25)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_stepper_rejects_a_non_finite_step(sys6, beam, dt):
    with pytest.raises(ValueError, match="dt must be finite"):
        MidpointStepper(sys6, default_config(beam), dt)


def test_tip_mass_is_factored_once_per_system(beam, monkeypatch):
    # (routine, band) of every banded Cholesky factorization
    calls = []
    for owner, name in ((scipy.linalg.lapack, "dpbtrf"), (scipy.linalg, "cholesky_banded")):
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append((_name, args[0]))
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    def routines():
        return [name for name, _ in calls]

    sys_n = make_system(beam, 6)
    assert routines() == ["dpbtrf"] and calls[0][1] is sys_n.mass_tip_band
    config = default_config(beam)
    y0 = pb.first_mode_initial_state(sys_n, config)
    stepper = MidpointStepper(sys_n, config, 1e-3)
    assert routines() == ["dpbtrf"] * 2
    stepper.step_flat(y0, 1e-10, 25)
    assert routines() == ["dpbtrf"] * 2
    pb.simulate(y0, pb.IntegratorSettings(dt=1e-3, t_end=5e-3), sys_n, config)
    assert routines() == ["dpbtrf"] * 3
    # the definiteness test of the energy Gram is one factorization of it
    linear_system(sys_n, config)
    assert routines() == ["dpbtrf"] * 4
    pb.spectrum(sys_n, config)
    assert routines() == ["dpbtrf"] * 5
    # the slow-end modes factor the stiffness once
    pb.smooth_initial_state(sys_n, config)
    assert routines() == ["dpbtrf"] * 6 and calls[-1][1] is sys_n.stiffness_band
    # the steppers factor their midpoint matrix and the Gram tests the Gram,
    # never the tip mass again
    assert not any(np.array_equal(band, sys_n.mass_tip_band) for _, band in calls[1:])


@pytest.mark.parametrize("n_elements", [256, 512])
def test_fine_mesh_steps_at_default_tolerance(beam, n_elements):
    sys_n = make_system(beam, n_elements)
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.1, record_every=100)
    traj = pb.simulate(pb.first_mode_initial_state(sys_n, config), settings, sys_n, config)
    assert traj.times[-1] == pytest.approx(0.1)
    assert not traj.h_flagged


def test_n1024_steps_at_default_tolerance(beam):
    # a residual holding the stiff product reaches its roundoff floor above
    # the default tol here within the first 50 steps
    sys_n = make_system(beam, 1024)
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.2, record_every=100)
    traj = pb.simulate(pb.first_mode_initial_state(sys_n, config), settings, sys_n, config)
    assert traj.times[-1] == pytest.approx(0.2)
    assert not traj.h_flagged


def test_n1024_energy_never_rises_between_records(beam):
    # recorded every step, the strain u^T K u of the smooth first mode cancels
    # to n^4 eps as a quadratic form (+2.4e-6 H0 into the third record, budget
    # 1e-8 H0); as a sum of squares of strain coordinates no record rises
    sys_n = make_system(beam, 1024)
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.3, record_every=1)
    traj = pb.simulate(pb.first_mode_initial_state(sys_n, config), settings, sys_n, config)
    assert len(traj.times) == 301
    assert not traj.h_flagged
    assert traj.h_increase_max <= 0.0


@pytest.mark.parametrize("n_elements", [8, 64])
@pytest.mark.parametrize("make_config", [default_config, asymmetric_config])
def test_reduced_residual_is_the_full_residual(beam, n_elements, make_config):
    sys_n = make_system(beam, n_elements)
    config = make_config(beam)
    dt = 1e-3
    stepper = MidpointStepper(sys_n, config, dt)
    op, rem = stepper.operator, stepper.remainder
    placement = rem.placement.T
    gram = np.array([[op.inner(a, b) for b in placement] for a in placement])
    assert np.abs(stepper.load_gram - gram).max() <= 1e-10 * np.abs(gram).max()
    rng = np.random.default_rng(4)
    for _ in range(10):
        y = white_state(sys_n, config, rng)
        f = rng.standard_normal(rem.p)
        # the iterate w = y + d that the step builds from the loads f
        d = 2.0 * (stepper.solve(y) - y) + dt * (stepper._kinv_e @ f)
        mid = y + 0.5 * d
        full = op.qnorm(d - dt * op.generator(mid))
        delta = f - rem.value(rem.q_of(mid))
        assert dt * np.sqrt(delta @ stepper.load_gram @ delta) == pytest.approx(full, rel=1e-10)


@pytest.mark.parametrize("n_elements", [8, 64])
def test_fused_pass_matches_the_cayley_step(beam, n_elements, monkeypatch):
    # constant loads f0 and a zero Jacobian make Newton land on f0 in one
    # correction, so the accepted step must be y + a + dt S P f0 at
    # q(y) + q(a)/2 + dt/2 q(S P) f0, a = 2 (S y - y) from ``solve``
    sys_n = make_system(beam, n_elements)
    config = asymmetric_config(beam)
    dt = 1e-3
    stepper = MidpointStepper(sys_n, config, dt)
    rem = stepper.remainder
    rng = np.random.default_rng(5)
    y, f0 = white_state(sys_n, config, rng), rng.standard_normal(rem.p)
    seen = []
    monkeypatch.setattr(rem, "value", lambda q: seen.append(q.copy()) or f0.copy())
    monkeypatch.setattr(rem, "jacobian_analytic", lambda q: np.zeros((rem.p, rem.m)))
    w = stepper.step_flat(y, 1e-10, 25)
    a = 2.0 * (stepper.solve(y) - y)
    bound = 1e-13 * (1.0 + stepper.qnorm(y))
    assert len(seen) == 2
    assert stepper.qnorm(w - (y + a + dt * (stepper._kinv_e @ f0))) <= bound
    q_mid = rem.q_of(y) + 0.5 * rem.q_of(a) + 0.5 * dt * (stepper._sel_kinv_e @ f0)
    assert np.abs(seen[-1] - q_mid).max() <= bound
    # the same pass gives |y|_Q: constant loads whose residual at the zero
    # start is tol (1 + |y|_Q) times 1 -+ 1e-12 are accepted there, or not
    tol = 1e-10 * (1.0 + stepper.qnorm(y))
    direction = f0 / (dt * np.sqrt(f0 @ stepper.load_gram @ f0))
    for scale, accepted in ((1.0 - 1e-12, True), (1.0 + 1e-12, False)):
        f0 = scale * tol * direction
        evaluations = stepper.evaluations
        try:
            stepper.step_flat(y, 1e-10, 1)  # y is not the last result: a zero start
        except NewtonDivergence:
            assert not accepted
        else:
            assert accepted and stepper.evaluations == evaluations + 1


def test_chained_step_from_the_extrapolated_start_agrees_with_a_fresh_one(sys6, beam):
    config = readme_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    state = pb.first_mode_initial_state(sys6, config)
    for _ in range(50):
        state = stepper.step_flat(state, 1e-10, 25)
    evaluations, corrections = stepper.evaluations, stepper.corrections
    chained = stepper.step_flat(state, 1e-10, 25)
    # accepted at the start extrapolated from the last three steps' loads
    assert (stepper.evaluations, stepper.corrections) == (evaluations + 1, corrections)
    fresh = MidpointStepper(sys6, config, 1e-3).step_flat(state, 1e-10, 25)
    assert stepper.qnorm(chained - fresh) <= 1e-10 * (1.0 + stepper.qnorm(state))


def stiff_spring_run(beam):
    # stiff cubic springs without dampers: midpoint conserves only quadratic
    # energy, so H rises by 2.01e-8 over the step to t = 0.356 (budget 1.11e-8)
    sys16 = make_system(beam, 16)
    sd = lambda: pb.SpringDamperLaw(
        damper=pb.make_law("zero"), spring=pb.make_law("cubic", slope=1.0, cubic=5.0)
    )
    config = pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=sd(),
        sd_translational=sd(),
        block_rotational=pb.make_block("linear", gain=0.0),
        block_translational=pb.make_block("linear", gain=0.0),
    )
    y0 = pb.first_mode_initial_state(sys16, config, tip_fraction=0.5)
    settings = pb.IntegratorSettings(dt=4e-3, t_end=0.4, record_every=1)
    return sys16, config, y0, settings


def test_simulate_rejects_a_step_over_the_energy_budget(beam):
    sys16, config, y0, settings = stiff_spring_run(beam)
    budget = pb.ENERGY_INCREASE_ETA * pb.eval_H(y0, sys16, config).total
    with pytest.raises(StepRejected, match="at t=0.356") as info:
        pb.simulate(y0, settings, sys16, config, raise_on_energy_increase=True)
    assert info.value.time == pytest.approx(0.356, rel=1e-12)
    assert budget < info.value.increase < 2.0 * budget
    traj = pb.simulate(y0, settings, sys16, config)
    assert traj.h_flagged
    assert traj.h_increase_max > budget


@pytest.mark.parametrize("chunk", [1, 3, 50])
def test_records_do_not_depend_on_the_chunk_size(beam, monkeypatch, chunk):
    sys16, config, y0, settings = stiff_spring_run(beam)
    whole = pb.simulate(y0, settings, sys16, config)
    monkeypatch.setattr(integrator, "RECORD_CHUNK", chunk)
    chunked = pb.simulate(y0, settings, sys16, config)
    for name in ("times", "packed", "energy", "hdots", "nonlinearity_norms", "tangent_norms", "state_norms"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name
    assert (chunked.h_increase_max, chunked.h_flagged) == (whole.h_increase_max, whole.h_flagged)
    with pytest.raises(StepRejected) as info:
        pb.simulate(y0, settings, sys16, config, raise_on_energy_increase=True)
    assert info.value.time == pytest.approx(0.356, rel=1e-12)


def test_step_failure_after_a_pending_violation_raises_the_rejection(beam, monkeypatch):
    # the violation at t = 0.356 (step 89) and the failing step 95 fall in one chunk
    sys16, config, y0, settings = stiff_spring_run(beam)
    step_flat, steps = MidpointStepper.step_flat, []

    def failing_step(self, y, newton_tol, newton_max_iter):
        steps.append(1)
        if len(steps) == 95:
            raise LinearSolveFailure("midpoint velocity solve failed")
        return step_flat(self, y, newton_tol, newton_max_iter)

    monkeypatch.setattr(MidpointStepper, "step_flat", failing_step)
    with pytest.raises(StepRejected, match="at t=0.356") as info:
        pb.simulate(y0, settings, sys16, config, raise_on_energy_increase=True)
    assert info.value.time == pytest.approx(0.356, rel=1e-12)
    assert len(steps) == 95
    steps.clear()
    with pytest.raises(LinearSolveFailure, match="step to t=0.38 failed"):
        pb.simulate(y0, settings, sys16, config)


def per_state_cubic_drift_block():
    """The registry cubic-drift block written for one state at a time: on a
    batch its callbacks raise or return the wrong shape."""
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    b = np.array([0.0, 1.0])
    return pb.PassiveBlock(
        dim=2,
        drift=lambda z: a @ z - float(z @ z) * z,
        input_gain=lambda z: b.copy(),
        output=lambda z: float(z[1]),
        storage=lambda z: 0.5 * float(z @ z),
        storage_grad=lambda z: np.array(z, dtype=float),
        drift_jac=lambda z: a - (float(z @ z) * np.eye(2) + 2.0 * np.outer(z, z)),
        input_jac=lambda z: np.zeros((2, 2)),
        output_grad=lambda z: b.copy(),
    )


def test_per_state_block_records_match_the_batched_path(sys6, beam):
    broadcasting = default_config(beam)
    per_state = dataclasses.replace(
        broadcasting, block_rotational=per_state_cubic_drift_block(), block_translational=per_state_cubic_drift_block()
    )
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.3, record_every=3)
    state = white_state(sys6, per_state, np.random.default_rng(5), scale=0.5)
    traj = pb.simulate(state, settings, sys6, per_state)
    # the same records, through broadcasting callbacks, on the recorded states
    stepper = MidpointStepper(sys6, broadcasting, settings.dt)
    energy = pb.eval_H(traj.packed, sys6, broadcasting)
    expected = {
        "energy": np.column_stack(dataclasses.astuple(energy)),
        "hdots": pb.eval_Hdot(traj.packed, sys6, broadcasting),
    }
    expected["tangent_norms"], loads = stepper.generator_norm(traj.packed)
    expected["nonlinearity_norms"] = stepper.nonlinear_norm(loads)
    for name, value in expected.items():
        got = getattr(traj, name)
        assert np.abs(got - value).max() <= 1e-13 * np.abs(value).max(), name


@pytest.mark.parametrize("record_every, records", [(1, 601), (7, 87)])
def test_simulate_evaluates_the_remainder_once_per_record_chunk(sys6, beam, monkeypatch, record_every, records):
    config = default_config(beam)
    calls, value = [], dynamics.RemainderMap.value
    monkeypatch.setattr(dynamics.RemainderMap, "value", lambda self, q: calls.append(1) or value(self, q))
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.6, record_every=record_every)
    traj = pb.simulate(pb.first_mode_initial_state(sys6, config), settings, sys6, config)
    assert len(traj.times) == records
    # the steps' evaluations, then one per chunk of recorded states
    assert len(calls) == traj.residual_evaluations + -(-records // integrator.RECORD_CHUNK)


@pytest.mark.parametrize("n_elements", [16, 128, 1024])
def test_remainder_norm_from_the_load_gram_matches_the_placed_tangent(beam, n_elements):
    sys_n, config = make_system(beam, n_elements), default_config(beam)
    stepper = MidpointStepper(sys_n, config, 1e-3)
    rng = np.random.default_rng(3)
    rows = np.array([white_state(sys_n, config, rng, scale=0.5) for _ in range(20)])
    _, loads = stepper.generator_norm(rows)
    expected = stepper.operator.qnorm(stepper.operator.nonlinear(rows))
    assert np.abs(stepper.nonlinear_norm(loads) - expected).max() <= 1e-14 * expected.max()


def count_callback_calls(*objects):
    """Swap each callable field of the laws and blocks for a counting one, as
    the benchmark tracer does; returns the running count."""
    calls = [0]

    def counting(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    for obj in objects:
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if callable(value):
                object.__setattr__(obj, field.name, counting(value))
    return calls


def test_record_chunk_and_block_certification_call_each_callback_once(sys6, beam):
    config = default_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    rng = np.random.default_rng(2)
    rows = np.array([white_state(sys6, config, rng, scale=0.5) for _ in range(256)])
    laws = [law for sd in (config.sd_rotational, config.sd_translational) for law in (sd.damper, sd.spring)]
    calls = count_callback_calls(*laws, config.block_rotational, config.block_translational)
    pb.eval_H(rows, sys6, config)
    pb.eval_Hdot(rows, sys6, config)
    stepper.nonlinear_norm(stepper.generator_norm(rows)[1])
    # energy: 2 potentials + 2 storages; rate: 2 x (drift, storage_grad, damper);
    # the norms: one remainder evaluation, 2 channels x (output, damper,
    # spring, drift, input_gain)
    assert calls[0] == 4 + 6 + 10
    block = pb.make_block("cubic-drift")
    calls = count_callback_calls(block)
    pb.certify_block(block, radius=1.5, samples=200)
    # 6 batched calls, 2 x 2 storage_grad calls for the Hessian, drift_jac at 0
    assert calls[0] == 6 + 4 + 1


def readme_config(beam):
    """The README channels: one law and block object shared by both channels,
    as the command line builds them from equal specs."""
    config = default_config(beam)
    return dataclasses.replace(config, sd_translational=config.sd_rotational,
                               block_translational=config.block_rotational)


def test_steady_step_evaluates_the_loads_once_and_no_jacobian(sys6, beam):
    config = readme_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    sd, block = config.sd_rotational, config.block_rotational
    calls = count_callback_calls(sd.damper, sd.spring, block)
    state, per_step = pb.first_mode_initial_state(sys6, config), []
    for _ in range(6):
        before = calls[0]
        state = stepper.step_flat(state, 1e-10, 25)
        per_step.append(calls[0] - before)
    # the first step starts from zero loads and factors a Jacobian (6
    # calls); the second starts from the first one's loads and corrects once
    # with the kept factor; from then on the loads (output, damper, spring,
    # drift, input_gain) are evaluated once, at the extrapolated start
    assert per_step == [16, 10, 5, 5, 5, 5]
    assert (stepper.corrections, stepper.jacobian_refreshes) == (2, 1)
    assert stepper.evaluations == 2 + 2 + 4


def test_long_run_refreshes_the_jacobian_rarely(beam):
    sys16 = make_system(beam, 16)
    config = readme_config(beam)
    y0 = pb.first_mode_initial_state(sys16, config)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=4.0, record_every=4000)
    traj = pb.simulate(y0, settings, sys16, config)
    assert traj.newton_corrections <= 1000
    assert traj.jacobian_refreshes <= 3
    assert traj.residual_evaluations <= 1.25 * settings.n_steps


def test_warm_and_fresh_steppers_agree_within_the_tolerance(sys6, beam):
    config = default_config(beam)
    warm = MidpointStepper(sys6, config, 1e-3)
    state = pb.first_mode_initial_state(sys6, config)
    for _ in range(200):
        state = warm.step_flat(state, 1e-10, 25)
    refreshes = warm.jacobian_refreshes
    fresh = MidpointStepper(sys6, config, 1e-3).step_flat(state, 1e-10, 25)
    stepped = warm.step_flat(state, 1e-10, 25)
    assert warm.jacobian_refreshes == refreshes  # the warm path, on the kept factor
    assert warm.qnorm(stepped - fresh) <= 1e-10 * (1.0 + warm.qnorm(state))


def test_stepper_warmed_on_a_far_off_state_steps_like_a_fresh_one(sys6, beam):
    # a warm start from far-off loads with a factor from there took up to four
    # more iterations than a fresh stepper; a state the stepper did not just
    # return starts cold
    config = default_config(beam)
    rng = np.random.default_rng(4)
    far, state = white_state(sys6, config, rng, scale=20.0), white_state(sys6, config, rng)

    def fresh_step(cap):
        return MidpointStepper(sys6, config, 1e-3).step_flat(state, 1e-10, cap)

    cap = 1
    while True:
        try:
            expected = fresh_step(cap)
            break
        except NewtonDivergence:
            cap += 1
    warm = MidpointStepper(sys6, config, 1e-3)
    warm.step_flat(far, 1e-10, 25)
    assert np.array_equal(warm.step_flat(state, 1e-10, cap), expected)


def test_failed_step_keeps_the_warm_start(sys6, beam):
    config = default_config(beam)
    stepper = MidpointStepper(sys6, config, 1e-3)
    state = stepper.step_flat(pb.first_mode_initial_state(sys6, config), 1e-10, 25)
    kept = MidpointStepper(sys6, config, 1e-3)
    kept_state = kept.step_flat(pb.first_mode_initial_state(sys6, config), 1e-10, 25)
    with pytest.raises(NewtonDivergence):
        stepper.step_flat(white_state(sys6, config, np.random.default_rng(1), scale=5.0), 1e-10, 1)
    assert np.array_equal(stepper.step_flat(state, 1e-10, 25), kept.step_flat(kept_state, 1e-10, 25))


def test_simulate_failures_carry_the_failing_time(sys6, beam, monkeypatch):
    config = default_config(beam)
    state = white_state(sys6, config, np.random.default_rng(1), scale=5.0)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=2e-3, newton_max_iter=1)
    with pytest.raises(NewtonDivergence) as info:
        pb.simulate(state, settings, sys6, config)
    assert info.value.time == 1e-3

    def failing_step(self, y, newton_tol, newton_max_iter):
        raise LinearSolveFailure("midpoint velocity solve failed")

    monkeypatch.setattr(MidpointStepper, "step_flat", failing_step)
    with pytest.raises(LinearSolveFailure, match="step to t=0.001 failed") as info:
        pb.simulate(state, settings, sys6, config)
    assert info.value.time == 1e-3


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
    assert len(traj.times) == len(traj.packed) == len(traj.energy)
    assert len(traj.hdots) == len(traj.nonlinearity_norms) == len(traj.tangent_norms)
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05)
    assert np.allclose(np.diff(traj.times), 0.01)


@pytest.mark.parametrize("t_end", [0.3, 0.7])
def test_simulate_last_record_is_at_t_end(sys6, beam, t_end):
    # 3 * 0.1 and 7 * 0.1 are 0.30000000000000004 and 0.7000000000000001
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=0.1, t_end=t_end, record_every=3)
    traj = pb.simulate(pb.first_mode_initial_state(sys6, config), settings, sys6, config)
    assert traj.times[-1] == t_end
    assert np.allclose(traj.times[:-1], 0.3 * np.arange(len(traj.times) - 1), rtol=0.0, atol=1e-15)


def test_simulate_takes_one_packed_state(sys6, beam, monkeypatch):
    config = default_config(beam)
    y0 = pb.first_mode_initial_state(sys6, config)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=2e-3)
    monkeypatch.setattr(MidpointStepper, "step_flat", lambda *args: pytest.fail("simulate stepped"))
    for bad in (y0[None, :], np.stack([y0, y0]), y0[:-1], np.append(y0, 0.0)):
        with pytest.raises(DimensionMismatch, match=f"one packed state of {len(y0)} entries"):
            pb.simulate(bad, settings, sys6, config)


def test_simulate_records_state_energy_norms(sys6, beam):
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.05, record_every=10)
    traj = pb.simulate(pb.first_mode_initial_state(sys6, config), settings, sys6, config)
    expected = [qnorm(row, sys6, config) for row in traj.packed]
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
    for row, hdot in zip(traj.packed[1:], traj.hdots[1:]):
        _, v, z1, z2 = split_state(row, sys6, config)
        active = np.linalg.norm(
            np.concatenate(
                [
                    z1,
                    z2,
                    [
                        beam.tip_inertia * v[sys6.tip_slope_index],
                        beam.tip_mass * v[sys6.tip_value_index],
                    ],
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


def per_record_tangent_residual(traj, sys_n, config):
    """``pb.tangent_residual`` one record at a time, with one Jacobian per record."""
    op = ClosedLoopOperator(sys_n, config)
    remainder = op.remainder
    ws = op.generator(traj.packed)
    linear = op.linear(ws[1:-1])
    max_residual = 0.0
    for i in range(1, len(ws) - 1):
        wdot = (ws[i + 1] - ws[i - 1]) / (traj.times[i + 1] - traj.times[i - 1])
        jac = remainder.jacobian_analytic(remainder.q_of(traj.packed[i]))
        nonlinear = remainder.placement @ (jac @ remainder.q_of(ws[i]))
        max_residual = max(max_residual, op.qnorm(wdot - linear[i - 1] - nonlinear))
    return max_residual / float(op.qnorm(ws).max())


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_tangent_residual_matches_the_per_record_loop(beam, monkeypatch, chunk):
    sys_n = make_system(beam, 4)
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.6, record_every=1)
    traj = pb.simulate(pb.first_mode_initial_state(sys_n, config, tip_fraction=0.3), settings, sys_n, config)
    expected = per_record_tangent_residual(traj, sys_n, config)
    monkeypatch.setattr(integrator, "RECORD_CHUNK", chunk)
    assert pb.tangent_residual(traj, sys_n, config) == pytest.approx(expected, rel=1e-14, abs=0.0)


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


def dense_smooth_initial_state(sys_n, config, tip_fraction=0.1):
    """Real part of the slowest oscillatory eigenvector of the dense
    generator in the phase that makes its tip deflection real, scaled to the
    tip deflection."""
    eigvals, eigvecs = scipy.linalg.eig(linear_generator_matrix(sys_n, config))
    candidates = np.flatnonzero(np.abs(eigvals.imag) > 1e-8)
    vec = eigvecs[:, candidates[np.argmin(np.abs(eigvals.imag[candidates]))]]
    vec = (vec * np.conj(vec[sys_n.tip_value_index])).real
    return vec * (tip_fraction * sys_n.beam.length / vec[sys_n.tip_value_index])


# At n=64 the dense eigenvector itself is off by 2.6e-9 (default) and 1.7e-8
# (asymmetric) against a 25-digit solution of the same float64 matrices,
# while ``smooth_initial_state`` is off by 8.6e-11 and 1.8e-10: the bound
# there is the dense path's own error.
@pytest.mark.parametrize("n_elements, rtol", [(2, 1e-10), (8, 1e-10), (64, 5e-8)])
@pytest.mark.parametrize("make_config", [default_config, asymmetric_config])
def test_smooth_initial_state_matches_the_dense_eigenvector(beam, n_elements, rtol, make_config):
    sys_n = make_system(beam, n_elements)
    config = make_config(beam)
    expected = dense_smooth_initial_state(sys_n, config)
    state = pb.smooth_initial_state(sys_n, config)
    assert np.linalg.norm(state - expected) <= rtol * np.linalg.norm(expected)


@pytest.mark.parametrize("n_elements", [2, 8])
def test_smooth_initial_state_of_a_conservative_mode(beam, n_elements):
    # a conservative mode's velocity is i omega times its displacement: a
    # phase fixed on the largest component left the displacement imaginary
    sys_n = make_system(beam, n_elements)
    state = pb.smooth_initial_state(sys_n, undamped_config(beam), tip_fraction=0.1)
    assert np.all(np.isfinite(state))
    assert state[sys_n.tip_value_index] == pytest.approx(0.1 * beam.length, rel=1e-14)
    assert np.abs(state).max() <= 1.0


def test_initial_states_scaled_to_tip_deflection(sys6, beam):
    config = default_config(beam)
    for builder in (pb.first_mode_initial_state, pb.smooth_initial_state):
        u = split_state(builder(sys6, config, tip_fraction=0.1), sys6, config)[0]
        assert u[sys6.tip_value_index] == pytest.approx(0.1 * beam.length)
    _, v, z1, z2 = split_state(pb.first_mode_initial_state(sys6, config), sys6, config)
    assert np.abs(v).max() == 0.0
    assert np.abs(z1).max() == 0.0 and np.abs(z2).max() == 0.0


def test_tip_momentum_accessors(sys6, beam):
    # the tip momenta xi = J v'(L), psi = M v(L) are read off the tip DOFs
    config = default_config(beam)
    rng = np.random.default_rng(2)
    state = white_state(sys6, config, rng)
    v = split_state(state, sys6, config)[1]
    vp_l, v_l = v[sys6.tip_slope_index], v[sys6.tip_value_index]
    assert (vp_l, v_l) == (state[sys6.n_dof + sys6.tip_slope_index], state[sys6.n_dof + sys6.tip_value_index])
    xi, psi = beam.tip_inertia * vp_l, beam.tip_mass * v_l
    tip = xi**2 / (2.0 * beam.tip_inertia) + psi**2 / (2.0 * beam.tip_mass)
    assert pb.eval_H(state, sys6, config).tip_kinetic == tip
