"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Shared expensive runs are session-scoped. Reference values that the criteria
need (transcendental roots, decay horizon, window layout) are computed by
independent oracles inside this module or were calibrated once and frozen.
"""

import math
import time

import numpy as np
import pytest

import passivebeam as pb
from passivebeam.dynamics import ClosedLoopOperator

from conftest import (
    DEFAULT_BEAM,
    default_config,
    kappa_zero_config,
    make_system,
    smooth_state,
    split_state,
    undamped_config,
    white_state,
)

# frozen run layout: dt pinned by the criteria, horizon calibrated once
DT = 1e-3
DECAY_HORIZON = 50.0
SLOPE_WINDOWS = 4
TANGENT_MESH = 2
TANGENT_TIP_FRACTION = 0.05


def report(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="session")
def accept_beam():
    return pb.BeamParams(**DEFAULT_BEAM)


@pytest.fixture(scope="session")
def main_system(accept_beam):
    return make_system(accept_beam, 8)


@pytest.fixture(scope="session")
def main_config(accept_beam):
    return default_config(accept_beam)


@pytest.fixture(scope="session")
def main_initial(main_system, main_config):
    return pb.smooth_initial_state(main_system, main_config, tip_fraction=0.1)


@pytest.fixture(scope="session")
def main_run(main_system, main_config, main_initial):
    settings = pb.IntegratorSettings(dt=DT, t_end=DECAY_HORIZON, record_every=10)
    return pb.simulate(main_initial, settings, main_system, main_config)


@pytest.fixture(scope="session")
def dense_runs(main_system, main_config, main_initial):
    """Densely recorded [0, 5] windows of the main run at dt and dt/2."""
    out = {}
    for dt in (DT, DT / 2):
        settings = pb.IntegratorSettings(dt=dt, t_end=5.0, record_every=1)
        out[dt] = pb.simulate(main_initial, settings, main_system, main_config)
    return out


def test_criterion_01_skew_adjointness(accept_beam):
    worst = 0.0
    slowest = 0.0
    for n in (8, 32, 128):
        sys_d = make_system(accept_beam, n)
        start = time.perf_counter()
        defect = pb.skew_check(sys_d, (1.0, 1.0))
        elapsed = time.perf_counter() - start
        worst = max(worst, defect)
        slowest = max(slowest, elapsed)
    ok = worst <= 1e-12 and slowest < 1.0
    report(1, "skew-adjointness", ok, f"max defect {worst:.2e} <= 1e-12, max time {slowest:.2f}s < 1s")


def test_criterion_02_unitary_flow(accept_beam):
    sys_d = make_system(accept_beam, 8)
    config = undamped_config(accept_beam)
    y0 = pb.first_mode_initial_state(sys_d, config, tip_fraction=0.1)
    settings = pb.IntegratorSettings(dt=DT, t_end=10.0, record_every=1)
    traj = pb.simulate(y0, settings, sys_d, config)
    totals = traj.totals()
    drift = np.abs(totals - totals[0]).max() / totals[0]
    ok = drift <= 1e-8 and len(totals) == 10_001
    report(2, "unitary-flow", ok, f"max |H-H0|/H0 = {drift:.2e} <= 1e-8 over 1e4 steps")


def test_criterion_03_beam_frequency_convergence(accept_beam):
    # independent oracle: bisection for the smallest root of 1 + cos x cosh x
    def f(x):
        return 1.0 + math.cos(x) * math.cosh(x)

    lo, hi = 1.0, 3.0
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    beta1 = 0.5 * (lo + hi)
    omega_ref = beta1**2 * math.sqrt(accept_beam.lambda_rigidity / accept_beam.rho)

    errors = {}
    for n in (16, 32, 64):
        sys_d = make_system(accept_beam, n)
        omega = pb.beam_frequencies(sys_d, count=1)[0]
        errors[n] = abs(omega - omega_ref) / omega_ref
    order_a = math.log2(errors[16] / errors[32])
    order_b = math.log2(errors[32] / errors[64])
    ok = errors[64] <= 1e-4 and order_a >= 2.0 and order_b >= 2.0
    report(
        3,
        "beam-frequency",
        ok,
        f"rel err@64 = {errors[64]:.2e} <= 1e-4, orders {order_a:.2f}, {order_b:.2f} >= 2",
    )


def test_criterion_04_linear_dissipativity_identity(accept_beam, main_config):
    sys_d = make_system(accept_beam, 8)
    lin1 = pb.linearize_block(main_config.block_rotational)
    lin2 = pb.linearize_block(main_config.block_translational)
    sym1 = 0.5 * (lin1.P @ lin1.A + (lin1.P @ lin1.A).T)
    sym2 = 0.5 * (lin2.P @ lin2.A + (lin2.P @ lin2.A).T)
    d1 = main_config.sd_rotational.damper_slope
    d2 = main_config.sd_translational.damper_slope
    op = ClosedLoopOperator(sys_d, main_config)
    rng = np.random.default_rng(0)
    worst_rel = 0.0
    all_nonpositive = True
    for _ in range(100):
        flat = smooth_state(sys_d, main_config, rng)
        lhs = op.inner(op.linear(flat), flat)
        _, v, z1, z2 = split_state(flat, sys_d, main_config)
        v_l, vp_l = v[sys_d.tip_value_index], v[sys_d.tip_slope_index]
        rhs = (
            float(z1 @ (sym1 @ z1))
            + float(z2 @ (sym2 @ z2))
            - d1 * vp_l**2
            - d2 * v_l**2
        )
        worst_rel = max(worst_rel, abs(lhs - rhs) / abs(rhs))
        all_nonpositive = all_nonpositive and lhs <= 0.0
    ok = worst_rel <= 1e-10 and all_nonpositive
    report(4, "dissipativity-identity", ok, f"max rel err {worst_rel:.2e} <= 1e-10, all values <= 0")


def test_criterion_05_lyapunov_monotonicity(main_run):
    h0 = main_run.totals()[0]
    budget = 1e-8 * h0
    ok = main_run.h_increase_max <= budget and not main_run.h_flagged
    report(
        5,
        "lyapunov-monotone",
        ok,
        f"max per-step increase {main_run.h_increase_max:.2e} <= {budget:.2e}",
    )


def test_criterion_06_energy_rate_formula(dense_runs):
    errors = {}
    for dt, traj in dense_runs.items():
        totals = traj.totals()
        centered = (totals[2:] - totals[:-2]) / (traj.times[2:] - traj.times[:-2])
        scale = np.abs(traj.hdots).max()
        errors[dt] = np.abs(centered - traj.hdots[1:-1]).max() / scale
    ratio = errors[DT] / errors[DT / 2]
    ok = errors[DT] <= 1e-4 and 3.0 <= ratio <= 5.0
    report(
        6,
        "energy-rate-formula",
        ok,
        f"max rel err {errors[DT]:.2e} <= 1e-4 at dt={DT}, halving ratio {ratio:.2f} in [3, 5]",
    )


def test_criterion_07_asymptotic_decay(main_run):
    totals = main_run.totals()
    h0 = totals[0]
    decayed = totals[-1] <= 0.05 * h0
    slopes = []
    span = main_run.times[-1]
    for w in range(SLOPE_WINDOWS):
        mask = (main_run.times >= w * span / SLOPE_WINDOWS) & (
            main_run.times <= (w + 1) * span / SLOPE_WINDOWS
        )
        slopes.append(np.polyfit(main_run.times[mask], np.log(totals[mask]), 1)[0])
    decreasing = all(abs(slopes[i + 1]) < abs(slopes[i]) for i in range(SLOPE_WINDOWS - 1))
    ok = decayed and decreasing
    slope_text = ", ".join(f"{s:.3f}" for s in slopes)
    report(
        7,
        "asymptotic-decay",
        ok,
        f"H(T)/H0 = {totals[-1] / h0:.2e} <= 0.05 at T={DECAY_HORIZON}, slopes [{slope_text}] decreasing",
    )


def test_criterion_08_remainder_integrability(accept_beam, main_system):
    config = kappa_zero_config(accept_beam)
    y0 = pb.smooth_initial_state(main_system, config, tip_fraction=0.1)
    settings = pb.IntegratorSettings(dt=DT, t_end=DECAY_HORIZON, record_every=10)
    traj = pb.simulate(y0, settings, main_system, config)
    metrics = pb.decay_metrics(traj)
    fraction = metrics.nonlin_integral_tail / metrics.nonlin_integral_total
    ok = fraction <= 0.05
    report(8, "remainder-integrability", ok, f"tail/total = {fraction:.2e} <= 0.05")


def test_criterion_09_uniform_tangent_bound(main_run):
    norms = main_run.tangent_norms
    times = main_run.times
    half = np.searchsorted(times, 0.5 * times[-1])
    sup_first = norms[:half].max()
    sup_second = norms[half:].max()
    global_ratio = norms.max() / norms[0]
    ok = sup_second <= sup_first and global_ratio <= 2.0
    report(
        9,
        "uniform-tangent-bound",
        ok,
        f"late sup {sup_second:.2e} <= early sup {sup_first:.2e}, global/initial {global_ratio:.2f} <= 2",
    )


def test_criterion_10_tangent_system(accept_beam, main_config):
    sys_d = make_system(accept_beam, TANGENT_MESH)
    y0 = pb.smooth_initial_state(sys_d, main_config, tip_fraction=TANGENT_TIP_FRACTION)
    residuals = {}
    for dt in (DT, DT / 2):
        settings = pb.IntegratorSettings(dt=dt, t_end=2.0, record_every=1)
        traj = pb.simulate(y0, settings, sys_d, main_config)
        residuals[dt] = pb.tangent_residual(traj, sys_d, main_config)
    ratio = residuals[DT] / residuals[DT / 2]
    ok = residuals[DT] <= 1e-3 and 3.0 <= ratio <= 5.0
    report(
        10,
        "tangent-system",
        ok,
        f"residual {residuals[DT]:.2e} <= 1e-3 at dt={DT}, halving ratio {ratio:.2f} in [3, 5]",
    )


def test_criterion_11_generator_split(accept_beam, main_config):
    sys_d = make_system(accept_beam, 4)
    op = ClosedLoopOperator(sys_d, main_config)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        flat = white_state(sys_d, main_config, rng)
        full = op.generator(flat)
        split = op.linear(flat) + op.nonlinear(flat)
        worst = max(worst, np.linalg.norm(full - split) / np.linalg.norm(full))

    # quadratic-remainder loop: the remainder norm must scale as eps^2
    quad_law = lambda: pb.ScalarLaw(
        eval=lambda s: s + 0.5 * s**2 + 0.1 * s**3,
        deriv=lambda s: 1.0 + s + 0.3 * s**2,
    )
    quad_block = lambda: pb.PassiveBlock(
        dim=1,
        drift=lambda z: -z + 0.5 * z**2 - 0.1 * z**3,
        input_gain=lambda z: np.ones(1),
        output=lambda z: float(z[0]),
        storage=lambda z: 0.5 * float(z @ z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=lambda z: np.atleast_2d(-1.0 + z - 0.3 * z**2),
        input_jac=lambda z: np.zeros((1, 1)),
        output_grad=lambda z: np.ones(1),
    )
    quad_config = pb.ClosedLoopConfig(
        beam=accept_beam,
        sd_rotational=pb.SpringDamperLaw(damper=quad_law(), spring=quad_law()),
        sd_translational=pb.SpringDamperLaw(damper=quad_law(), spring=quad_law()),
        block_rotational=quad_block(),
        block_translational=quad_block(),
    )
    qop = ClosedLoopOperator(sys_d, quad_config)
    base = white_state(sys_d, quad_config, rng)
    scaled_norm = {}
    for eps in (1e-1, 1e-2, 1e-3):
        scaled_norm[eps] = qop.qnorm(qop.nonlinear(eps * base)) / eps**2
    decade_a = scaled_norm[1e-2] / scaled_norm[1e-1]
    decade_b = scaled_norm[1e-3] / scaled_norm[1e-2]
    scaling_ok = 0.8 <= decade_a <= 1.25 and 0.8 <= decade_b <= 1.25
    ok = worst <= 1e-14 and scaling_ok
    report(
        11,
        "generator-split",
        ok,
        f"split defect {worst:.2e} <= 1e-14, eps^2 scaling ratios {decade_a:.3f}, {decade_b:.3f} in [0.8, 1.25]",
    )


def test_criterion_12_certification_soundness(accept_beam, main_config):
    valid_laws = [
        main_config.sd_rotational,
        pb.SpringDamperLaw(damper=pb.make_law("linear"), spring=pb.make_law("linear")),
        pb.SpringDamperLaw(damper=pb.make_law("cubic"), spring=pb.make_law("tanh", gain=2.0)),
    ]
    valid_blocks = ["linear", "cubic-drift", "saturating"]
    all_valid_pass = all(
        pb.certify_spring_damper(law, radius=1.5, samples=300).passed for law in valid_laws
    ) and all(
        pb.certify_block(pb.make_block(name), radius=3.0, samples=300).passed
        for name in valid_blocks
    )

    broken_witnessed = True
    anti = pb.certify_block(pb.make_block("anti-stable"), radius=2.0, samples=150)
    check = anti.check("dissipation-strict")
    block = pb.make_block("anti-stable")
    z = np.array(check.witness)
    broken_witnessed &= not anti.passed and float(
        np.asarray(block.storage_grad(z)) @ np.asarray(block.drift(z))
    ) > 0.0

    flipped = pb.certify_spring_damper(
        pb.SpringDamperLaw(damper=pb.make_law("negative-linear"), spring=pb.make_law("linear")),
        radius=2.0,
        samples=300,
    )
    check = flipped.check("damper-derivative-nonnegative")
    law = pb.make_law("negative-linear")
    broken_witnessed &= not flipped.passed and float(law.deriv(check.witness[0])) < 0.0

    soft = pb.certify_spring_damper(
        pb.SpringDamperLaw(damper=pb.make_law("linear"), spring=pb.make_law("softening-cubic")),
        radius=2.0,
        samples=300,
    )
    check = soft.check("spring-potential-positive")
    s = check.witness[0]
    broken_witnessed &= not soft.passed and (s**2 / 2.0 - s**4 / 4.0) < 0.0

    ok = all_valid_pass and broken_witnessed
    report(
        12,
        "certification-soundness",
        ok,
        "valid registry entries pass; broken entries fail with reproducible witnesses",
    )
