"""Operator diagnostics: assembled generator, spectrum, skewness, decay."""

import math

import numpy as np
import pytest

import passivebeam as pb
from passivebeam.dynamics import ClosedLoopOperator, linear_generator_matrix, linear_system, pack
from passivebeam.errors import EmptyTrajectory

from conftest import (
    default_config,
    dense_projected_system,
    linear_config,
    make_system,
    smooth_state,
    undamped_config,
)


@pytest.fixture(scope="module")
def linear(beam):
    return linear_config(beam)


def test_linear_matrix_matches_operator_on_basis(sys8, linear):
    g = linear_generator_matrix(sys8, linear)
    op = ClosedLoopOperator(sys8, linear)
    scale = np.abs(g).max()
    for k in range(g.shape[0]):
        e = np.zeros(g.shape[0])
        e[k] = 1.0
        tangent = op.linear(e)
        assert np.abs(g[:, k] - tangent).max() <= 1e-12 * scale


def test_linear_matrix_dissipative_in_energy_pairing(sys8, linear):
    op = ClosedLoopOperator(sys8, linear)
    rng = np.random.default_rng(0)
    for _ in range(100):
        flat = pack(smooth_state(sys8, linear, rng))
        assert op.inner(op.linear(flat), flat) <= 0.0


def test_linear_matrix_invertible(sys8, linear):
    g = linear_generator_matrix(sys8, linear)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(g.shape[0])
    x = np.linalg.solve(g, b)
    assert np.linalg.norm(g @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_projected_spectrum_purely_imaginary(beam):
    for n in (8, 16):
        sys_d = make_system(beam, n)
        gp, qp = dense_projected_system(sys_d, (1.0, 1.0))
        report = pb.spectrum(gp, qp)
        rel = np.abs(report.eigenvalues.real) / np.abs(report.eigenvalues)
        assert rel.max() <= 1e-8
        assert report.n_unstable == 0


def test_damped_spectrum_strictly_stable(sys8, linear):
    g = linear_generator_matrix(sys8, linear)
    q = pb.assemble_gram(sys8, linear)
    report = pb.spectrum(g, q)
    assert report.max_real_part < 0.0
    assert report.n_unstable == 0
    reals = report.eigenvalues.real
    assert np.all(np.diff(reals) <= 1e-12)  # sorted descending


def test_spectrum_real_parts_approach_axis_under_refinement(beam):
    vals = []
    for n in (16, 32, 64):
        sys_d = make_system(beam, n)
        config = linear_config(beam)
        g = linear_generator_matrix(sys_d, config)
        q = pb.assemble_gram(sys_d, config)
        vals.append(pb.spectrum(g, q).max_real_part)
    assert vals[0] < vals[1] < vals[2] < 0.0


def test_spectrum_symmetric_under_conjugation(beam):
    sys_d = make_system(beam, 8)
    gp, qp = dense_projected_system(sys_d, (1.0, 1.0))
    eigs = pb.spectrum(gp, qp).eigenvalues
    imag = np.sort(eigs.imag)
    assert np.allclose(imag, -imag[::-1], atol=1e-9 * np.abs(imag).max())


def test_skew_defect_small_undamped_and_large_damped(beam):
    sys_d = make_system(beam, 4)
    clean = pb.skew_check(sys_d, (1.0, 1.0))
    assert clean <= 1e-12
    damped = pb.skew_check(sys_d, (1.0, 1.0), (1.0, 0.0))
    assert damped > 1e-6
    assert damped > 1e4 * max(clean, 1e-16)


def test_unitary_projected_flow_preserves_energy(beam):
    sys_d = make_system(beam, 6)
    config = undamped_config(beam)
    y0 = pb.first_mode_initial_state(sys_d, config)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=1.0, record_every=10)
    traj = pb.simulate(y0, settings, sys_d, config)
    totals = traj.totals()
    assert np.abs(totals - totals[0]).max() <= 1e-10 * totals[0]


def test_decay_metrics_zero_and_undamped(beam):
    sys_d = make_system(beam, 6)
    config = undamped_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=0.5, record_every=10)
    zero = pb.simulate(pb.zero_state(sys_d, config), settings, sys_d, config)
    report = pb.decay_metrics(zero)
    assert report.ratio == 0.0
    assert report.nonlin_integral_total == 0.0
    undamped = pb.simulate(pb.first_mode_initial_state(sys_d, config), settings, sys_d, config)
    report = pb.decay_metrics(undamped)
    assert report.ratio == pytest.approx(1.0, abs=1e-8)
    assert report.nonlin_integral_total <= 1e-12
    assert report.nonlin_integral_tail <= report.nonlin_integral_total + 1e-15


def test_decay_metrics_damped_run(beam):
    sys_d = make_system(beam, 6)
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=5.0, record_every=10)
    traj = pb.simulate(pb.first_mode_initial_state(sys_d, config), settings, sys_d, config)
    report = pb.decay_metrics(traj)
    assert 0.0 <= report.ratio < 1.0
    assert report.nonlin_integral_tail <= report.nonlin_integral_total
    assert report.tangent_sup_late <= report.tangent_sup


def test_decay_metrics_stable_under_subsampling(beam):
    sys_d = make_system(beam, 6)
    config = default_config(beam)
    settings = pb.IntegratorSettings(dt=1e-3, t_end=4.0, record_every=2)
    traj = pb.simulate(pb.first_mode_initial_state(sys_d, config), settings, sys_d, config)
    thinned = pb.Trajectory(
        times=traj.times[::2],
        packed=traj.packed[::2],
        energy=traj.energy[::2],
        hdots=traj.hdots[::2],
        nonlinearity_norms=traj.nonlinearity_norms[::2],
        tangent_norms=traj.tangent_norms[::2],
    )
    full = pb.decay_metrics(traj)
    sub = pb.decay_metrics(thinned)
    assert sub.h_initial == full.h_initial and sub.h_final == full.h_final
    assert sub.nonlin_integral_total == pytest.approx(full.nonlin_integral_total, rel=1e-4)
    assert sub.tangent_sup == pytest.approx(full.tangent_sup, rel=1e-3)


def test_decay_metrics_empty_trajectory(beam):
    traj = pb.Trajectory(
        times=np.array([]),
        packed=np.empty((0, 0)),
        energy=np.empty((0, 8)),
        hdots=np.array([]),
        nonlinearity_norms=np.array([]),
        tangent_norms=np.array([]),
    )
    with pytest.raises(EmptyTrajectory):
        pb.decay_metrics(traj)


def test_fundamental_frequency_against_transcendental_root(beam):
    # oracle: bisection on 1 + cos(x) cosh(x)
    def f(x):
        return 1.0 + math.cos(x) * math.cosh(x)

    lo, hi = 1.0, 3.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    beta1 = 0.5 * (lo + hi)
    omega_ref = beta1**2 * math.sqrt(beam.lambda_rigidity / beam.rho)
    sys_d = make_system(beam, 32)
    omega = pb.beam_frequencies(sys_d, count=1)[0]
    assert omega == pytest.approx(omega_ref, rel=1e-7)
    package_beta = pb.clamped_free_wavenumbers(beam.length, count=1)[0]
    assert package_beta == pytest.approx(beta1, abs=1e-11)


def test_clamped_free_wavenumbers_are_roots():
    betas = pb.clamped_free_wavenumbers(1.0, count=3)
    for b in betas:
        assert abs(1.0 + math.cos(b) * math.cosh(b)) <= 1e-9 * math.cosh(b)
    assert np.all(np.diff(betas) > 0.0)


@pytest.mark.parametrize("n_elements", [8, 64, 256])
@pytest.mark.parametrize("dampers", [(0.0, 0.0), (0.7, 1.3)])
def test_projected_system_matches_dense_tip_mass_solve(beam, n_elements, dampers):
    # linear laws and input-decoupled blocks: the (u, v) block of the closed
    # loop's dense linear system is the projected system
    sys_n = make_system(beam, n_elements)
    n = sys_n.n_dof
    sd = [pb.SpringDamperLaw(damper=pb.make_law("linear", slope=d), spring=pb.make_law("linear", slope=k))
          for d, k in zip(dampers, (1.5, 2.5))]
    config = pb.ClosedLoopConfig(beam, *sd, pb.make_block("linear", gain=0.0), pb.make_block("linear", gain=0.0))
    g, q = linear_system(sys_n, config)
    expected_g, expected_q = dense_projected_system(sys_n, (1.5, 2.5), dampers)
    assert np.array_equal(g[:n, : 2 * n], expected_g[:n])
    assert np.abs(g[n : 2 * n, : 2 * n] - expected_g[n:]).max() <= 1e-13 * np.abs(expected_g[n:]).max()
    assert np.array_equal(q[: 2 * n, : 2 * n], expected_q)


def dense_skew_defect(g, q):
    qg = q @ g
    return np.linalg.norm(g.T @ q + qg, ord="fro") / np.linalg.norm(qg, ord="fro")


@pytest.mark.parametrize("n_elements", [4, 8, 32, 128])
@pytest.mark.parametrize("dampers", [(0.0, 0.0), (1.0, 0.0), (0.7, 1.3)])
def test_skew_check_matches_dense_oracle_defect(beam, n_elements, dampers):
    sys_n = make_system(beam, n_elements)
    defect = pb.skew_check(sys_n, (1.5, 2.5), dampers)
    expected = dense_skew_defect(*dense_projected_system(sys_n, (1.5, 2.5), dampers))
    if dampers == (0.0, 0.0):
        assert max(defect, expected) <= 1e-12
    else:
        assert defect == pytest.approx(expected, rel=1e-10)
