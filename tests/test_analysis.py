"""Operator diagnostics: assembled generator, spectrum, skewness, decay."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

import passivebeam as pb
from passivebeam import analysis
from passivebeam.discretization import dense
from passivebeam.dynamics import ClosedLoopOperator, linear_generator_matrix
from passivebeam.errors import EigenSolverFailure, EmptyTrajectory, NotPositiveDefinite

from conftest import (
    asymmetric_config,
    default_config,
    dense_beam_frequencies,
    dense_modes,
    dense_projected_system,
    dense_spectrum,
    linear_config,
    linear_system,
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
        flat = smooth_state(sys8, linear, rng)
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
        report = dense_spectrum(gp, qp)
        rel = np.abs(report.eigenvalues.real) / np.abs(report.eigenvalues)
        assert rel.max() <= 1e-8
        assert report.n_unstable == 0


def test_damped_spectrum_strictly_stable(sys8, linear):
    report = pb.spectrum(sys8, linear)
    assert report.max_real_part < 0.0
    assert report.n_unstable == 0
    reals = report.eigenvalues.real
    assert np.all(np.diff(reals) <= 1e-12)  # sorted descending


def test_spectrum_real_parts_approach_axis_under_refinement(beam):
    vals = []
    for n in (16, 32, 64):
        sys_d = make_system(beam, n)
        vals.append(pb.spectrum(sys_d, linear_config(beam)).max_real_part)
    assert vals[0] < vals[1] < vals[2] < 0.0


def test_spectrum_symmetric_under_conjugation(beam):
    sys_d = make_system(beam, 8)
    gp, qp = dense_projected_system(sys_d, (1.0, 1.0))
    eigs = dense_spectrum(gp, qp).eigenvalues
    imag = np.sort(eigs.imag)
    assert np.allclose(imag, -imag[::-1], atol=1e-9 * np.abs(imag).max())


def nearest_neighbour_error(a, b):
    """Largest |a_i - b_j| over the one-to-one assignment of a to b that
    minimizes the summed distance; a and b must have the same count."""
    assert len(a) == len(b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return cost[rows, cols].max()


def wide_block_config(beam):
    """Linear laws and two dim-10 linear blocks: 18 of the 20 block states
    feed no other state, so -2 is an 18-fold eigenvalue."""
    sd = pb.SpringDamperLaw(damper=pb.make_law("linear", slope=0.5), spring=pb.make_law("linear", slope=2.0))
    return pb.ClosedLoopConfig(beam, sd, sd, *(pb.make_block("linear", dim=10, rate=2.0) for _ in range(2)))


@pytest.mark.parametrize("n_elements, make_config", [
    *((n, make) for n in (16, 64) for make in (default_config, linear_config, asymmetric_config, undamped_config)),
    (16, wide_block_config),
    (256, default_config),
])
def test_secular_spectrum_matches_dense_oracle(beam, n_elements, make_config):
    sys_n = make_system(beam, n_elements)
    config = make_config(beam)
    report = pb.spectrum(sys_n, config)
    g, q = linear_system(sys_n, config)
    expected = dense_spectrum(g, q).eigenvalues
    eigs = report.eigenvalues
    scale = np.abs(expected).max()
    assert len(eigs) == len(g) == report.as_dict()["count"]
    assert nearest_neighbour_error(eigs, expected) <= 1e-9 * scale
    assert abs(eigs.sum() - np.trace(g)) <= 1e-10 * scale
    # a real generator: the roots are closed under conjugation
    assert nearest_neighbour_error(eigs, eigs.conj()) <= 1e-12 * scale
    assert np.all(np.diff(eigs.real) <= 0.0)  # sorted descending
    assert report.n_unstable == 0 and 0 < report.sweeps <= analysis.MAX_SWEEPS


def test_secular_spectrum_is_deterministic(beam):
    sys_n = make_system(beam, 32)
    config = asymmetric_config(beam)
    first, second = pb.spectrum(sys_n, config), pb.spectrum(sys_n, config)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.sweeps == second.sweeps


def test_secular_spectrum_raises_past_the_sweep_cap(sys8, beam, monkeypatch):
    monkeypatch.setattr(analysis, "MAX_SWEEPS", 1)
    with pytest.raises(EigenSolverFailure, match=r"of \d+ eigenvalues did not converge in 1 "):
        pb.spectrum(sys8, default_config(beam))


def test_secular_roots_are_checked_against_the_trace(sys8, beam):
    secular = analysis.SecularFunction(sys8, default_config(beam))
    secular.trace += 1.0
    with pytest.raises(EigenSolverFailure, match="miss the trace"):
        secular.roots()


@pytest.mark.parametrize("n_elements", [1, 2, 8, 64])
@pytest.mark.parametrize("slow_end", [False, True])
def test_secular_modes_match_the_dense_pencil(beam, n_elements, slow_end):
    # compared as eigenpairs of the pencil solved, (K, M_tip) or (M_tip, K):
    # eigenvalues lam_k (omega_k^2 or 1 / omega_k^2) to eps max lam, and the
    # tip outer products of the B-orthonormal modes to eps max lam / gap_k
    # (Weyl and Davis-Kahan on the standard matrix). K's banded factor is
    # ill-conditioned (cond K = 4e8 at n=64), and the standard matrix formed
    # with it errs by about sqrt(cond K) times more. The largest errors seen
    # are 3.3 and 20 of these scales for the two pencils (n <= 128).
    sys_n = make_system(beam, n_elements)
    secular = analysis.SecularFunction(sys_n, default_config(beam), slow_end=slow_end)

    def pencil(omega, tips):
        if slow_end:
            return (1.0 / omega**2)[::-1], (tips / omega)[:, ::-1]
        return omega**2, tips

    lam, tips = pencil(secular.omega, secular.tips)
    expected, expected_tips = pencil(*dense_modes(sys_n, slow_end))
    scale = 64 * np.finfo(float).eps * expected.max()
    if slow_end:
        scale *= np.sqrt(np.linalg.cond(dense(sys_n.stiffness_band)))
    gaps = (np.abs(expected[:, None] - expected) + np.diag(np.full(len(lam), np.inf))).min(axis=1)
    outer, expected_outer = (t[:, None] * t[None, :] for t in (tips, expected_tips))  # free of each mode's sign
    assert len(lam) == sys_n.n_dof
    assert np.abs(lam - expected).max() <= scale
    assert np.all(np.abs(outer - expected_outer).max(axis=(0, 1)) <= scale / gaps * np.abs(expected_outer).max())


def test_slowest_frequency_is_no_worse_than_the_dense_pencil(beam):
    # the inverted pencil (M_tip, K) is the accurate one at the slow end
    sys_n = make_system(beam, 256)
    reference = dense_modes(sys_n, slow_end=True)[0][0]
    omega = analysis.SecularFunction(sys_n, default_config(beam)).omega[0]
    assert abs(omega - reference) <= abs(dense_modes(sys_n)[0][0] - reference)


def test_spectrum_forms_at_most_four_mode_blocks(beam):
    # one n_dof x n_dof block of doubles is 2.1 MB at n=256: the standard
    # matrix, the tridiagonal eigenvectors Z and dstevd's workspace are three;
    # a dense generalized eigh and its modes took six
    sys_n = make_system(beam, 256)
    config = default_config(beam)
    pb.spectrum(sys_n, config)
    tracemalloc.start()
    try:
        pb.spectrum(sys_n, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * sys_n.n_dof**2


@pytest.mark.parametrize("slope", [-1e5, -100.0])
def test_secular_spectrum_rejects_an_indefinite_gram(sys8, beam, slope):
    with pytest.raises(NotPositiveDefinite):
        pb.spectrum(sys8, linear_config(beam, spring_slope=slope))


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
        state_norms=traj.state_norms[::2],
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
        state_norms=np.array([]),
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


# subspace iteration against the dense eigh: 4.4e-11 at n=64 and 9.2e-10 at
# n=256, where both carry the n^4 eps floor of the stiffness (1e-7 against
# the exact frequency); n=1 has fewer DOFs than count + 4 vectors
@pytest.mark.parametrize("n_elements, rtol", [(1, 1e-10), (8, 1e-10), (32, 1e-10), (64, 1e-10), (256, 1e-8)])
@pytest.mark.parametrize("count", [1, 5])
def test_beam_frequencies_match_dense_oracle(beam, n_elements, rtol, count):
    sys_n = make_system(beam, n_elements)
    omega = pb.beam_frequencies(sys_n, count=count)
    expected = dense_beam_frequencies(sys_n, count=count)
    assert omega.shape == expected.shape == (min(count, sys_n.n_dof),)
    assert np.abs(omega - expected).max() <= rtol * expected.min()


# a rigidity of 2^k scales K exactly and omega by 2^(k/2); the Ritz vectors
# keep no trace of it, so at |k| <= 200 each sweep repeats the unit beam's
# bits. At k = 498 Y^T M Y ~ 2^-996 loses bits to underflow: 2.0e-12 at n=4,
# 2.4e-11 at n=16, 1.0e-10 at n=64, and no convergence from n=256
@pytest.mark.parametrize("n_elements", [4, 16, 64, 256, 1024])
def test_beam_frequencies_of_a_rescaled_beam(beam, n_elements):
    unit = pb.beam_frequencies(make_system(beam, n_elements))
    for k in (-200, -100, 100, 200):
        scaled = dataclasses.replace(beam, lambda_rigidity=2.0**k)
        assert np.array_equal(pb.beam_frequencies(make_system(scaled, n_elements)), unit * 2.0 ** (k // 2)), k
    for k in (-498, 498) if n_elements <= 16 else (-498,):
        omega = pb.beam_frequencies(make_system(dataclasses.replace(beam, lambda_rigidity=2.0**k), n_elements))
        assert np.all(np.isfinite(omega)), k
        assert np.abs(omega * 2.0 ** (-k // 2) - unit).max() <= 1e-10 * unit.max(), k


def test_beam_frequencies_raise_past_the_sweep_cap(sys8, monkeypatch):
    monkeypatch.setattr(analysis, "MAX_SWEEPS", 1)
    with pytest.raises(EigenSolverFailure, match="did not converge in 1 subspace"):
        pb.beam_frequencies(sys8, count=1)


# non-finite bands are rejected when the system is built (test_discretization)
@pytest.mark.parametrize("band, value, message", [
    ("stiffness_band", -1.0, "not positive definite"),
])
def test_beam_frequencies_reject_bad_bands(sys8, band, value, message):
    bad = getattr(sys8, band).copy()
    bad[-1, 0] = value
    with pytest.raises(EigenSolverFailure, match=message):
        pb.beam_frequencies(dataclasses.replace(sys8, **{band: bad}), count=1)


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


def test_skew_check_forms_no_full_generator_block(beam):
    # at n=256 one n_dof x n_dof block is 2.1 MB: K_q, V_K and the band
    # product's temporaries take four; a dense Q G alone would take four more
    sys_n = make_system(beam, 256)
    block = 8 * sys_n.n_dof**2
    pb.skew_check(sys_n, (1.5, 2.5), (0.7, 1.3))
    tracemalloc.start()
    try:
        pb.skew_check(sys_n, (1.5, 2.5), (0.7, 1.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * block


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
