"""Generator application, the linear/nonlinear split, energy, and its rate."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import passivebeam as pb
from passivebeam import dynamics, errors
from passivebeam.discretization import dense, displacement_gram
from passivebeam.dynamics import (
    ClosedLoopOperator,
    EnergyBreakdown,
    RemainderMap,
    linear_generator_matrix,
    spring_potential,
)
from passivebeam.errors import DimensionMismatch
from passivebeam.integrator import MidpointStepper

from conftest import (
    asymmetric_config,
    default_config,
    linear_config,
    linear_system,
    make_system,
    smooth_state,
    split_state,
    stiff_linear_config,
    undamped_config,
    white_state,
)


@pytest.fixture(scope="module")
def nonlinear(beam):
    return default_config(beam)


@pytest.fixture(scope="module")
def linear(beam):
    return linear_config(beam)


def lins_of(config):
    return (
        pb.linearize_block(config.block_rotational),
        pb.linearize_block(config.block_translational),
    )


# -- energy ------------------------------------------------------------------

def test_energy_zero_state(sys8, nonlinear):
    e = pb.eval_H(pb.zero_state(sys8, nonlinear), sys8, nonlinear)
    assert e.total == 0.0
    assert all(
        getattr(e, f) == 0.0
        for f in (
            "beam_strain",
            "beam_kinetic",
            "tip_kinetic",
            "spring_potential_rot",
            "spring_potential_tr",
            "storage_z1",
            "storage_z2",
        )
    )


def test_energy_linear_spring_potentials(sys8, linear):
    rng = np.random.default_rng(0)
    state = white_state(sys8, linear, rng)
    u_l, up_l = state[sys8.tip_value_index], state[sys8.tip_slope_index]
    e = pb.eval_H(state, sys8, linear)
    assert e.spring_potential_rot == pytest.approx(0.5 * up_l**2, rel=1e-12)
    assert e.spring_potential_tr == pytest.approx(0.5 * u_l**2, rel=1e-12)


def test_energy_parabolic_displacement_example(beam, sys8, linear):
    # u = x^2 on the unit beam with unit springs: strain 2, tip potentials 2 and 1/2
    u = pb.interpolate(sys8, lambda x: x**2, lambda x: 2.0 * x)
    state = pb.zero_state(sys8, linear)
    state[: sys8.n_dof] = u
    e = pb.eval_H(state, sys8, linear)
    assert e.beam_strain == pytest.approx(2.0, rel=1e-12)
    assert e.spring_potential_rot == pytest.approx(2.0, rel=1e-12)
    assert e.spring_potential_tr == pytest.approx(0.5, rel=1e-12)
    assert e.total == pytest.approx(4.5, rel=1e-12)


def test_energy_total_is_sum_and_nonnegative(sys8, nonlinear):
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = pb.eval_H(white_state(sys8, nonlinear, rng), sys8, nonlinear)
        parts = (
            e.beam_strain
            + e.beam_kinetic
            + e.tip_kinetic
            + e.spring_potential_rot
            + e.spring_potential_tr
            + e.storage_z1
            + e.storage_z2
        )
        assert e.total == pytest.approx(parts, rel=1e-14)
        assert e.total >= 0.0


def test_spring_potential_matches_antiderivatives():
    cubic = pb.make_law("cubic")
    tanh = pb.make_law("tanh", gain=2.0)
    for s in (-1.3, -0.2, 0.4, 2.0):
        assert spring_potential(cubic, s) == pytest.approx(s**2 / 2 + s**4 / 4, abs=1e-11)
        assert spring_potential(tanh, s) == pytest.approx(np.log(np.cosh(2 * s)) / 2, abs=1e-11)
    assert spring_potential(cubic, 0.0) == 0.0


def test_spring_potential_of_non_elementwise_law_is_evaluated_per_point():
    # eval sums an array to one number, so only scalar calls give s + s^3
    law = pb.ScalarLaw(
        eval=lambda s: np.sum(s) + np.sum(s) ** 3, deriv=lambda s: 1.0 + 3.0 * np.sum(s) ** 2,
    )
    assert spring_potential(law, 0.5) == pytest.approx(0.5**2 / 2 + 0.5**4 / 4, rel=1e-12)


def test_spring_potential_uses_the_closed_form():
    law = pb.make_law("tanh", gain=3.0)
    for s in (-2.0, 0.1, 40.0):
        assert spring_potential(law, s) == float(law.potential(s))


def test_spring_potential_of_an_array_is_elementwise():
    s = np.array([[-1.3, 0.0, 0.4], [2.0, -0.2, 0.7]])
    closed = pb.make_law("cubic", slope=2.0, cubic=0.5)
    fallback = dataclasses.replace(closed, potential=None)
    for law in (closed, fallback):
        values = spring_potential(law, s)
        assert values.shape == s.shape
        assert np.array_equal(values, [[spring_potential(law, x) for x in row] for row in s.tolist()])


def test_slowly_converging_fallback_quadrature_is_bounded():
    # s + a sin(w s): Simpson needs 32768 intervals for a 1e-12 update at s = 2
    a, w = 1e-3, 1e3
    evaluated = []

    def value(s):
        evaluated.append(np.size(s))
        return s + a * np.sin(w * s)

    law = pb.ScalarLaw(eval=value, deriv=lambda s: 1.0 + a * w * np.cos(w * s))
    evaluated.clear()
    with pytest.raises(errors.QuadratureFailure, match=r"s=2\.0.*last update") as info:
        spring_potential(law, 2.0)
    assert "16384 Simpson intervals" in str(info.value)
    assert sum(evaluated) <= sum(16 * 2**k + 1 for k in range(11))


def test_energy_dimension_mismatch(sys8, sys4, nonlinear):
    state = pb.zero_state(sys4, nonlinear)
    with pytest.raises(DimensionMismatch):
        pb.eval_H(state, sys8, nonlinear)


# -- energy rate ---------------------------------------------------------------

def test_energy_of_a_block_whose_storage_broadcasts(sys8, linear):
    # a storage that returns one number for any batch is a valid broadcast
    block = dataclasses.replace(pb.make_block("linear"), storage=lambda z: 0.0, storage_grad=lambda z: np.zeros(1))
    config = dataclasses.replace(linear, block_rotational=block)
    rows = np.ones((3, 2 * sys8.n_dof + 2))
    assert np.array_equal(pb.eval_H(rows, sys8, config).storage_z1, np.zeros(3))
    assert pb.eval_H(rows[0], sys8, config).storage_z1 == 0.0


def test_hdot_zero_state(sys8, nonlinear):
    assert pb.eval_Hdot(pb.zero_state(sys8, nonlinear), sys8, nonlinear) == 0.0


def test_hdot_vanishes_without_tip_velocity_or_block_state(sys8, nonlinear):
    u = pb.interpolate(sys8, lambda x: x**3, lambda x: 3 * x**2)
    state = pb.zero_state(sys8, nonlinear)
    state[: sys8.n_dof] = u
    assert pb.eval_Hdot(state, sys8, nonlinear) == 0.0


def test_hdot_linear_config_hand_value(sys8, linear):
    v = np.zeros(sys8.n_dof)
    v[sys8.tip_value_index] = 1.0
    v[sys8.tip_slope_index] = 2.0
    state = pb.zero_state(sys8, linear)
    state[sys8.n_dof : 2 * sys8.n_dof] = v
    assert pb.eval_Hdot(state, sys8, linear) == pytest.approx(-5.0, rel=1e-14)


def test_hdot_nonpositive_for_certified_config(sys8, nonlinear):
    rng = np.random.default_rng(2)
    for _ in range(50):
        assert pb.eval_Hdot(white_state(sys8, nonlinear, rng), sys8, nonlinear) <= 0.0


def test_directional_derivative_matches_hdot(sys8, beam, nonlinear):
    for config in (nonlinear, asymmetric_config(beam)):
        op = ClosedLoopOperator(sys8, config)
        rng = np.random.default_rng(3)
        for _ in range(10):
            flat = smooth_state(sys8, config, rng)
            eps = 1e-6
            dflat = op.generator(flat)
            up = pb.eval_H(flat + eps * dflat, sys8, config).total
            down = pb.eval_H(flat - eps * dflat, sys8, config).total
            fd = (up - down) / (2 * eps)
            hdot = pb.eval_Hdot(flat, sys8, config)
            assert fd == pytest.approx(hdot, rel=1e-6, abs=1e-9)


# -- generator and split -------------------------------------------------------

def test_generator_zero_state(sys8, nonlinear):
    out = ClosedLoopOperator(sys8, nonlinear).generator(pb.zero_state(sys8, nonlinear))
    assert np.abs(out).max() == 0.0


def test_generator_reduces_to_bare_beam_with_zeroed_feedback(beam, sys8):
    sd = pb.SpringDamperLaw(damper=pb.make_law("zero"), spring=pb.make_law("zero"))
    config = pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=sd,
        sd_translational=sd,
        block_rotational=pb.make_block("linear", gain=0.0),
        block_translational=pb.make_block("linear", gain=0.0),
    )
    rng = np.random.default_rng(4)
    n = sys8.n_dof
    state = white_state(sys8, config, rng)
    state[2 * n :] = 0.0
    out = ClosedLoopOperator(sys8, config).generator(state)
    expected = -np.linalg.solve(dense(sys8.mass_tip_band), dense(sys8.stiffness_band) @ state[:n])
    assert np.allclose(out[n : 2 * n], expected, rtol=1e-13, atol=1e-13)
    assert np.array_equal(out[:n], state[n : 2 * n])


@pytest.mark.parametrize("make_config", [default_config, linear_config, asymmetric_config])
def test_generator_matches_dense_oracle_per_channel(sys8, beam, make_config):
    # each channel's law and block enter only through its own tip DOF and block rows
    config = make_config(beam)
    op = ClosedLoopOperator(sys8, config)
    rot, tr = config.sd_rotational, config.sd_translational
    b1, b2 = config.block_rotational, config.block_translational
    isl, iv = sys8.tip_slope_index, sys8.tip_value_index
    factor = scipy.linalg.cho_factor(dense(sys8.mass_tip_band))
    rng = np.random.default_rng(16)
    states, oracle = [], []
    for _ in range(20):
        state = white_state(sys8, config, rng)
        u, v, z1, z2 = split_state(state, sys8, config)
        load = -(dense(sys8.stiffness_band) @ u)
        load[isl] -= float(b1.output(z1)) + float(rot.damper.eval(v[isl])) + float(rot.spring.eval(u[isl]))
        load[iv] -= float(b2.output(z2)) + float(tr.damper.eval(v[iv])) + float(tr.spring.eval(u[iv]))
        expected = np.concatenate([
            v,
            scipy.linalg.cho_solve(factor, load),
            b1.drift(z1) + b1.input_gain(z1) * v[isl],
            b2.drift(z2) + b2.input_gain(z2) * v[iv],
        ])
        got = op.generator(state)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        states.append(state)
        oracle.append(expected)
    # the same states as one block of 20 rows
    got, oracle = op.generator(np.array(states)), np.array(oracle)
    assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_linear_generator_matrix_matches_dense_oracle_per_channel(sys8, beam):
    # each channel's slopes and block linearization fill only its own tip
    # DOF's row and column and its block's rows and columns
    config = asymmetric_config(beam)
    rot, tr = config.sd_rotational, config.sd_translational
    b1, b2 = config.block_rotational, config.block_translational
    n, isl, iv = sys8.n_dof, sys8.tip_slope_index, sys8.tip_value_index
    z1, z2 = slice(2 * n, 2 * n + b1.dim), slice(2 * n + b1.dim, 2 * n + b1.dim + b2.dim)
    expected = np.zeros((z2.stop, z2.stop))
    expected[:n, n : 2 * n] = np.eye(n)
    load = np.zeros((n, z2.stop))  # mass_tip times the velocity rows
    load[:, :n] = -dense(sys8.stiffness_band)
    for law, block, tip, z in ((rot, b1, isl, z1), (tr, b2, iv, z2)):
        zero = np.zeros(block.dim)
        load[tip, tip] -= float(law.spring.deriv(0.0))
        load[tip, n + tip] -= float(law.damper.deriv(0.0))
        load[tip, z] -= block.output_grad(zero)
        expected[z, n + tip] = block.input_gain(zero)
        expected[z, z] = block.drift_jac(zero)
    expected[n : 2 * n] = scipy.linalg.cho_solve(scipy.linalg.cho_factor(dense(sys8.mass_tip_band)), load)
    g = linear_generator_matrix(sys8, config)
    assert np.abs(g - expected).max() <= 1e-12 * np.abs(expected).max()


def test_linear_config_generator_equals_linear_part(sys8, linear):
    op = ClosedLoopOperator(sys8, linear)
    rng = np.random.default_rng(5)
    for _ in range(10):
        flat = white_state(sys8, linear, rng)
        full = op.generator(flat)
        lin = op.linear(flat)
        assert np.allclose(full, lin, rtol=1e-12, atol=1e-12)


def test_nonlinear_part_vanishes_for_linear_config(sys8, linear):
    # each term is a linear law minus its own slope term: exactly zero
    op = ClosedLoopOperator(sys8, linear)
    rng = np.random.default_rng(6)
    assert np.all(op.nonlinear(white_state(sys8, linear, rng)) == 0.0)
    block = np.array([white_state(sys8, linear, rng) for _ in range(50)])
    assert np.all(op.nonlinear(block) == 0.0)


def test_split_exactness(sys4, beam):
    config = default_config(beam)
    op = ClosedLoopOperator(sys4, config)
    rng = np.random.default_rng(7)
    for _ in range(100):
        flat = white_state(sys4, config, rng)
        assert np.array_equal(op.generator(flat), op.linear(flat) + op.nonlinear(flat))


def test_split_exactness_medium_mesh(sys8, beam, nonlinear):
    for config in (nonlinear, asymmetric_config(beam)):
        op = ClosedLoopOperator(sys8, config)
        rng = np.random.default_rng(8)
        for _ in range(25):
            flat = white_state(sys8, config, rng)
            assert np.array_equal(op.generator(flat), op.linear(flat) + op.nonlinear(flat))


def test_nonlinear_part_interior_load_is_zero(sys8, nonlinear):
    op = ClosedLoopOperator(sys8, nonlinear)
    rng = np.random.default_rng(9)
    out = op.nonlinear(white_state(sys8, nonlinear, rng))
    assert np.abs(out[: sys8.n_dof]).max() == 0.0


def test_dissipation_pairing_identity_and_sign(sys8, linear):
    lin1, lin2 = lins_of(linear)
    op = ClosedLoopOperator(sys8, linear)
    sym1 = 0.5 * (lin1.P @ lin1.A + (lin1.P @ lin1.A).T)
    sym2 = 0.5 * (lin2.P @ lin2.A + (lin2.P @ lin2.A).T)
    d1 = linear.sd_rotational.damper_slope
    d2 = linear.sd_translational.damper_slope
    rng = np.random.default_rng(10)
    for _ in range(100):
        flat = smooth_state(sys8, linear, rng)
        lhs = op.inner(op.linear(flat), flat)
        _, v, z1, z2 = split_state(flat, sys8, linear)
        v_l, vp_l = v[sys8.tip_value_index], v[sys8.tip_slope_index]
        rhs = (
            float(z1 @ (sym1 @ z1))
            + float(z2 @ (sym2 @ z2))
            - d1 * vp_l**2
            - d2 * v_l**2
        )
        assert lhs <= 0.0
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_remainder_map_consistent_with_nonlinear_part(sys8, nonlinear):
    remainder = RemainderMap(sys8, nonlinear)
    rng = np.random.default_rng(11)
    flat = white_state(sys8, nonlinear, rng)
    placed = remainder.placement @ remainder.value(remainder.q_of(flat))
    direct = ClosedLoopOperator(sys8, nonlinear).nonlinear(flat)
    assert np.allclose(placed, direct, rtol=1e-13, atol=1e-14)


_COUPLING = np.array([[-1.3, 0.7, 0.2], [-0.4, -2.1, 0.5], [0.3, -0.6, -1.7]])
_GAIN = np.array([0.9, -0.35, 0.15])
_OUTPUT = np.array([0.45, 1.1, -0.7])


def coupled_block_config(beam):
    """A dim-3 block with a full drift coupling, a state-dependent input gain
    and a nonlinear output on the rotational channel; the default
    translational channel."""
    block = pb.PassiveBlock(
        dim=3,
        drift=lambda z: np.vecdot(np.asarray(z)[..., None, :], _COUPLING) - 0.3 * np.asarray(z) ** 3,
        input_gain=lambda z: _GAIN + 0.2 * np.sin(z),
        output=lambda z: np.vecdot(z, _OUTPUT) + 0.1 * np.asarray(z)[..., 0] ** 3,
        storage=lambda z: 0.5 * np.vecdot(z, z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=lambda z: _COUPLING - 0.9 * np.diag(np.asarray(z) ** 2),
        input_jac=lambda z: 0.2 * np.diag(np.cos(z)),
        output_grad=lambda z: _OUTPUT + np.array([0.3 * z[0] ** 2, 0.0, 0.0]),
    )
    default = default_config(beam)
    return dataclasses.replace(default, block_rotational=block)


def per_point_spring_config(beam):
    """The default config with a translational spring that evaluates one
    point at a time (it branches on the sign of s), so it runs per point."""
    spring = pb.ScalarLaw(eval=lambda s: s + s**3 if s >= 0.0 else s,
                          deriv=lambda s: 1.0 + 3.0 * s**2 if s >= 0.0 else 1.0)
    default = default_config(beam)
    return dataclasses.replace(default, sd_translational=dataclasses.replace(default.sd_translational, spring=spring))


@pytest.mark.parametrize("make_config", [
    default_config, asymmetric_config, stiff_linear_config, undamped_config, coupled_block_config,
    per_point_spring_config,
])
def test_remainder_value_of_a_block_matches_each_row_bitwise(sys8, beam, make_config):
    remainder = RemainderMap(sys8, make_config(beam))
    qs = np.random.default_rng(21).standard_normal((400, remainder.m))
    values = remainder.value(qs)
    assert values.shape == (400, remainder.p) and values.flags.c_contiguous
    for q, value in zip(qs, values):
        assert np.array_equal(remainder.value(q), value)


def test_remainder_jacobians_agree(sys8, beam, nonlinear):
    for config in (nonlinear, asymmetric_config(beam)):
        remainder = RemainderMap(sys8, config)
        rng = np.random.default_rng(12)
        q = 0.5 * rng.standard_normal(remainder.m)
        fd = remainder.jacobian_fd(q, scale=1.0)
        analytic = remainder.jacobian_analytic(q)
        assert np.abs(fd - analytic).max() <= 1e-5


def test_jacobian_fd_is_the_per_column_forward_difference(sys8, beam, nonlinear):
    for config in (nonlinear, asymmetric_config(beam)):
        remainder = RemainderMap(sys8, config)
        q = 0.5 * np.random.default_rng(13).standard_normal(remainder.m)
        h = 1e-7 * (1.0 + 2.0)
        expected = np.empty((remainder.p, remainder.m))
        for j in range(remainder.m):
            qj = q.copy()
            qj[j] += h
            expected[:, j] = (remainder.value(qj) - remainder.value(q)) / h
        assert np.array_equal(remainder.jacobian_fd(q, scale=2.0), expected)


def test_linear_config_generator_matches_assembled_matrix(sys8, linear):
    g = linear_generator_matrix(sys8, linear)
    op = ClosedLoopOperator(sys8, linear)
    rng = np.random.default_rng(14)
    for _ in range(10):
        state = white_state(sys8, linear, rng)
        by_matrix = g @ state
        by_operator = op.generator(state)
        assert np.allclose(by_matrix, by_operator, rtol=1e-11, atol=1e-11 * np.abs(by_matrix).max())


@pytest.mark.parametrize("make_config", [default_config, linear_config, asymmetric_config])
def test_banded_energy_norm_matches_dense_gram(sys8, beam, make_config):
    config = make_config(beam)
    op = ClosedLoopOperator(sys8, config)
    gram = linear_system(sys8, config)[1]
    rng = np.random.default_rng(15)
    for sample in (white_state, smooth_state):
        for _ in range(10):
            x = sample(sys8, config, rng)
            dense = x @ gram @ x
            assert abs(op.qnorm(x) ** 2 - dense) <= 1e-12 * dense


@pytest.mark.parametrize("n_elements", [4, 16, 64])
def test_energy_inner_product_of_one_state_is_its_row_in_a_block(beam, n_elements):
    # a state alone takes the block path: the same bits, not a BLAS product's
    config = asymmetric_config(beam)
    op = ClosedLoopOperator(make_system(beam, n_elements), config)
    rows = np.random.default_rng(16).standard_normal((50, op.remainder.size))
    others = rows[::-1].copy()
    norms, inners = op.qnorm(rows), op.inner(rows, others)
    for row, other, norm, inner in zip(rows, others, norms, inners):
        assert op.qnorm(row) == norm
        assert op.inner(row, other) == inner


def test_nonlinear_remainder_scales_quadratically(sys8, nonlinear):
    op = ClosedLoopOperator(sys8, nonlinear)
    rng = np.random.default_rng(13)
    base = white_state(sys8, nonlinear, rng)
    norms = {}
    for eps in (1e-1, 1e-2, 1e-3):
        norms[eps] = op.qnorm(op.nonlinear(eps * base))
    # cubic-led remainders shrink at least quadratically per decade
    assert norms[1e-2] <= 1e-2 * norms[1e-1]
    assert norms[1e-3] <= 1e-2 * norms[1e-2]


# -- tip-mass solves against a dense oracle -------------------------------------

def dense_tip_mass_solve(sys_n, rhs):
    # dense Cholesky: a dense LU (np.linalg.solve) of mass_tip is itself off by
    # about cond * eps (1e-13 at n=64, 3e-13 at n=256)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(dense(sys_n.mass_tip_band)), rhs)


def assert_close_relative(got, expected, rtol=1e-13):
    assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


@pytest.mark.parametrize("n_elements", [8, 64, 256])
def test_placement_matches_dense_tip_mass_solve(beam, n_elements):
    sys_n = make_system(beam, n_elements)
    config = default_config(beam)
    remainder = RemainderMap(sys_n, config)
    n = sys_n.n_dof
    expected = dense_tip_mass_solve(sys_n, sys_n.tip_unit_columns())
    assert_close_relative(remainder.placement[n : 2 * n, :2], expected)


@pytest.mark.parametrize("n_elements", [8, 64, 256])
@pytest.mark.parametrize("make_config", [default_config, linear_config])
def test_linear_generator_matrix_matches_dense_tip_mass_solve(beam, n_elements, make_config):
    sys_n = make_system(beam, n_elements)
    config = make_config(beam)
    lin1, lin2 = lins_of(config)
    sd1, sd2 = config.sd_rotational, config.sd_translational
    n, n1 = sys_n.n_dof, lin1.A.shape[0]
    isl, iv = sys_n.tip_slope_index, sys_n.tip_value_index
    minv_q = dense_tip_mass_solve(sys_n, dense(displacement_gram(sys_n, sd1.spring_slope, sd2.spring_slope)))
    col_s, col_v = dense_tip_mass_solve(sys_n, sys_n.tip_unit_columns()).T
    g = linear_generator_matrix(sys_n, config)
    velocity_rows = g[n : 2 * n]
    assert_close_relative(velocity_rows[:, :n], -minv_q)
    expected_v = np.zeros((n, n))
    expected_v[:, isl] = -sd1.damper_slope * col_s
    expected_v[:, iv] = -sd2.damper_slope * col_v
    assert_close_relative(velocity_rows[:, n : 2 * n], expected_v)
    assert_close_relative(velocity_rows[:, 2 * n : 2 * n + n1], -np.outer(col_s, lin1.C))
    assert_close_relative(velocity_rows[:, 2 * n + n1 :], -np.outer(col_v, lin2.C))


# -- record diagnostics on blocks of packed states --------------------------------

RECORD_COLUMNS = EnergyBreakdown.CSV_COLUMNS[1:] + ("hdot", "nonlin_norm", "tangent_norm", "state_norm")


def record_columns(rows, sys_n, config, stepper):
    """What simulate records for packed states (one or a block), by column."""
    energy = pb.eval_H(rows, sys_n, config)
    tangent_norms, loads = stepper.generator_norm(rows)
    return dict(zip(RECORD_COLUMNS, (
        *dataclasses.astuple(energy),
        pb.eval_Hdot(rows, sys_n, config),
        stepper.nonlinear_norm(loads),
        tangent_norms,
        stepper.operator.qnorm(np.atleast_2d(rows)),
    )))


def dense_record_columns(state, sys_n, config):
    """The same columns from dense matrices, a dense Cholesky of mass_tip and
    the laws and blocks called directly, one state at a time."""
    u, v, z1, z2 = split_state(state, sys_n, config)
    beam, isl, iv = sys_n.beam, sys_n.tip_slope_index, sys_n.tip_value_index
    rot, tr = config.sd_rotational, config.sd_translational
    b1, b2 = config.block_rotational, config.block_translational
    lin1, lin2 = lins_of(config)
    factor = scipy.linalg.cho_factor(dense(sys_n.mass_tip_band))
    gram = scipy.linalg.block_diag(
        dense(displacement_gram(sys_n, rot.spring_slope, tr.spring_slope)), dense(sys_n.mass_tip_band), lin1.P, lin2.P)

    def norm(x):
        return float(np.sqrt(x @ gram @ x))

    def tangent(loads, rates):
        load = np.zeros(sys_n.n_dof)
        load[isl], load[iv] = loads
        return np.concatenate([np.zeros(sys_n.n_dof), scipy.linalg.cho_solve(factor, load), *rates])

    parts = [
        0.5 * u @ dense(sys_n.stiffness_band) @ u,
        0.5 * v @ dense(sys_n.mass_band) @ v,
        0.5 * beam.tip_inertia * v[isl] ** 2 + 0.5 * beam.tip_mass * v[iv] ** 2,
        float(rot.spring.potential(u[isl])),
        float(tr.spring.potential(u[iv])),
        float(b1.storage(z1)),
        float(b2.storage(z2)),
    ]
    full = tangent(
        [-(float(b1.output(z1)) + float(rot.damper.eval(v[isl])) + float(rot.spring.eval(u[isl]))),
         -(float(b2.output(z2)) + float(tr.damper.eval(v[iv])) + float(tr.spring.eval(u[iv])))],
        [b1.drift(z1) + b1.input_gain(z1) * v[isl], b2.drift(z2) + b2.input_gain(z2) * v[iv]],
    )
    full[: sys_n.n_dof] = v
    full[sys_n.n_dof : 2 * sys_n.n_dof] -= scipy.linalg.cho_solve(factor, dense(sys_n.stiffness_band) @ u)
    remainder = tangent(
        [-((float(b1.output(z1)) - lin1.C @ z1) + (float(rot.damper.eval(v[isl])) - rot.damper_slope * v[isl])
           + (float(rot.spring.eval(u[isl])) - rot.spring_slope * u[isl])),
         -((float(b2.output(z2)) - lin2.C @ z2) + (float(tr.damper.eval(v[iv])) - tr.damper_slope * v[iv])
           + (float(tr.spring.eval(u[iv])) - tr.spring_slope * u[iv]))],
        [(b1.drift(z1) - lin1.A @ z1) + (b1.input_gain(z1) - lin1.B) * v[isl],
         (b2.drift(z2) - lin2.A @ z2) + (b2.input_gain(z2) - lin2.B) * v[iv]],
    )
    hdot = (b1.drift(z1) @ b1.storage_grad(z1) + b2.drift(z2) @ b2.storage_grad(z2)
            - float(rot.damper.eval(v[isl])) * v[isl] - float(tr.damper.eval(v[iv])) * v[iv])
    return dict(zip(RECORD_COLUMNS, (
        sum(parts), *parts, hdot, norm(remainder), norm(full), norm(state))))


@pytest.mark.parametrize("make_config", [default_config, asymmetric_config])
def test_record_columns_of_a_block_match_single_rows_and_a_dense_oracle(sys8, beam, make_config):
    config = make_config(beam)
    stepper = MidpointStepper(sys8, config, 1e-3)
    rng = np.random.default_rng(17)
    rows = np.array([white_state(sys8, config, rng) for _ in range(20)])
    block = record_columns(rows, sys8, config, stepper)
    singles = [record_columns(row, sys8, config, stepper) for row in rows]
    oracle = [dense_record_columns(row, sys8, config) for row in rows]
    for name in RECORD_COLUMNS:
        column = block[name]
        assert column.shape == (len(rows),), name
        # a single state is a block of one row: the same bits
        assert np.array_equal(column, [np.asarray(single[name]).item() for single in singles]), name
        expected = np.array([o[name] for o in oracle])
        assert np.abs(column - expected).max() <= 1e-12 * np.abs(expected).max(), name


def test_linear_system_linearizes_each_block_once(sys8, beam, monkeypatch):
    config = asymmetric_config(beam)
    calls = []
    original = dynamics.linearize_block
    monkeypatch.setattr(dynamics, "linearize_block", lambda block: calls.append(block) or original(block))
    g, q = linear_system(sys8, config)
    assert calls == [config.block_rotational, config.block_translational]
    assert np.array_equal(g, linear_generator_matrix(sys8, config))
    assert np.array_equal(q, linear_system(sys8, config)[1])
