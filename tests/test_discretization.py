"""Meshes, element matrices, assembly, and the energy Gram matrix."""

import dataclasses

import numpy as np
import pytest
import sympy

import passivebeam as pb
from passivebeam.discretization import dense, displacement_gram, element_matrices
from passivebeam.errors import DimensionMismatch, InvalidElementCount, NonFiniteResult, NotPositiveDefinite

from conftest import linear_config, linear_system, make_system, white_state


def test_build_mesh_examples(beam):
    assert np.allclose(pb.build_mesh(beam, 1).nodes, [0.0, 1.0])
    assert np.allclose(pb.build_mesh(beam, 4).nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    long_beam = pb.BeamParams(rho=1.0, lambda_rigidity=1.0, length=2.0, tip_inertia=0.1, tip_mass=0.1)
    assert np.allclose(pb.build_mesh(long_beam, 2).nodes, [0.0, 1.0, 2.0])


def test_build_mesh_rejects_zero_elements(beam):
    with pytest.raises(InvalidElementCount):
        pb.build_mesh(beam, 0)


@pytest.mark.parametrize("band, value", [("mass_band", np.nan), ("stiffness_band", np.inf)])
def test_discrete_system_rejects_non_finite_bands(sys8, band, value):
    bad = getattr(sys8, band).copy()
    bad[-1, 0] = value
    with pytest.raises(NonFiniteResult, match=f"{band} is not finite"):
        dataclasses.replace(sys8, **{band: bad})


def test_discrete_system_rejects_a_non_finite_tip_mass(sys8):
    with pytest.raises(NonFiniteResult, match="mass_tip_band is not finite"):
        dataclasses.replace(sys8, beam=dataclasses.replace(sys8.beam, tip_mass=np.inf))


@pytest.mark.filterwarnings("error")
def test_assemble_leaves_overflow_to_the_system_check(beam):
    huge = dataclasses.replace(beam, length=1e300)
    with pytest.raises(NonFiniteResult, match="mass_band is not finite"):
        pb.assemble(huge, pb.build_mesh(huge, 4))


def test_unit_element_stiffness_matrix():
    _, ke = element_matrices(1.0, rho=1.0, rigidity=1.0)
    expected = np.array(
        [
            [12.0, 6.0, -12.0, 6.0],
            [6.0, 4.0, -6.0, 2.0],
            [-12.0, -6.0, 12.0, -6.0],
            [6.0, 2.0, -6.0, 4.0],
        ]
    )
    assert np.allclose(ke, expected, atol=1e-12)


def test_unit_element_mass_matrix():
    me, _ = element_matrices(1.0, rho=1.0, rigidity=1.0)
    expected = (
        np.array(
            [
                [156.0, 22.0, 54.0, -13.0],
                [22.0, 4.0, 13.0, -3.0],
                [54.0, 13.0, 156.0, -22.0],
                [-13.0, -3.0, -22.0, 4.0],
            ]
        )
        / 420.0
    )
    assert np.allclose(me, expected, atol=1e-14)


def test_element_matrices_match_symbolic_integration():
    # independent oracle: exact symbolic integration at a non-unit element size
    h, rho, lam = 0.5, 2.0, 3.0
    x = sympy.Symbol("x")
    xi = x / h
    shapes = [
        1 - 3 * xi**2 + 2 * xi**3,
        h * xi * (1 - xi) ** 2,
        xi**2 * (3 - 2 * xi),
        h * xi**2 * (xi - 1),
    ]
    me_exact = np.array(
        [
            [float(rho * sympy.integrate(a * b, (x, 0, h))) for b in shapes]
            for a in shapes
        ]
    )
    ke_exact = np.array(
        [
            [
                float(lam * sympy.integrate(sympy.diff(a, x, 2) * sympy.diff(b, x, 2), (x, 0, h)))
                for b in shapes
            ]
            for a in shapes
        ]
    )
    me, ke = element_matrices(h, rho=rho, rigidity=lam)
    assert np.allclose(me, me_exact, rtol=1e-13, atol=1e-15)
    assert np.allclose(ke, ke_exact, rtol=1e-13, atol=1e-12)


def test_element_stiffness_annihilates_rigid_modes(beam):
    h = 0.2
    _, ke = element_matrices(h, beam.rho, beam.lambda_rigidity)
    # (value, slope) at both element ends of u = 1 and of u = x
    constant = np.array([1.0, 0.0, 1.0, 0.0])
    affine = np.array([0.0, 1.0, h, 1.0])
    scale = np.abs(ke).max()
    assert np.abs(ke @ constant).max() <= 1e-12 * scale
    assert np.abs(ke @ affine).max() <= 1e-12 * scale


def test_clamped_matrices_symmetric_positive_definite(sys8):
    assert np.array_equal(dense(sys8.mass_band), dense(sys8.mass_band).T)
    assert np.array_equal(dense(sys8.stiffness_band), dense(sys8.stiffness_band).T)
    assert np.linalg.eigvalsh(dense(sys8.mass_band)).min() > 0.0
    assert np.linalg.eigvalsh(dense(sys8.stiffness_band)).min() > 0.0


def test_tip_terms_added_to_mass(sys8, beam):
    diff = dense(sys8.mass_tip_band) - dense(sys8.mass_band)
    expected = np.zeros_like(diff)
    expected[sys8.tip_value_index, sys8.tip_value_index] = beam.tip_mass
    expected[sys8.tip_slope_index, sys8.tip_slope_index] = beam.tip_inertia
    assert np.array_equal(diff, expected)


def test_quadratic_interpolant_curvature_energy_exact(sys8, beam):
    # x^2 lies in the cubic space; its curvature energy is rigidity * 4 * L
    u = pb.interpolate(sys8, lambda x: x**2, lambda x: 2.0 * x)
    energy = float(u @ (dense(sys8.stiffness_band) @ u))
    exact = beam.lambda_rigidity * 4.0 * beam.length
    assert energy == pytest.approx(exact, rel=1e-13)


def test_gram_zero_state_and_velocity_only_state(sys8, beam):
    config = linear_config(beam)
    gram = linear_system(sys8, config)[1]
    assert np.array_equal(gram, gram.T)
    zero = pb.zero_state(sys8, config)
    assert float(zero @ (gram @ zero)) == 0.0
    # velocity-only state: norm is the rho-mass energy plus the payload terms
    v = pb.interpolate(sys8, lambda x: np.sin(np.pi * x / 2), lambda x: np.pi / 2 * np.cos(np.pi * x / 2))
    state = pb.zero_state(sys8, config)
    state[sys8.n_dof : 2 * sys8.n_dof] = v
    qn2 = float(state @ (gram @ state))
    expected = float(v @ (dense(sys8.mass_band) @ v))
    expected += beam.tip_inertia * v[sys8.tip_slope_index] ** 2
    expected += beam.tip_mass * v[sys8.tip_value_index] ** 2
    assert qn2 == pytest.approx(expected, rel=1e-14)


def test_gram_norm_doubles_energy_for_linear_loop(sys8, beam):
    config = linear_config(beam)
    gram = linear_system(sys8, config)[1]
    rng = np.random.default_rng(2)
    for _ in range(10):
        state = white_state(sys8, config, rng)
        qn2 = float(state @ (gram @ state))
        assert qn2 == pytest.approx(2.0 * pb.eval_H(state, sys8, config).total, rel=1e-12)


def test_gram_rejects_indefinite_spring(sys8, beam):
    sd = pb.SpringDamperLaw(
        damper=pb.make_law("linear"), spring=pb.make_law("linear", slope=-1e5)
    )
    config = pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=sd,
        sd_translational=sd,
        block_rotational=pb.make_block("linear"),
        block_translational=pb.make_block("linear"),
    )
    with pytest.raises(NotPositiveDefinite):
        linear_system(sys8, config)


def test_displacement_gram_adds_spring_slopes(sys4):
    q = dense(displacement_gram(sys4, 2.5, 1.5))
    base = dense(sys4.stiffness_band)
    assert q[sys4.tip_slope_index, sys4.tip_slope_index] == pytest.approx(
        base[sys4.tip_slope_index, sys4.tip_slope_index] + 2.5
    )
    assert q[sys4.tip_value_index, sys4.tip_value_index] == pytest.approx(
        base[sys4.tip_value_index, sys4.tip_value_index] + 1.5
    )


# -- loop-free assembly --------------------------------------------------------

def assemble_per_element(beam, mesh):
    """The original assembly: one element pair per element, added in a loop."""
    n_full = 2 * (mesh.n_elements + 1)
    mass = np.zeros((n_full, n_full))
    stiff = np.zeros((n_full, n_full))
    for e in range(mesh.n_elements):
        me, ke = element_matrices(mesh.nodes[e + 1] - mesh.nodes[e], beam.rho, beam.lambda_rigidity)
        mass[2 * e : 2 * e + 4, 2 * e : 2 * e + 4] += me
        stiff[2 * e : 2 * e + 4, 2 * e : 2 * e + 4] += ke
    mass, stiff = mass[2:, 2:], stiff[2:, 2:]
    mass_tip = mass.copy()
    mass_tip[-2, -2] += beam.tip_mass
    mass_tip[-1, -1] += beam.tip_inertia
    return mass, stiff, mass_tip


def assert_assembly_equals_loop(beam, mesh):
    sys_n = pb.assemble(beam, mesh)
    mass, stiff, mass_tip = assemble_per_element(beam, mesh)
    assert np.array_equal(dense(sys_n.mass_band), mass)
    assert np.array_equal(dense(sys_n.stiffness_band), stiff)
    assert np.array_equal(dense(sys_n.mass_tip_band), mass_tip)


@pytest.mark.parametrize("n_elements", [1, 3, 16, 256])
def test_assembly_equals_per_element_loop(n_elements):
    beam = pb.BeamParams(rho=2.7, lambda_rigidity=0.3, length=1.7, tip_inertia=0.2, tip_mass=0.05)
    assert_assembly_equals_loop(beam, pb.build_mesh(beam, n_elements))


def test_assembly_of_non_uniform_mesh_equals_per_element_loop(beam):
    mesh = pb.Mesh(n_elements=5, nodes=[0.0, 0.125, 0.25, 0.375, 0.6875, 1.0])
    assert len(np.unique(np.diff(mesh.nodes))) == 2
    assert_assembly_equals_loop(beam, mesh)


# -- band storage ----------------------------------------------------------------

def test_system_holds_band_storage_only(beam):
    sys_n = make_system(beam, 64)
    arrays = {f.name: getattr(sys_n, f.name) for f in dataclasses.fields(sys_n)
              if isinstance(getattr(sys_n, f.name), np.ndarray)}
    assert arrays
    for name, value in arrays.items():
        assert value.size <= 4 * sys_n.n_dof, name


def test_band_of_the_wrong_shape_is_rejected(sys4):
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(sys4, stiffness_band=np.ones((7, sys4.n_dof)))
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(sys4, mass_band=np.ones((4, sys4.n_dof + 2)))
