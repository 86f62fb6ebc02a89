"""Shared fixtures: reference beam, canonical configurations, state samplers."""

import numpy as np
import pytest
import scipy.linalg

import passivebeam as pb
from passivebeam.analysis import require_positive_gram
from passivebeam.discretization import dense, displacement_gram
from passivebeam.dynamics import ClosedLoopOperator, _generator_matrix

DEFAULT_BEAM = dict(rho=1.0, lambda_rigidity=1.0, length=1.0, tip_inertia=0.1, tip_mass=0.1)


@pytest.fixture(scope="session")
def beam():
    return pb.BeamParams(**DEFAULT_BEAM)


def make_system(beam, n_elements):
    mesh = pb.build_mesh(beam, n_elements)
    return pb.assemble(beam, mesh)


@pytest.fixture(scope="session")
def sys4(beam):
    return make_system(beam, 4)


@pytest.fixture(scope="session")
def sys8(beam):
    return make_system(beam, 8)


def dense_projected_system(sys, spring_constants, damper_constants=(0.0, 0.0)):
    """Dense generator G and Gram Q of the projected loop over (u, v): beam,
    tip inertia, linear tip springs and dampers, no blocks. The tip-mass
    solves use a dense Cholesky (a dense LU is off by cond * eps, 3e-13 at
    n=256)."""
    n = sys.n_dof
    q_u = dense(displacement_gram(sys, *spring_constants))
    cho = scipy.linalg.cho_factor(dense(sys.mass_tip_band))
    tips = scipy.linalg.cho_solve(cho, sys.tip_unit_columns())
    g = np.zeros((2 * n, 2 * n))
    g[:n, n:] = np.eye(n)
    g[n:, :n] = -scipy.linalg.cho_solve(cho, q_u)
    g[n:, n + sys.tip_slope_index] = -damper_constants[0] * tips[:, 0]
    g[n:, n + sys.tip_value_index] = -damper_constants[1] * tips[:, 1]
    return g, scipy.linalg.block_diag(q_u, dense(sys.mass_tip_band))


def dense_beam_frequencies(sys, count=5):
    """The ``count`` lowest bare-beam frequencies from the dense generalized
    eigenproblem of the inverted pencil (mass against stiffness): the dense
    oracle of ``pb.beam_frequencies``."""
    mu = scipy.linalg.eigh(dense(sys.mass_band), dense(sys.stiffness_band), eigvals_only=True)
    return np.sqrt(1.0 / mu[::-1][:count])


def linear_system(sys, config):
    """Dense linear generator G and energy Gram Q from one
    ``ClosedLoopOperator`` (one linearization of each block): G is read off
    its linear part, Q is its inner product written out densely, block
    diagonal over (u, v, z1, z2). The displacement block is the operator's
    ``gram_band`` (curvature Gram plus the spring slopes), the velocity block
    the tip mass, the block states are weighted with the storage Hessians. An
    indefinite Q raises NotPositiveDefinite before G is built."""
    op = ClosedLoopOperator(sys, config)
    n = op.n
    q = np.zeros((op.channels[-1].z.stop,) * 2)
    q[:n, :n] = dense(require_positive_gram(op.gram_band))
    q[n : 2 * n, n : 2 * n] = dense(sys.mass_tip_band)
    q[2 * n :, 2 * n :] = op.storage_gram
    return _generator_matrix(op), q


def dense_spectrum(g, q):
    """Eigenvalues of a dense generator G in the energy coordinates of its
    Gram Q (the Cholesky factor R of Q gives the similar matrix R G R^-1), as
    a ``SpectrumReport`` of 0 sweeps: the dense oracle of ``pb.spectrum``."""
    r = scipy.linalg.cholesky(q)
    # (R G R^{-1})^T, which has the same eigenvalues
    grg_t = scipy.linalg.solve_triangular(r.T, (r @ g).T, lower=True)
    return pb.SpectrumReport.of(scipy.linalg.eigvals(grg_t), 0)


def default_config(beam):
    """Cubic springs, saturating dampers, cubic-drift blocks."""
    sd = lambda: pb.SpringDamperLaw(
        damper=pb.make_law("tanh", gain=2.0), spring=pb.make_law("cubic")
    )
    return pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=sd(),
        sd_translational=sd(),
        block_rotational=pb.make_block("cubic-drift"),
        block_translational=pb.make_block("cubic-drift"),
    )


def linear_config(beam, damper_slope=1.0, spring_slope=1.0):
    sd = lambda: pb.SpringDamperLaw(
        damper=pb.make_law("linear", slope=damper_slope),
        spring=pb.make_law("linear", slope=spring_slope),
    )
    return pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=sd(),
        sd_translational=sd(),
        block_rotational=pb.make_block("linear"),
        block_translational=pb.make_block("linear"),
    )


def stiff_linear_config(beam):
    """Stiff linear laws and a fast dim-3 linear block on both channels."""
    sd = lambda: pb.SpringDamperLaw(
        damper=pb.make_law("linear", slope=1e4), spring=pb.make_law("linear", slope=1e3)
    )
    block = lambda: pb.make_block("linear", dim=3, rate=50.0, gain=30.0)
    return pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=sd(),
        sd_translational=sd(),
        block_rotational=block(),
        block_translational=block(),
    )


def undamped_config(beam, spring_slope=1.0):
    """Zero dampers, linear springs, input-decoupled blocks: the projected flow."""
    sd = lambda: pb.SpringDamperLaw(
        damper=pb.make_law("zero"), spring=pb.make_law("linear", slope=spring_slope)
    )
    return pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=sd(),
        sd_translational=sd(),
        block_rotational=pb.make_block("linear", gain=0.0),
        block_translational=pb.make_block("linear", gain=0.0),
    )


def kappa_zero_config(beam):
    """Linear springs, saturating dampers, cubic-drift blocks."""
    sd = lambda: pb.SpringDamperLaw(
        damper=pb.make_law("tanh", gain=2.0), spring=pb.make_law("linear")
    )
    return pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=sd(),
        sd_translational=sd(),
        block_rotational=pb.make_block("cubic-drift"),
        block_translational=pb.make_block("cubic-drift"),
    )


def asymmetric_config(beam):
    """Two channels that differ in every law, block and block dimension."""
    return pb.ClosedLoopConfig(
        beam=beam,
        sd_rotational=pb.SpringDamperLaw(
            damper=pb.make_law("linear", slope=0.7), spring=pb.make_law("cubic", slope=2.0, cubic=0.5)
        ),
        sd_translational=pb.SpringDamperLaw(
            damper=pb.make_law("tanh", gain=3.0), spring=pb.make_law("linear", slope=1.3)
        ),
        block_rotational=pb.make_block("linear", dim=3, rate=1.5, gain=0.8),
        block_translational=pb.make_block("cubic-drift", strength=2.0),
    )


def white_state(sys, config, rng, scale=1.0):
    """Rough random packed state: independent normal entries."""
    return scale * rng.standard_normal(pb.zero_state(sys, config).size)


def split_state(y, sys, config):
    """(u, v, z1, z2) of a packed state or of each row of a block of them."""
    n, n1 = sys.n_dof, config.block_rotational.dim
    return y[..., :n], y[..., n : 2 * n], y[..., 2 * n : 2 * n + n1], y[..., 2 * n + n1 :]


def smooth_state(sys, config, rng, scale=0.5):
    """Random packed state interpolating low-order polynomials (clamped at x=0)."""
    length = sys.beam.length

    def poly_pair(coeffs):
        def value(x):
            return sum(c * (x / length) ** (k + 2) for k, c in enumerate(coeffs))

        def slope(x):
            return sum(
                c * (k + 2) * x ** (k + 1) / length ** (k + 2) for k, c in enumerate(coeffs)
            )

        return value, slope

    u = pb.interpolate(sys, *poly_pair(scale * rng.standard_normal(4)))
    v = pb.interpolate(sys, *poly_pair(scale * rng.standard_normal(4)))
    return np.concatenate([
        u,
        v,
        scale * rng.standard_normal(config.block_rotational.dim),
        scale * rng.standard_normal(config.block_translational.dim),
    ])
