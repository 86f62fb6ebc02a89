"""The discrete closed-loop generator, its linear/nonlinear split, and the
Lyapunov functional with its closed-form rate.

``ClosedLoopOperator`` is the one implementation of the generator, the split
and the energy inner product; it acts on packed vectors (u, v, z1, z2).
``StateVector`` with ``pack``/``unpack`` is the boundary type of initial
data and recorded states, and ``eval_H``/``eval_Hdot`` read it.

The state keeps (u, v, z1, z2); the tip momenta are derived quantities,
xi = J v'(L) and psi = M v(L), so every state satisfies the domain coupling
by construction. Boundary feedback enters through virtual work at the tip
DOFs of the velocity equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from .beam_model import BlockLinearization, ClosedLoopConfig, ScalarLaw, _batch, _simpson, linearize_block
from .discretization import _BANDWIDTH, DiscreteSystem, _upper_band, displacement_gram, solve_mass_tip
from .errors import DimensionMismatch, LinearSolveFailure, QuadratureFailure

#: per-step energy increase budget, as a fraction of H(y0)
ENERGY_INCREASE_ETA = 1e-8


@dataclass(frozen=True)
class StateVector:
    """Discrete state (u, v, z1, z2) with clamped DOFs removed.

    The tip momenta are never stored: xi = J * v'(L) and psi = M * v(L) are
    read off the tip DOFs of the velocity field (``tip_traces``).
    """

    u_dofs: np.ndarray
    v_dofs: np.ndarray
    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        for name in ("u_dofs", "v_dofs", "z1", "z2"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Additive pieces of the Lyapunov functional H."""

    beam_strain: float
    beam_kinetic: float
    tip_kinetic: float
    spring_potential_rot: float
    spring_potential_tr: float
    storage_z1: float
    storage_z2: float
    total: float

    CSV_COLUMNS = (
        "t",
        "total",
        "beam_strain",
        "beam_kinetic",
        "tip_kinetic",
        "spring_rot",
        "spring_tr",
        "storage_z1",
        "storage_z2",
    )

    def csv_row(self, t: float) -> tuple[float, ...]:
        return (
            t,
            self.total,
            self.beam_strain,
            self.beam_kinetic,
            self.tip_kinetic,
            self.spring_potential_rot,
            self.spring_potential_tr,
            self.storage_z1,
            self.storage_z2,
        )


def _check_dims(state: StateVector, sys: DiscreteSystem, config: ClosedLoopConfig):
    if len(state.u_dofs) != sys.n_dof or len(state.v_dofs) != sys.n_dof:
        raise DimensionMismatch(
            f"state has {len(state.u_dofs)}/{len(state.v_dofs)} beam DOFs, system has {sys.n_dof}"
        )
    if len(state.z1) != config.block_rotational.dim:
        raise DimensionMismatch("z1 dimension does not match the rotational block")
    if len(state.z2) != config.block_translational.dim:
        raise DimensionMismatch("z2 dimension does not match the translational block")


def tip_traces(state: StateVector, sys: DiscreteSystem) -> tuple[float, float, float, float]:
    """(u(L), u'(L), v(L), v'(L)) read off the Hermite tip DOFs."""
    iv, isl = sys.tip_value_index, sys.tip_slope_index
    return (
        float(state.u_dofs[iv]),
        float(state.u_dofs[isl]),
        float(state.v_dofs[iv]),
        float(state.v_dofs[isl]),
    )


def zero_state(sys: DiscreteSystem, config: ClosedLoopConfig) -> StateVector:
    return StateVector(
        u_dofs=np.zeros(sys.n_dof),
        v_dofs=np.zeros(sys.n_dof),
        z1=np.zeros(config.block_rotational.dim),
        z2=np.zeros(config.block_translational.dim),
    )


def pack(state: StateVector) -> np.ndarray:
    return np.concatenate([state.u_dofs, state.v_dofs, state.z1, state.z2])


def unpack(vec: np.ndarray, sys: DiscreteSystem, config: ClosedLoopConfig) -> StateVector:
    n = sys.n_dof
    n1 = config.block_rotational.dim
    return StateVector(
        u_dofs=vec[:n],
        v_dofs=vec[n : 2 * n],
        z1=vec[2 * n : 2 * n + n1],
        z2=vec[2 * n + n1 :],
    )


# ---------------------------------------------------------------------------
# Spring potential quadrature
# ---------------------------------------------------------------------------

#: doublings of the fallback quadrature: at most 16 * 2**10 intervals
_MAX_DOUBLINGS = 10


def _simpson_law(f, s: float, intervals: int) -> float:
    # this runs on every record: rely on the elementwise contract of ScalarLaw
    return _simpson(_batch(f, np.linspace(0.0, s, intervals + 1), probe=False), s / intervals)


def spring_potential(law: ScalarLaw, s: float, tol: float = 1e-12) -> float:
    """Integral of the spring law from 0 to s.

    The law's closed-form ``potential`` when it has one. Otherwise composite
    Simpson from 16 intervals, doubled with Richardson extrapolation until the
    absolute update drops below ``tol``, at most 10 times (16 * 2**10
    intervals); raises QuadratureFailure if the update is still above ``tol``.
    """
    if law.potential is not None:
        return float(law.potential(s))
    if s == 0.0:
        return 0.0
    intervals = 16
    coarse = _simpson_law(law.eval, s, intervals)
    for _ in range(_MAX_DOUBLINGS):
        intervals *= 2
        fine = _simpson_law(law.eval, s, intervals)
        err = (fine - coarse) / 15.0
        if abs(err) <= tol:
            return fine + err
        coarse = fine
    raise QuadratureFailure(
        f"spring potential at s={s!r} did not converge in {intervals} Simpson intervals: "
        f"last update {abs(err):.3e} > tol {tol:.3e}"
    )


# ---------------------------------------------------------------------------
# Lyapunov functional and its rate
# ---------------------------------------------------------------------------

def eval_H(state: StateVector, sys: DiscreteSystem, config: ClosedLoopConfig) -> EnergyBreakdown:
    """Total closed-loop energy, split into its additive parts."""
    _check_dims(state, sys, config)
    u, v = state.u_dofs, state.v_dofs
    u_l, up_l, v_l, vp_l = tip_traces(state, sys)
    beam = sys.beam

    strain = 0.5 * float(u @ (sys.stiffness_beam @ u))
    kinetic = 0.5 * float(v @ (sys.mass_beam @ v))
    xi = beam.tip_inertia * vp_l
    psi = beam.tip_mass * v_l
    tip = xi**2 / (2.0 * beam.tip_inertia) + psi**2 / (2.0 * beam.tip_mass)
    v_rot = spring_potential(config.sd_rotational.spring, up_l)
    v_tr = spring_potential(config.sd_translational.spring, u_l)
    s1 = float(config.block_rotational.storage(state.z1))
    s2 = float(config.block_translational.storage(state.z2))
    total = strain + kinetic + tip + v_rot + v_tr + s1 + s2
    return EnergyBreakdown(
        beam_strain=strain,
        beam_kinetic=kinetic,
        tip_kinetic=tip,
        spring_potential_rot=v_rot,
        spring_potential_tr=v_tr,
        storage_z1=s1,
        storage_z2=s2,
        total=total,
    )


def eval_Hdot(state: StateVector, sys: DiscreteSystem, config: ClosedLoopConfig) -> float:
    """Closed-form energy rate: block dissipation minus damper power at the tip."""
    _check_dims(state, sys, config)
    _, _, v_l, vp_l = tip_traces(state, sys)
    b1, b2 = config.block_rotational, config.block_translational
    d1, d2 = config.sd_rotational.damper, config.sd_translational.damper
    rate = float(np.asarray(b1.drift(state.z1)) @ np.asarray(b1.storage_grad(state.z1)))
    rate += float(np.asarray(b2.drift(state.z2)) @ np.asarray(b2.storage_grad(state.z2)))
    rate -= float(d1.eval(vp_l)) * vp_l
    rate -= float(d2.eval(v_l)) * v_l
    return rate


# ---------------------------------------------------------------------------
# The closed-loop operator on packed states
# ---------------------------------------------------------------------------

def _band_mv(band: np.ndarray, x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """alpha * A @ x for A in upper symmetric-band storage."""
    return scipy.linalg.blas.dsbmv(_BANDWIDTH, alpha, band, x)


class ClosedLoopOperator:
    """The closed-loop generator, its linear/nonlinear split and the energy
    inner product, on packed states (u, v, z1, z2).

    Built once per (system, config, lin1, lin2), the linearizations defaulting
    to those of the config's blocks; it does not depend on a time step. The
    beam matrices are held in symmetric-band storage and the tip mass as its
    banded Cholesky factor, so every operation costs O(n). The full generator
    and its linear part fill one skeleton (stiff load, tip loads, tip-mass
    solve, block rows); the remainder is ``RemainderMap.value`` placed by
    ``RemainderMap.placement``. Each generator method returns the packed
    tangent and the load of its velocity equation (mass_tip @ v_dot), so
    ``inner(out, y, load)`` pairs a tangent with y without the mass product.
    """

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig,
                 lin1: BlockLinearization | None = None, lin2: BlockLinearization | None = None):
        self.config = config
        self.lin1 = lin1 if lin1 is not None else linearize_block(config.block_rotational)
        self.lin2 = lin2 if lin2 is not None else linearize_block(config.block_translational)
        self.remainder = RemainderMap(sys, config, self.lin1, self.lin2)
        self.n, self.n1 = sys.n_dof, config.block_rotational.dim
        self.iv, self.isl = sys.tip_value_index, sys.tip_slope_index
        self.stiff_band = _upper_band(sys.stiffness_beam)
        self.mass_band = _upper_band(sys.mass_tip)
        self.gram_band = _upper_band(displacement_gram(
            sys, config.sd_rotational.spring_slope, config.sd_translational.spring_slope))
        self._mass_chol, info = scipy.linalg.lapack.dpbtrf(self.mass_band)
        if info != 0:
            raise LinearSolveFailure("tip mass matrix could not be factored")

    def _fill(self, flat, torque, force, z1_dot, z2_dot, stiff_load=None):
        """The one generator skeleton: stiff and tip loads, tip-mass solve, block rows."""
        n, n1 = self.n, self.n1
        load = _band_mv(self.stiff_band, flat[:n], -1.0) if stiff_load is None else -stiff_load
        load[self.isl] -= torque
        load[self.iv] -= force
        out = np.empty_like(flat)
        out[:n] = flat[n : 2 * n]
        out[n : 2 * n] = scipy.linalg.lapack.dpbtrs(self._mass_chol, load)[0]
        out[2 * n : 2 * n + n1] = z1_dot
        out[2 * n + n1 :] = z2_dot
        return out, load

    def generator(self, flat: np.ndarray, stiff_load: np.ndarray | None = None):
        """Full nonlinear generator. ``stiff_load``, when given, stands in for
        stiffness_beam @ u."""
        up_l, u_l, vp_l, v_l, z1, z2 = self.remainder.split_q(self.remainder.q_of(flat))
        blk1, blk2 = self.config.block_rotational, self.config.block_translational
        sd1, sd2 = self.config.sd_rotational, self.config.sd_translational
        torque = float(blk1.output(z1)) + float(sd1.damper.eval(vp_l)) + float(sd1.spring.eval(up_l))
        force = float(blk2.output(z2)) + float(sd2.damper.eval(v_l)) + float(sd2.spring.eval(u_l))
        z1_dot = np.asarray(blk1.drift(z1)) + np.asarray(blk1.input_gain(z1)) * vp_l
        z2_dot = np.asarray(blk2.drift(z2)) + np.asarray(blk2.input_gain(z2)) * v_l
        return self._fill(flat, torque, force, z1_dot, z2_dot, stiff_load)

    def linear(self, flat: np.ndarray):
        """Linearized generator: laws and blocks replaced by their origin slopes."""
        up_l, u_l, vp_l, v_l, z1, z2 = self.remainder.split_q(self.remainder.q_of(flat))
        lin1, lin2 = self.lin1, self.lin2
        sd1, sd2 = self.config.sd_rotational, self.config.sd_translational
        torque = float(lin1.C @ z1) + sd1.damper_slope * vp_l + sd1.spring_slope * up_l
        force = float(lin2.C @ z2) + sd2.damper_slope * v_l + sd2.spring_slope * u_l
        return self._fill(flat, torque, force, lin1.A @ z1 + lin1.B * vp_l, lin2.A @ z2 + lin2.B * v_l)

    def nonlinear(self, flat: np.ndarray):
        """Remainder part of the generator; its load is zero off the tip DOFs."""
        rem = self.remainder
        f = rem.value(rem.q_of(flat))
        load = np.zeros(self.n)
        load[self.isl], load[self.iv] = f[0], f[1]
        return rem.placement @ f, load

    def inner(self, a: np.ndarray, b: np.ndarray, a_load: np.ndarray | None = None) -> float:
        """Energy inner product of packed vectors: banded displacement Gram,
        tip mass, storage Hessians P1, P2. With ``a_load`` (mass_tip @ a_v)
        the velocity term is a_load . b_v, without re-applying the mass."""
        n = self.n
        m = 2 * n + self.n1  # z2 starts here
        val = float(a[:n] @ _band_mv(self.gram_band, b[:n]))
        if a_load is None:
            val += float(a[n : 2 * n] @ _band_mv(self.mass_band, b[n : 2 * n]))
        else:
            val += float(a_load @ b[n : 2 * n])
        val += float(a[2 * n : m] @ (self.lin1.P @ b[2 * n : m])) + float(a[m:] @ (self.lin2.P @ b[m:]))
        return val

    def qnorm(self, flat: np.ndarray) -> float:
        """Energy norm of a packed vector."""
        return float(np.sqrt(max(self.inner(flat, flat), 0.0)))


# ---------------------------------------------------------------------------
# Low-dimensional view of the nonlinearity, shared by the Newton Jacobian and
# the time-differentiated system
# ---------------------------------------------------------------------------

class RemainderMap:
    """The nonlinear remainder as a map of the few coordinates it touches.

    q = (u'(L), u(L), v'(L), v(L), z1, z2) determines the remainder tip loads
    and block drifts F(q) = (g_s, g_v, h1, h2); the full remainder tangent is
    a constant placement of F. The placement matrix spreads the two tip loads
    through the tip-mass solve (two columns of mass_tip^-1) and injects the
    block rows directly.
    """

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig,
                 lin1: BlockLinearization, lin2: BlockLinearization):
        self.config = config
        self.lin1 = lin1
        self.lin2 = lin2
        n = sys.n_dof
        n1 = config.block_rotational.dim
        n2 = config.block_translational.dim
        self.n1, self.n2 = n1, n2
        self.m = 4 + n1 + n2
        self.p = 2 + n1 + n2
        total = 2 * n + n1 + n2
        # flat indices of q inside the packed state
        self.q_indices = np.concatenate(
            [
                [sys.tip_slope_index, sys.tip_value_index,
                 n + sys.tip_slope_index, n + sys.tip_value_index],
                np.arange(2 * n, 2 * n + n1),
                np.arange(2 * n + n1, total),
            ]
        ).astype(int)
        placement = np.zeros((total, self.p))
        placement[n : 2 * n, :2] = solve_mass_tip(sys, sys.tip_unit_columns())
        placement[2 * n : 2 * n + n1, 2 : 2 + n1] = np.eye(n1)
        placement[2 * n + n1 :, 2 + n1 :] = np.eye(n2)
        self.placement = placement

    def split_q(self, q: np.ndarray):
        up_l, u_l, vp_l, v_l = q[0], q[1], q[2], q[3]
        z1 = q[4 : 4 + self.n1]
        z2 = q[4 + self.n1 :]
        return up_l, u_l, vp_l, v_l, z1, z2

    def value(self, q: np.ndarray) -> np.ndarray:
        """F(q): remainder tip loads followed by remainder block drifts."""
        up_l, u_l, vp_l, v_l, z1, z2 = self.split_q(q)
        c = self.config
        blk1, blk2 = c.block_rotational, c.block_translational
        sd1, sd2 = c.sd_rotational, c.sd_translational
        g_s = -(
            (float(blk1.output(z1)) - float(self.lin1.C @ z1))
            + (float(sd1.damper.eval(vp_l)) - sd1.damper_slope * vp_l)
            + (float(sd1.spring.eval(up_l)) - sd1.spring_slope * up_l)
        )
        g_v = -(
            (float(blk2.output(z2)) - float(self.lin2.C @ z2))
            + (float(sd2.damper.eval(v_l)) - sd2.damper_slope * v_l)
            + (float(sd2.spring.eval(u_l)) - sd2.spring_slope * u_l)
        )
        h1 = (np.asarray(blk1.drift(z1)) - self.lin1.A @ z1) + (
            np.asarray(blk1.input_gain(z1)) - self.lin1.B
        ) * vp_l
        h2 = (np.asarray(blk2.drift(z2)) - self.lin2.A @ z2) + (
            np.asarray(blk2.input_gain(z2)) - self.lin2.B
        ) * v_l
        return np.concatenate([[g_s], [g_v], h1, h2])

    def jacobian_fd(self, q: np.ndarray, scale: float) -> np.ndarray:
        """Forward-difference Jacobian of F with step 1e-7 * (1 + scale).

        Exploits the separable structure: each output piece depends on one
        trace or one block state, so only the coupled pieces are re-evaluated
        (the omitted differences vanish identically).
        """
        h = 1e-7 * (1.0 + scale)
        up_l, u_l, vp_l, v_l, z1, z2 = self.split_q(q)
        c = self.config
        blk1, blk2 = c.block_rotational, c.block_translational
        sd1, sd2 = c.sd_rotational, c.sd_translational
        n1, n2 = self.n1, self.n2
        jac = np.zeros((self.p, self.m))

        def law_fd(law: ScalarLaw, slope: float, s: float) -> float:
            return (float(law.eval(s + h)) - float(law.eval(s))) / h - slope

        # trace columns: spring/damper remainders and the input-gain remainder
        jac[0, 0] = -law_fd(sd1.spring, sd1.spring_slope, up_l)
        jac[0, 2] = -law_fd(sd1.damper, sd1.damper_slope, vp_l)
        jac[1, 1] = -law_fd(sd2.spring, sd2.spring_slope, u_l)
        jac[1, 3] = -law_fd(sd2.damper, sd2.damper_slope, v_l)
        jac[2 : 2 + n1, 2] = np.asarray(blk1.input_gain(z1)) - self.lin1.B
        jac[2 + n1 :, 3] = np.asarray(blk2.input_gain(z2)) - self.lin2.B

        # rotational block columns
        out0 = float(blk1.output(z1))
        drift0 = np.asarray(blk1.drift(z1))
        gain0 = np.asarray(blk1.input_gain(z1))
        for j in range(n1):
            zj = z1.copy()
            zj[j] += h
            jac[0, 4 + j] = -((float(blk1.output(zj)) - out0) / h - self.lin1.C[j])
            jac[2 : 2 + n1, 4 + j] = (
                (np.asarray(blk1.drift(zj)) - drift0) / h - self.lin1.A[:, j]
                + vp_l * (np.asarray(blk1.input_gain(zj)) - gain0) / h
            )
        # translational block columns
        out0 = float(blk2.output(z2))
        drift0 = np.asarray(blk2.drift(z2))
        gain0 = np.asarray(blk2.input_gain(z2))
        for j in range(n2):
            zj = z2.copy()
            zj[j] += h
            jac[1, 4 + n1 + j] = -((float(blk2.output(zj)) - out0) / h - self.lin2.C[j])
            jac[2 + n1 :, 4 + n1 + j] = (
                (np.asarray(blk2.drift(zj)) - drift0) / h - self.lin2.A[:, j]
                + v_l * (np.asarray(blk2.input_gain(zj)) - gain0) / h
            )
        return jac

    def jacobian_analytic(self, q: np.ndarray) -> np.ndarray:
        """Exact Jacobian of F from the supplied law and block derivatives."""
        up_l, u_l, vp_l, v_l, z1, z2 = self.split_q(q)
        c = self.config
        blk1, blk2 = c.block_rotational, c.block_translational
        sd1, sd2 = c.sd_rotational, c.sd_translational
        n1, n2 = self.n1, self.n2
        jac = np.zeros((self.p, self.m))
        # g_s row
        jac[0, 0] = -(float(sd1.spring.deriv(up_l)) - sd1.spring_slope)
        jac[0, 2] = -(float(sd1.damper.deriv(vp_l)) - sd1.damper_slope)
        jac[0, 4 : 4 + n1] = -(np.asarray(blk1.output_grad(z1)) - self.lin1.C)
        # g_v row
        jac[1, 1] = -(float(sd2.spring.deriv(u_l)) - sd2.spring_slope)
        jac[1, 3] = -(float(sd2.damper.deriv(v_l)) - sd2.damper_slope)
        jac[1, 4 + n1 :] = -(np.asarray(blk2.output_grad(z2)) - self.lin2.C)
        # h1 rows
        jac[2 : 2 + n1, 2] = np.asarray(blk1.input_gain(z1)) - self.lin1.B
        jac[2 : 2 + n1, 4 : 4 + n1] = (
            np.asarray(blk1.drift_jac(z1)) - self.lin1.A
        ) + vp_l * np.asarray(blk1.input_jac(z1))
        # h2 rows
        jac[2 + n1 :, 3] = np.asarray(blk2.input_gain(z2)) - self.lin2.B
        jac[2 + n1 :, 4 + n1 :] = (
            np.asarray(blk2.drift_jac(z2)) - self.lin2.A
        ) + v_l * np.asarray(blk2.input_jac(z2))
        return jac

    def q_of(self, flat_state: np.ndarray) -> np.ndarray:
        return flat_state[self.q_indices]


def linear_generator_matrix(
    sys: DiscreteSystem,
    config: ClosedLoopConfig,
    lin1: BlockLinearization,
    lin2: BlockLinearization,
) -> np.ndarray:
    """Dense matrix G with G @ y = ClosedLoopOperator.linear(y)[0]."""
    n = sys.n_dof
    n1, n2 = lin1.A.shape[0], lin2.A.shape[0]
    total = 2 * n + n1 + n2
    iv, isl = sys.tip_value_index, sys.tip_slope_index
    d1 = config.sd_rotational.damper_slope
    d2 = config.sd_translational.damper_slope
    k1 = config.sd_rotational.spring_slope
    k2 = config.sd_translational.spring_slope
    # mass_tip^-1 applied to the displacement Gram and the two tip columns
    sol = solve_mass_tip(sys, np.hstack([displacement_gram(sys, k1, k2), sys.tip_unit_columns()]))
    col_s, col_v = sol[:, n], sol[:, n + 1]

    g = np.zeros((total, total))
    g[:n, n : 2 * n] = np.eye(n)
    g[n : 2 * n, :n] = -sol[:, :n]
    g[n : 2 * n, n + isl] -= d1 * col_s
    g[n : 2 * n, n + iv] -= d2 * col_v
    g[n : 2 * n, 2 * n : 2 * n + n1] = -np.outer(col_s, lin1.C)
    g[n : 2 * n, 2 * n + n1 :] = -np.outer(col_v, lin2.C)
    g[2 * n : 2 * n + n1, n + isl] = lin1.B
    g[2 * n : 2 * n + n1, 2 * n : 2 * n + n1] = lin1.A
    g[2 * n + n1 :, n + iv] = lin2.B
    g[2 * n + n1 :, 2 * n + n1 :] = lin2.A
    return g
