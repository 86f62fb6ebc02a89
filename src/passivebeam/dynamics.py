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

from .beam_model import (
    BlockLinearization,
    ClosedLoopConfig,
    PassiveBlock,
    ScalarLaw,
    SpringDamperLaw,
    _batch,
    _simpson,
    linearize_block,
)
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


@dataclass(frozen=True, slots=True)
class _Channel:
    """One feedback channel: a spring-damper law and a passive block acting
    on one tip DOF, with the block's linearization.

    Channel 0 (rotational) acts on the tip slope, channel 1 (translational)
    on the tip deflection. In the remainder coordinates q[index] is the
    channel's displacement trace, q[2 + index] its velocity trace and
    F[index] its remainder tip load.
    """

    index: int
    sd: SpringDamperLaw
    block: PassiveBlock
    lin: BlockLinearization
    tip: int  # tip DOF of the beam
    z: slice  # block state in the packed state
    zq: slice  # block state in q
    zf: slice  # block drift in F

    def load_and_rate(self, u_l, v_l, z):
        """Tip load and block rate of the full laws."""
        blk, sd = self.block, self.sd
        load = float(blk.output(z)) + float(sd.damper.eval(v_l)) + float(sd.spring.eval(u_l))
        return load, np.asarray(blk.drift(z)) + np.asarray(blk.input_gain(z)) * v_l

    def linear_load_and_rate(self, u_l, v_l, z):
        """Tip load and block rate of the laws' and block's origin slopes."""
        lin, sd = self.lin, self.sd
        load = float(lin.C @ z) + sd.damper_slope * v_l + sd.spring_slope * u_l
        return load, lin.A @ z + lin.B * v_l


def _channels(sys: DiscreteSystem, config: ClosedLoopConfig) -> tuple[_Channel, ...]:
    """The rotational and translational channels of (sys, config), each with
    its block linearized at the origin."""
    n = sys.n_dof
    channels, offset = [], 0
    for index, (sd, block, tip) in enumerate((
        (config.sd_rotational, config.block_rotational, sys.tip_slope_index),
        (config.sd_translational, config.block_translational, sys.tip_value_index),
    )):
        end = offset + block.dim
        channels.append(_Channel(
            index, sd, block, linearize_block(block), tip,
            z=slice(2 * n + offset, 2 * n + end), zq=slice(4 + offset, 4 + end), zf=slice(2 + offset, 2 + end),
        ))
        offset = end
    return tuple(channels)


class ClosedLoopOperator:
    """The closed-loop generator, its linear/nonlinear split and the energy
    inner product, on packed states (u, v, z1, z2).

    Built once per (system, config), with the linearizations of the config's
    blocks; it does not depend on a time step. The beam matrices are held in
    symmetric-band storage and the tip mass as its banded Cholesky factor, so
    every operation costs O(n). The full generator and its linear part fill
    one skeleton (stiff load, per-channel tip loads and block rows, tip-mass
    solve); the remainder is ``RemainderMap.value`` placed by
    ``RemainderMap.placement``. Each generator method returns the packed
    tangent and the load of its velocity equation (mass_tip @ v_dot), so
    ``inner(out, y, load)`` pairs a tangent with y without the mass product.
    """

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig):
        self.remainder = RemainderMap(sys, config)
        self.channels = self.remainder.channels
        self.n = sys.n_dof
        self.stiff_band = _upper_band(sys.stiffness_beam)
        self.mass_band = _upper_band(sys.mass_tip)
        self.gram_band = _upper_band(displacement_gram(
            sys, config.sd_rotational.spring_slope, config.sd_translational.spring_slope))
        self._mass_chol, info = scipy.linalg.lapack.dpbtrf(self.mass_band)
        if info != 0:
            raise LinearSolveFailure("tip mass matrix could not be factored")

    def _fill(self, flat, stiff_load, terms):
        """The one generator skeleton: the stiff load, each channel's tip load
        and block rows from ``terms(channel, u_l, v_l, z)``, the tip-mass solve."""
        n = self.n
        q = self.remainder.q_of(flat)
        load = _band_mv(self.stiff_band, flat[:n], -1.0) if stiff_load is None else -stiff_load
        out = np.empty_like(flat)
        out[:n] = flat[n : 2 * n]
        for ch in self.channels:
            tip_load, out[ch.z] = terms(ch, q[ch.index], q[2 + ch.index], q[ch.zq])
            load[ch.tip] -= tip_load
        out[n : 2 * n] = scipy.linalg.lapack.dpbtrs(self._mass_chol, load)[0]
        return out, load

    def generator(self, flat: np.ndarray, stiff_load: np.ndarray | None = None):
        """Full nonlinear generator. ``stiff_load``, when given, stands in for
        stiffness_beam @ u."""
        return self._fill(flat, stiff_load, _Channel.load_and_rate)

    def linear(self, flat: np.ndarray):
        """Linearized generator: laws and blocks replaced by their origin slopes."""
        return self._fill(flat, None, _Channel.linear_load_and_rate)

    def nonlinear(self, flat: np.ndarray):
        """Remainder part of the generator; its load is zero off the tip DOFs."""
        rem = self.remainder
        f = rem.value(rem.q_of(flat))
        load = np.zeros(self.n)
        for ch in self.channels:
            load[ch.tip] = f[ch.index]
        return rem.placement @ f, load

    def inner(self, a: np.ndarray, b: np.ndarray, a_load: np.ndarray | None = None) -> float:
        """Energy inner product of packed vectors: banded displacement Gram,
        tip mass, storage Hessians P1, P2. With ``a_load`` (mass_tip @ a_v)
        the velocity term is a_load . b_v, without re-applying the mass."""
        n = self.n
        val = float(a[:n] @ _band_mv(self.gram_band, b[:n]))
        if a_load is None:
            val += float(a[n : 2 * n] @ _band_mv(self.mass_band, b[n : 2 * n]))
        else:
            val += float(a_load @ b[n : 2 * n])
        storage = 0.0
        for ch in self.channels:
            storage += float(a[ch.z] @ (ch.lin.P @ b[ch.z]))
        return val + storage

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

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig):
        self.channels = _channels(sys, config)
        n = sys.n_dof
        total = self.channels[-1].z.stop
        self.m = total - 2 * n + 4
        self.p = total - 2 * n + 2
        # flat indices of q inside the packed state
        tips = [ch.tip for ch in self.channels]
        self.q_indices = np.concatenate([tips, np.add(tips, n), np.arange(2 * n, total)]).astype(int)
        placement = np.zeros((total, self.p))
        placement[n : 2 * n, :2] = solve_mass_tip(sys, sys.tip_unit_columns())
        placement[2 * n :, 2:] = np.eye(self.p - 2)
        self.placement = placement

    def value(self, q: np.ndarray) -> np.ndarray:
        """F(q): remainder tip loads followed by remainder block drifts."""
        f = np.empty(self.p)
        for ch in self.channels:
            u_l, v_l, z = q[ch.index], q[2 + ch.index], q[ch.zq]
            blk, sd, lin = ch.block, ch.sd, ch.lin
            f[ch.index] = -(
                (float(blk.output(z)) - float(lin.C @ z))
                + (float(sd.damper.eval(v_l)) - sd.damper_slope * v_l)
                + (float(sd.spring.eval(u_l)) - sd.spring_slope * u_l)
            )
            f[ch.zf] = (np.asarray(blk.drift(z)) - lin.A @ z) + (np.asarray(blk.input_gain(z)) - lin.B) * v_l
        return f

    def jacobian_fd(self, q: np.ndarray, scale: float) -> np.ndarray:
        """Forward-difference Jacobian of F, column by column, with step
        1e-7 * (1 + scale)."""
        h = 1e-7 * (1.0 + scale)
        base = self.value(q)
        jac = np.empty((self.p, self.m))
        for j in range(self.m):
            qj = q.copy()
            qj[j] += h
            jac[:, j] = (self.value(qj) - base) / h
        return jac

    def jacobian_analytic(self, q: np.ndarray) -> np.ndarray:
        """Exact Jacobian of F from the supplied law and block derivatives."""
        jac = np.zeros((self.p, self.m))
        for ch in self.channels:
            i, zq, zf = ch.index, ch.zq, ch.zf
            u_l, v_l, z = q[i], q[2 + i], q[zq]
            blk, sd, lin = ch.block, ch.sd, ch.lin
            # tip load row
            jac[i, i] = -(float(sd.spring.deriv(u_l)) - sd.spring_slope)
            jac[i, 2 + i] = -(float(sd.damper.deriv(v_l)) - sd.damper_slope)
            jac[i, zq] = -(np.asarray(blk.output_grad(z)) - lin.C)
            # block rows
            jac[zf, 2 + i] = np.asarray(blk.input_gain(z)) - lin.B
            jac[zf, zq] = (np.asarray(blk.drift_jac(z)) - lin.A) + v_l * np.asarray(blk.input_jac(z))
        return jac

    def q_of(self, flat_state: np.ndarray) -> np.ndarray:
        return flat_state[self.q_indices]


def linear_generator_matrix(sys: DiscreteSystem, config: ClosedLoopConfig) -> np.ndarray:
    """Dense matrix G with G @ y = ClosedLoopOperator.linear(y)[0]."""
    n = sys.n_dof
    channels = _channels(sys, config)
    total = channels[-1].z.stop
    k1 = config.sd_rotational.spring_slope
    k2 = config.sd_translational.spring_slope
    # mass_tip^-1 applied to the displacement Gram and the two tip columns
    sol = solve_mass_tip(sys, np.hstack([displacement_gram(sys, k1, k2), sys.tip_unit_columns()]))

    g = np.zeros((total, total))
    g[:n, n : 2 * n] = np.eye(n)
    g[n : 2 * n, :n] = -sol[:, :n]
    for ch in channels:
        col = sol[:, n + ch.index]
        g[n : 2 * n, n + ch.tip] -= ch.sd.damper_slope * col
        g[n : 2 * n, ch.z] = -np.outer(col, ch.lin.C)
        g[ch.z, n + ch.tip] = ch.lin.B
        g[ch.z, ch.z] = ch.lin.A
    return g
