"""The discrete closed-loop generator, its linear/nonlinear split, and the
Lyapunov functional with its closed-form rate.

The state is one packed vector (u, v, z1, z2) of length 2 n_dof + dim z1 +
dim z2: the displacement and velocity DOFs with the clamped DOFs removed,
then the two block states. This module alone spells out that layout
(``zero_state``, ``_rows``, ``_batches``). ``ClosedLoopOperator`` implements
the generator, the split and the energy inner product (``step_flat`` has its
own |y|_Q) on one packed vector (N,) and on blocks of them (R, N), one packed
state per row. ``eval_H``/``eval_Hdot`` take the same packed states.

The tip momenta are derived quantities, xi = J v'(L) and psi = M v(L), so
every state satisfies the domain coupling by construction. Boundary feedback
enters through virtual work at the tip DOFs of the velocity equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam_model import (
    BlockLinearization,
    ClosedLoopConfig,
    PassiveBlock,
    ScalarLaw,
    SpringDamperLaw,
    linearize_block,
)
from .discretization import DiscreteSystem, _band_dot, _band_mv, displacement_gram, solve_mass_tip
from .errors import DimensionMismatch

#: per-step energy increase budget, as a fraction of H(y0)
ENERGY_INCREASE_ETA = 1e-8


@dataclass(frozen=True)
class EnergyBreakdown:
    """Additive pieces of the Lyapunov functional H: floats for one state,
    columns for a block of states. The fields are in the order of the
    ``CSV_COLUMNS`` after ``t``."""

    total: float | np.ndarray
    beam_strain: float | np.ndarray
    beam_kinetic: float | np.ndarray
    tip_kinetic: float | np.ndarray
    spring_potential_rot: float | np.ndarray
    spring_potential_tr: float | np.ndarray
    storage_z1: float | np.ndarray
    storage_z2: float | np.ndarray

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


def zero_state(sys: DiscreteSystem, config: ClosedLoopConfig) -> np.ndarray:
    """The packed zero state (u, v, z1, z2) of (sys, config)."""
    return np.zeros(2 * sys.n_dof + config.block_rotational.dim + config.block_translational.dim)


def _rows(flat, sys: DiscreteSystem, config: ClosedLoopConfig) -> np.ndarray:
    """One packed state or a block of them as rows, (R, N)."""
    rows = np.atleast_2d(np.asarray(flat, dtype=float))
    width = zero_state(sys, config).size
    if rows.ndim != 2 or rows.shape[1] != width:
        raise DimensionMismatch(
            f"packed states have shape {np.shape(flat)}; the system and blocks need {width} entries per state"
        )
    return rows


def _as_given(flat, column: np.ndarray):
    """A per-row result, as a float when ``flat`` was a single state."""
    return float(column[0]) if np.ndim(flat) == 1 else column


def spring_potential(law: ScalarLaw, s):
    """Integral of the spring law from 0 to s, for a number or elementwise
    for an array of s: the law's ``potential`` (its closed form, or the
    adaptive Simpson rule installed at construction) in one call over all
    points."""
    points = np.asarray(s, dtype=float)
    values = law.potential(points.ravel())
    return values.reshape(points.shape) if points.ndim else float(values[0])


# ---------------------------------------------------------------------------
# Lyapunov functional and its rate
# ---------------------------------------------------------------------------

def eval_H(flat, sys: DiscreteSystem, config: ClosedLoopConfig) -> EnergyBreakdown:
    """Total closed-loop energy of packed states, split into its additive
    parts. ``flat`` is one packed state (N,) or a block of them (R, N); a
    single state is evaluated as a block of one row."""
    rows = _rows(flat, sys, config)
    n = sys.n_dof
    beam = sys.beam
    u, v = rows[:, :n], rows[:, n : 2 * n]
    strain = 0.5 * _band_dot(sys.stiffness_band, u, u)
    kinetic = 0.5 * _band_dot(sys.mass_band, v, v)
    xi = beam.tip_inertia * v[:, sys.tip_slope_index]
    psi = beam.tip_mass * v[:, sys.tip_value_index]
    tip = xi**2 / (2.0 * beam.tip_inertia) + psi**2 / (2.0 * beam.tip_mass)
    springs, storages = [], []  # one column per channel
    for b in _batches(sys, config, linearize=False):
        springs += b.columns(spring_potential(b.sd.spring, rows[:, b.tips]), len(rows))
        # a block's storage may broadcast over the rows (PassiveBlock)
        storages += b.columns(b.block.storage(b.states(rows, b.z)), len(rows))
    total = strain + kinetic + tip
    for part in springs + storages:
        total = total + part
    parts = (total, strain, kinetic, tip, *springs, *storages)
    return EnergyBreakdown(*(_as_given(flat, part) for part in parts))


def eval_Hdot(flat, sys: DiscreteSystem, config: ClosedLoopConfig):
    """Closed-form energy rate of packed states (one or a block, as for
    ``eval_H``): block dissipation minus damper power at the tip."""
    rows = _rows(flat, sys, config)
    rate = np.zeros(len(rows))
    for b in _batches(sys, config, linearize=False):
        z, v_l = b.states(rows, b.z), rows[:, np.add(b.tips, sys.n_dof)]
        dissipation = b.columns(np.vecdot(b.block.drift(z), b.block.storage_grad(z)), len(rows))
        power = b.columns(b.sd.damper.eval(v_l) * v_l, len(rows))
        for block_rate, damper_power in zip(dissipation, power):  # channel by channel, as always summed
            rate += block_rate
            rate -= damper_power
    return _as_given(flat, rate)


# ---------------------------------------------------------------------------
# The closed-loop operator on packed states
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Batch:
    """Feedback channels that share one spring-damper law object and one
    passive block object, evaluated together: each law or block callback
    takes the traces of all g of them, (..., g), or their block states,
    (..., g, dim), in one call. A channel alone is a batch of one, g = 1,
    and takes the same path.

    Channel 0 (rotational) acts on the tip slope, channel 1 (translational)
    on the tip deflection; a batch holds channels ``first`` to ``first +
    count``, its block states one channel after the other. In the remainder
    coordinates q[u] are the displacement traces, q[v] the velocity traces
    and F[u] the remainder tip loads. The energy functions build batches
    without ``lin``.
    """

    first: int
    count: int
    sd: SpringDamperLaw
    block: PassiveBlock
    lin: BlockLinearization | None
    tips: list[int]  # tip DOFs of the beam
    u: slice  # displacement traces in q, tip loads in F
    v: slice  # velocity traces in q
    z: slice  # block states in the packed state
    zq: slice  # block states in q
    zf: slice  # block drifts in F

    def states(self, x: np.ndarray, where: slice) -> np.ndarray:
        """The block states at ``where`` of the last axis of ``x``, (..., g,
        dim)."""
        return x[..., where].reshape(x.shape[:-1] + (self.count, self.block.dim))

    def columns(self, x, rows: int) -> list[np.ndarray]:
        """One column per channel of a per-row result that broadcasts to
        (rows, g)."""
        return list(np.broadcast_to(x, (rows, self.count)).T)


def _batches(sys: DiscreteSystem, config: ClosedLoopConfig, linearize: bool = True) -> tuple[_Batch, ...]:
    """The rotational and translational channels of (sys, config), as
    batches of the channels that share their law and block objects (one of
    two or two of one), each block linearized at the origin (once, however
    many batches hold it) unless ``linearize`` is false."""
    n = sys.n_dof
    groups = []  # [sd, block, tips]
    for sd, block, tip in (
        (config.sd_rotational, config.block_rotational, sys.tip_slope_index),
        (config.sd_translational, config.block_translational, sys.tip_value_index),
    ):
        if groups and groups[-1][0] is sd and groups[-1][1] is block:
            groups[-1][2].append(tip)
        else:
            groups.append((sd, block, [tip]))
    batches, lins, first, offset = [], {}, 0, 0
    for sd, block, tips in groups:
        count, end = len(tips), offset + len(tips) * block.dim
        if linearize and id(block) not in lins:
            lins[id(block)] = linearize_block(block)
        batches.append(_Batch(
            first, count, sd, block, lins.get(id(block)), tips,
            u=slice(first, first + count), v=slice(2 + first, 2 + first + count),
            z=slice(2 * n + offset, 2 * n + end), zq=slice(4 + offset, 4 + end), zf=slice(2 + offset, 2 + end),
        ))
        first, offset = first + count, end
    return tuple(batches)


def _entries(matrix: np.ndarray, row: int, col: int, shape: tuple, steps: list) -> np.ndarray:
    """Writeable view of the C-contiguous ``matrix`` that starts at entry
    (row, col) and moves by the given (rows, columns) along each of its
    axes: the same entry of each channel of a batch is one view."""
    flat = matrix.reshape(-1)[row * matrix.shape[1] + col :]
    strides = [(rows * matrix.shape[1] + cols) * flat.itemsize for rows, cols in steps]
    return np.lib.stride_tricks.as_strided(flat, shape, strides)


class ClosedLoopOperator:
    """The closed-loop generator, its linear/nonlinear split and the energy
    inner product, on packed states (u, v, z1, z2): one vector (N,) or a
    block of them (R, N), one state per row. Each generator method returns
    the packed tangent.

    Built once per (system, config), with the linearizations of the config's
    blocks; it does not depend on a time step. It reads the system's band
    matrices and tip-mass factor, so every operation costs O(n). The linear
    part is the bare beam plus one rank-p term, G = G_beam + P L E_q^T (the
    placement P, slopes L and traces E_q^T = ``q_of`` of ``RemainderMap``);
    the nonlinear part is ``RemainderMap.value`` placed by the same P, and the
    full generator is their sum, so the split is exact by construction.
    On a block the laws and blocks are called once over all rows and the
    tip-mass solve takes the rows as right-hand sides. The band products of
    ``inner`` run a diagonal at a time for one vector as for a block, so
    ``inner`` and ``qnorm`` give a vector the same bits as its row in a block.
    """

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig):
        self.remainder = rem = RemainderMap(sys, config)
        self.n = n = sys.n_dof
        # displacement, velocity and block states of one state or of each row
        self._u, self._v, self._z = np.s_[..., :n], np.s_[..., n : 2 * n], np.s_[..., 2 * n :]
        # storage Hessians P1, P2 on the diagonal (scipy's block_diag costs 50 us)
        self.storage_gram = np.zeros((rem.size - 2 * n,) * 2)
        for b in rem.batches:
            start, dim = b.z.start - 2 * n, b.block.dim
            _entries(self.storage_gram, start, start, (b.count, dim, dim), [(dim, dim), (1, 0), (0, 1)])[...] = b.lin.P
        self.sys = sys
        self.gram_band = displacement_gram(
            sys, config.sd_rotational.spring_slope, config.sd_translational.spring_slope)

    def generator(self, flat: np.ndarray) -> np.ndarray:
        """Full nonlinear generator, on one packed vector or a block of them:
        the linear part plus the nonlinear part."""
        return self.linear(flat) + self.nonlinear(flat)

    def linear(self, flat: np.ndarray) -> np.ndarray:
        """Linearized generator G = G_beam + P L E_q^T, on one packed vector
        or a block of them: the stiff load, plus the slope loads L q(y) at the
        tip DOFs before the one tip-mass solve; the block rows are L q(y)."""
        rem = self.remainder
        loads = rem.q_of(flat) @ rem.slopes.T
        tip_loads = _band_mv(self.sys.stiffness_band, flat[self._u], -1.0)
        tip_loads[..., rem.q_indices[:2]] += loads[..., :2]  # at the tip DOFs
        out = np.empty_like(flat)
        out[self._u] = flat[self._v]
        out[self._v] = solve_mass_tip(self.sys, tip_loads.T).T
        out[self._z] = loads[..., 2:]
        return out

    def nonlinear(self, flat: np.ndarray) -> np.ndarray:
        """Remainder part of the generator, on one packed vector or a block of
        them; it is zero in the displacement rows."""
        return self.place(self.remainder.value(self.remainder.q_of(flat)))

    def place(self, loads: np.ndarray) -> np.ndarray:
        """The tangent P F of remainder loads F, one p-vector or a row each."""
        return np.vecdot(loads[..., None, :], self.remainder.placement)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
        """Energy inner product of packed vectors (a float), or of each pair
        of rows (an array): banded displacement Gram, tip mass, the
        block-diagonal storage Hessians P1, P2."""
        u, v, z = self._u, self._v, self._z
        val = _band_dot(self.gram_band, a[u], b[u]) + _band_dot(self.sys.mass_tip_band, a[v], b[v])
        return val + np.vecdot(a[z] @ self.storage_gram, b[z])

    def qnorm(self, flat: np.ndarray) -> float | np.ndarray:
        """Energy norm of a packed vector (a float), or of each row (an array)."""
        return np.sqrt(np.maximum(self.inner(flat, flat), 0.0))


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

    The same placement carries the linear feedback G_beam + P L E_q^T: the
    p x m ``slopes`` L are the feedback's origin slopes in q; a
    channel's tip-load row holds -k, -d and -C, its block rows B and A.

    ``value``, ``jacobian_analytic`` and the energy functions call each law
    and block callback once per batch (``_batches``): channels that share
    their law and block objects are evaluated in one call, so the README
    channels take one call per callback where distinct objects take two.
    """

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig):
        self.batches = _batches(sys, config)
        n = sys.n_dof
        self.size = total = self.batches[-1].z.stop
        self.m = m = total - 2 * n + 4
        self.p = total - 2 * n + 2
        # flat indices of q inside the packed state
        tips = np.hstack([b.tips for b in self.batches])
        self.q_indices = np.concatenate([tips, tips + n, np.arange(2 * n, total)]).astype(int)
        placement = np.zeros((total, self.p))
        placement[n : 2 * n, :2] = solve_mass_tip(sys, sys.tip_unit_columns())
        placement[2 * n :, 2:] = np.eye(self.p - 2)
        self.placement = placement
        self.slopes = np.zeros((self.p, m))
        for b, (spring, damper, output, gain, drift) in zip(self.batches, self._feedback_entries(self.slopes)):
            spring[...], damper[...] = -b.sd.spring_slope, -b.sd.damper_slope
            output[...], gain[...], drift[...] = -b.lin.C, b.lin.B, b.lin.A
        # the Jacobian is written into one buffer through fixed views of the
        # same entries; every other entry stays zero
        self._jacobian = np.zeros((self.p, m))
        self._jacobian_entries = self._feedback_entries(self._jacobian)

    def _feedback_entries(self, matrix: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Views, per batch, of the entries of a p x m ``matrix`` that the
        feedback of its g channels fills: in the tip-load rows the spring
        and damper entries (g,) and the block-state entries (g, dim), in the
        block rows the velocity entries (g, dim) and the block-state entries
        (g, dim, dim)."""
        views = []
        for b in self.batches:
            g, dim, c, zq, zf = b.count, b.block.dim, b.first, b.zq.start, b.zf.start
            views.append((
                _entries(matrix, c, c, (g,), [(1, 1)]),
                _entries(matrix, c, 2 + c, (g,), [(1, 1)]),
                _entries(matrix, c, zq, (g, dim), [(1, dim), (0, 1)]),
                _entries(matrix, zf, 2 + c, (g, dim), [(dim, 1), (1, 0)]),
                _entries(matrix, zf, zq, (g, dim, dim), [(dim, dim), (1, 0), (0, 1)]),
            ))
        return views

    def value(self, q: np.ndarray) -> np.ndarray:
        """F(q): remainder tip loads followed by remainder block drifts, at
        one q or at each row of a block of them. Each batch's callbacks take
        its traces (..., g) and block states (..., g, dim) of all rows in one
        call, so one q and a block take the same path, and a row gets the
        same bits in a block as alone."""
        f = np.empty(q.shape[:-1] + (self.p,))
        for b in self.batches:
            blk, sd, lin = b.block, b.sd, b.lin
            u_l, v_l, z = q[..., b.u], q[..., b.v], b.states(q, b.zq)
            f[..., b.u] = -(
                (blk.output(z) - np.vecdot(z, lin.C))
                + (sd.damper.eval(v_l) - sd.damper_slope * v_l)
                + (sd.spring.eval(u_l) - sd.spring_slope * u_l)
            )
            drift = blk.drift(z) - np.vecdot(z[..., None, :], lin.A)
            f[..., b.zf] = (drift + (blk.input_gain(z) - lin.B) * v_l[..., None]).reshape(q.shape[:-1] + (-1,))
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
        """Exact Jacobian of F at one q from the supplied law and block
        derivatives, one call of each per batch."""
        for b, (spring, damper, output, gain, drift) in zip(self.batches, self._jacobian_entries):
            blk, sd, lin = b.block, b.sd, b.lin
            u_l, v_l, z = q[b.u], q[b.v], b.states(q, b.zq)
            # tip load rows
            spring[...] = -(sd.spring.deriv(u_l) - sd.spring_slope)
            damper[...] = -(sd.damper.deriv(v_l) - sd.damper_slope)
            output[...] = -(blk.output_grad(z) - lin.C)
            # block rows
            gain[...] = blk.input_gain(z) - lin.B
            drift[...] = (blk.drift_jac(z) - lin.A) + v_l[..., None, None] * blk.input_jac(z)
        return self._jacobian.copy()

    def q_of(self, flat_state: np.ndarray) -> np.ndarray:
        return flat_state.take(self.q_indices, axis=-1)


#: unit vectors per call of ``ClosedLoopOperator.linear`` when a dense
#: generator is read off it; bounds the temporaries of one call
_BASIS_CHUNK = 256


def _generator_matrix(op: ClosedLoopOperator) -> np.ndarray:
    """Dense G with G @ y = op.linear(y): row k of its transpose is the
    operator at the k-th unit vector, filled a chunk of unit vectors at a time."""
    size = op.remainder.size
    g_t = np.empty((size, size))
    for start in range(0, size, _BASIS_CHUNK):
        stop = min(start + _BASIS_CHUNK, size)
        g_t[start:stop] = op.linear(np.eye(stop - start, size, start))
    return g_t.T


def linear_generator_matrix(sys: DiscreteSystem, config: ClosedLoopConfig) -> np.ndarray:
    """Dense matrix G with G @ y = ClosedLoopOperator.linear(y), read off
    the operator at the unit vectors."""
    return _generator_matrix(ClosedLoopOperator(sys, config))
