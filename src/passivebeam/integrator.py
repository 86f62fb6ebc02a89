"""Energy-consistent implicit midpoint stepping of the closed loop.

The midpoint rule conserves the quadratic energy of the undamped linear
subsystem exactly, so conservation and monotonicity checks measure model
structure rather than scheme drift. The linear part is solved exactly
through its banded Schur complement on the velocity (the displacement and
block states are eliminated), factored once per stepper. The nonlinearity
reaches the beam only through the tip traces and the block states, so
Newton runs on the few remainder loads alone, and a step costs O(n).
"""

from __future__ import annotations

import numbers
from dataclasses import astuple, dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .beam_model import ClosedLoopConfig
from .discretization import _BANDWIDTH, DiscreteSystem, _band_mv, interpolate
from .dynamics import (
    ENERGY_INCREASE_ETA,
    ClosedLoopOperator,
    EnergyBreakdown,
    StateVector,
    _as_given,
    _rows,
    eval_H,
    eval_Hdot,
    linear_generator_matrix,
    pack,
    unpack,
)
from .errors import (
    InsufficientResolution,
    LinearSolveFailure,
    NewtonDivergence,
    StepRejected,
)

#: smallest positive root of 1 + cos(x) cosh(x), first clamped-free beam mode
_BETA1_L = 1.8751040687119612

#: recorded states whose diagnostics ``simulate`` evaluates together; it
#: bounds the temporaries of one evaluation
RECORD_CHUNK = 256


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step midpoint settings; t_end must be a whole number of steps dt."""

    dt: float
    t_end: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    record_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.dt < self.t_end < np.inf):
            raise ValueError("t_end must be finite and larger than dt")
        steps = self.t_end / self.dt
        if not abs(steps - np.rint(steps)) <= 1e-9 * steps:
            raise ValueError(f"t_end = {self.t_end!r} is not a whole number of steps dt = {self.dt!r}")
        if not (0.0 < self.newton_tol < np.inf):
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol!r}")
        for name in ("newton_max_iter", "record_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class Trajectory:
    """Recorded run as arrays over the records: times, packed states (one
    row each), the energy breakdown (one column per ``EnergyBreakdown``
    field, total first), the closed-form rate and three energy norms.

    ``h_increase_max`` is the largest energy increase between consecutive
    recorded samples; ``h_flagged`` marks runs that exceeded the per-step
    budget ENERGY_INCREASE_ETA * H(y0). ``state_norms`` holds the energy norm
    of each recorded state and ``state_dims`` the sizes (beam DOFs, z1, z2)
    that split a packed row into a ``StateVector``; ``simulate`` fills both.
    """

    times: np.ndarray
    packed: np.ndarray
    energy: np.ndarray
    hdots: np.ndarray
    nonlinearity_norms: np.ndarray
    tangent_norms: np.ndarray
    h_increase_max: float = 0.0
    h_flagged: bool = False
    state_norms: np.ndarray | None = None
    state_dims: tuple[int, int, int] | None = None

    CSV_COLUMNS = EnergyBreakdown.CSV_COLUMNS + ("hdot", "nonlin_norm", "tangent_norm")

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.packed = np.asarray(self.packed, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        records = [self.times, self.packed, self.energy, self.hdots,
                   self.nonlinearity_norms, self.tangent_norms]
        if self.state_norms is not None:
            records.append(self.state_norms)
        if len({len(r) for r in records}) != 1:
            raise ValueError("trajectory records must have equal lengths")
        if self.energy.ndim != 2 or self.energy.shape[1] != len(EnergyBreakdown.CSV_COLUMNS) - 1:
            raise ValueError("trajectory energy must have one column per EnergyBreakdown field")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def states(self) -> list[StateVector]:
        """The recorded states, built from the packed rows on each access."""
        if self.state_dims is None:
            raise ValueError("trajectory has no state_dims to unpack its states")
        n, n1, _ = self.state_dims
        return [StateVector(*np.split(row, [n, 2 * n, 2 * n + n1])) for row in self.packed]

    @property
    def energies(self) -> list[EnergyBreakdown]:
        """The energy breakdown of each record, built on each access."""
        return [EnergyBreakdown(*row) for row in self.energy.tolist()]

    def totals(self) -> np.ndarray:
        return self.energy[:, 0].copy()

    def csv_table(self) -> np.ndarray:
        """The records in ``CSV_COLUMNS`` order, one row each."""
        return np.column_stack([self.times, self.energy, self.hdots,
                                self.nonlinearity_norms, self.tangent_norms])


class MidpointStepper:
    """Precomputed implicit-midpoint machinery for one (system, config, dt).

    ``step_flat(y, newton_tol, newton_max_iter)`` is the one step: it maps a
    packed state to the packed state dt later (dt may be negative). Build
    the stepper once and reuse it; ``simulate`` does.

    Holds the closed-loop operator of (system, config) and the exact solve
    S = (I - dt/2 G)^-1 for the linear generator G. I - dt/2 G is never
    formed: eliminating the displacement and the block states leaves one
    banded velocity matrix (the Schur complement), factored once, so a solve
    and an energy norm cost O(n).

    With the generator split G y + P F(q(y)) (placement P, remainder loads
    F of the p-vector q), a step is w = y + a + dt S P f: a = 2 (S y - y) is
    the Cayley step of the linear part, and the loads f solve
    f = F(q(y) + q(a)/2 + dt/2 q(S P) f). Newton runs on that p-dimensional
    system with the analytic remainder Jacobian (from the supplied law and
    block derivatives) at the current midpoint. The full-space residual of an
    iterate is exactly dt P (f - F(q_mid)); its energy norm comes from the
    p x p Gram ``load_gram`` = P^T Q P, so no stiff product enters the
    residual: its roundoff scales with the loads, not with the stiffness."""

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig, dt: float):
        self.dt = float(dt)
        self.operator = op = ClosedLoopOperator(sys, config)
        self.remainder = op.remainder
        n = op.n

        # Schur complement on the velocity, h = dt/2:
        # S = M_tip + h^2 K_q + h d_i + h^2 c_i (I - h A_i)^-1 b_i (tip diagonal)
        h = 0.5 * self.dt
        s_band = op.sys.mass_tip_band + h * h * op.gram_band
        self._blocks = []
        for ch in op.channels:
            lin = ch.lin
            try:
                resolvent = np.linalg.inv(np.eye(len(lin.B)) - h * lin.A)
            except np.linalg.LinAlgError as exc:
                raise LinearSolveFailure("block resolvent (I - dt/2 A) is singular") from exc
            # x_z = resolvent r_z + gain x_v[tip]; the tip load row sees h c x_z
            gain = h * (resolvent @ lin.B)
            s_band[_BANDWIDTH, ch.tip] += h * ch.sd.damper_slope + h * float(lin.C @ gain)
            self._blocks.append((ch.z, ch.tip, resolvent, gain, h * lin.C))
        kl = ku = _BANDWIDTH
        general = np.zeros((2 * kl + ku + 1, n))
        general[kl : kl + ku + 1] = s_band
        for k in range(1, kl + 1):
            general[kl + ku + k, : n - k] = s_band[ku - k, k:]
        self._schur_lu, self._schur_piv, info = scipy.linalg.lapack.dgbtrf(general, kl, ku)
        if info != 0:
            raise LinearSolveFailure("midpoint velocity system could not be factored")

        placement = self.remainder.placement
        self._kinv_e = np.column_stack([self.solve(col) for col in placement.T])
        self._sel_kinv_e = self._kinv_e[self.remainder.q_indices]
        # P^T Q P: e^T M_tip^-1 e for the tip loads, P1, P2 for the block rows
        self.load_gram = scipy.linalg.block_diag(placement[[n + ch.tip for ch in op.channels], :2], op.storage_gram)

    # -- flat-vector operations ---------------------------------------------
    def solve(self, r: np.ndarray) -> np.ndarray:
        """Exact solution x of (I - dt/2 G) x = r, G the linear generator.

        With h = dt/2, the Schur velocity system gives x_v; then
        x_u = r_u + h x_v and x_zi = (I - h A_i)^-1 (r_zi + h b_i x_v[tip_i]).
        """
        op = self.operator
        n = op.n
        h = 0.5 * self.dt
        out = np.empty(len(r))
        b = _band_mv(op.sys.mass_tip_band, r[n : 2 * n])
        b -= _band_mv(op.gram_band, r[:n], h)
        for z_slice, tip, resolvent, _, hc in self._blocks:
            out[z_slice] = resolvent @ r[z_slice]
            b[tip] -= float(hc @ out[z_slice])
        x_v, info = scipy.linalg.lapack.dgbtrs(
            self._schur_lu, _BANDWIDTH, _BANDWIDTH, b, self._schur_piv
        )
        if info != 0:
            raise LinearSolveFailure("midpoint velocity solve failed")
        out[:n] = r[:n] + h * x_v
        out[n : 2 * n] = x_v
        for z_slice, tip, _, gain, _ in self._blocks:
            out[z_slice] += gain * x_v[tip]
        return out

    def qnorm(self, flat: np.ndarray) -> float:
        """Energy norm of a packed state vector."""
        return self.operator.qnorm(flat)

    def rhs(self, flat: np.ndarray) -> np.ndarray:
        """Generator applied to a packed state."""
        return self.operator.generator(flat)

    def step_flat(self, y: np.ndarray, newton_tol: float, newton_max_iter: int) -> np.ndarray:
        """One implicit midpoint step from a packed state; raises
        NewtonDivergence when Newton stops short of newton_tol (1 + |y|_Q)."""
        tol = newton_tol * (1.0 + self.qnorm(y))
        rem, dt = self.remainder, self.dt
        a = 2.0 * (self.solve(y) - y)  # the Cayley step of the linear part
        q_linear = rem.q_of(y) + 0.5 * rem.q_of(a)
        f = np.zeros(rem.p)
        residual_norm, falling = np.inf, True
        for iteration in range(newton_max_iter):
            q_mid = q_linear + 0.5 * dt * (self._sel_kinv_e @ f)
            delta = f - rem.value(q_mid)
            # the full-space residual of the iterate is dt P delta
            previous = residual_norm
            residual_norm = abs(dt) * float(np.sqrt(max(delta @ self.load_gram @ delta, 0.0)))
            if not (np.isfinite(residual_norm) and np.isfinite(tol)):
                raise NewtonDivergence(
                    f"state is not finite (Newton residual {residual_norm} "
                    f"at iteration {iteration})",
                    residual=residual_norm,
                )
            if residual_norm <= tol:
                return y + a + dt * (self._kinv_e @ f)
            falling = residual_norm < previous
            newton = np.eye(rem.p) - 0.5 * dt * (rem.jacobian_analytic(q_mid) @ self._sel_kinv_e)
            try:
                f = f - np.linalg.solve(newton, delta)
            except np.linalg.LinAlgError as exc:
                raise LinearSolveFailure("Newton matrix of the remainder loads is singular") from exc
        raise NewtonDivergence(
            f"Newton did not reach tolerance {tol:.3e} in {newton_max_iter} iterations "
            f"(residual {residual_norm:.3e}, {'still falling' if falling else 'not falling'}); halve dt",
            residual=residual_norm,
        )

    def nonlinear_norm(self, flat: np.ndarray):
        """Energy norm of the nonlinear remainder at each row of packed states
        (a float for one state, a block of one row)."""
        return _as_given(flat, self.operator.qnorm(self.operator.nonlinear(np.atleast_2d(flat))))

    def generator_norm(self, flat: np.ndarray):
        """Energy norm of the generator applied to each row of packed states
        (a float for one state, a block of one row)."""
        return _as_given(flat, self.operator.qnorm(self.operator.generator(np.atleast_2d(flat))))


def simulate(
    y0: StateVector,
    settings: IntegratorSettings,
    sys: DiscreteSystem,
    config: ClosedLoopConfig,
    raise_on_energy_increase: bool = False,
) -> Trajectory:
    """Advance to t_end, recording every ``record_every`` steps plus the end.

    Records energy breakdowns, the closed-form energy rate, and the energy
    norms of the nonlinear remainder, of the full tangent and of the state.
    The recorded states are stored and their diagnostics evaluated
    RECORD_CHUNK at a time. Runs whose recorded energy increases by more
    than ENERGY_INCREASE_ETA * H(y0) between samples are flagged, or
    rejected at the first such record when asked to raise; a step that fails
    after such a record raises that rejection instead of its own error.
    """
    stepper = MidpointStepper(sys, config, settings.dt)
    n_steps, every = settings.n_steps, settings.record_every
    record_steps = np.arange(0, n_steps + 1, every)
    if record_steps[-1] != n_steps:
        record_steps = np.append(record_steps, n_steps)
    times = record_steps * settings.dt
    flat = pack(y0)
    packed = np.empty((len(times), _rows(flat, sys, config).shape[1]))
    energy = np.empty((len(times), len(EnergyBreakdown.CSV_COLUMNS) - 1))
    hdots, nl_norms, tan_norms, state_norms = np.empty((4, len(times)))
    count = evaluated = 0  # records stored, records evaluated
    h_increase_max, flagged = 0.0, False

    def evaluate():
        """Diagnostics and energy check of the stored records not yet evaluated."""
        nonlocal evaluated, h_increase_max, flagged
        if evaluated == count:
            return
        lo, rows = evaluated, packed[evaluated:count]
        energy[lo:count] = np.column_stack(astuple(eval_H(rows, sys, config)))
        hdots[lo:count] = eval_Hdot(rows, sys, config)
        nl_norms[lo:count] = stepper.nonlinear_norm(rows)
        tan_norms[lo:count] = stepper.generator_norm(rows)
        state_norms[lo:count] = stepper.operator.qnorm(rows)
        evaluated = count
        # the increase into each record from the one before it
        first = max(lo, 1)
        increases = energy[first:count, 0] - energy[first - 1 : count - 1, 0]
        if not len(increases):
            return
        h_increase_max = max(h_increase_max, np.fmax.reduce(increases))
        budget = ENERGY_INCREASE_ETA * energy[0, 0]
        over = np.flatnonzero(increases > budget)
        if len(over):
            flagged = True
            if raise_on_energy_increase:
                t, increase = float(times[first + over[0]]), float(increases[over[0]])
                raise StepRejected(
                    f"energy increased by {increase:.3e} at t={t:.6g} (budget {budget:.3e})",
                    time=t,
                    increase=increase,
                )

    def store(y):
        nonlocal count
        packed[count] = y
        count += 1
        if count - evaluated == RECORD_CHUNK:
            evaluate()

    store(flat)
    for k in range(1, n_steps + 1):
        t = k * settings.dt
        try:
            flat = stepper.step_flat(flat, settings.newton_tol, settings.newton_max_iter)
        except NewtonDivergence as exc:
            evaluate()
            raise NewtonDivergence(
                f"step to t={t:.6g} failed: {exc}", residual=exc.residual, time=t
            ) from exc
        except LinearSolveFailure as exc:
            evaluate()
            raise LinearSolveFailure(f"step to t={t:.6g} failed: {exc}", time=t) from exc
        if k == record_steps[count]:
            store(flat)
    evaluate()

    return Trajectory(
        times=times,
        packed=packed,
        energy=energy,
        hdots=hdots,
        nonlinearity_norms=nl_norms,
        tangent_norms=tan_norms,
        h_increase_max=float(h_increase_max),
        h_flagged=flagged,
        state_norms=state_norms,
        state_dims=(sys.n_dof, config.block_rotational.dim, config.block_translational.dim),
    )


def tangent_residual(traj: Trajectory, sys: DiscreteSystem, config: ClosedLoopConfig) -> float:
    """Consistency defect of the time-differentiated system along a run.

    Along the recorded trajectory, w = (generator applied to y) must satisfy
    the tangent equation dw/dt = (linear part) w + (remainder Jacobian at y) w,
    with the Jacobian built from the supplied law and block derivatives.
    Returns the largest energy-norm defect of the centered time difference,
    relative to the peak energy norm of w; 0 for an identically zero run.
    """
    if len(traj.times) < 3:
        raise InsufficientResolution("need at least 3 recorded states (record_every = 1)")
    op = ClosedLoopOperator(sys, config)
    remainder = op.remainder
    ws = op.generator(traj.packed)
    max_w = float(op.qnorm(ws).max())
    linear = op.linear(ws[1:-1])
    max_residual = 0.0
    for i in range(1, len(ws) - 1):
        wdot = (ws[i + 1] - ws[i - 1]) / (traj.times[i + 1] - traj.times[i - 1])
        jac = remainder.jacobian_analytic(remainder.q_of(traj.packed[i]))
        nonlinear = remainder.placement @ (jac @ remainder.q_of(ws[i]))
        max_residual = max(max_residual, op.qnorm(wdot - linear[i - 1] - nonlinear))

    if max_w == 0.0:
        return 0.0
    return max_residual / max_w


def smooth_initial_state(
    sys: DiscreteSystem, config: ClosedLoopConfig, tip_fraction: float = 0.1
) -> StateVector:
    """Discretely classical initial data for tangent and bound diagnostics.

    Real part of the slowest oscillatory eigenvector of the assembled linear
    generator, scaled to the requested tip deflection. Unlike the analytic
    mode interpolant, this excites no unresolved stiff discrete modes, which
    is the discrete counterpart of twice-differentiable-compatible data.
    """
    g = linear_generator_matrix(sys, config)
    try:
        eigvals, eigvecs = scipy.linalg.eig(g)
    except scipy.linalg.LinAlgError as exc:
        raise LinearSolveFailure("eigendecomposition of the linear generator failed") from exc
    oscillatory = np.abs(eigvals.imag) > 1e-8
    if not np.any(oscillatory):
        raise LinearSolveFailure("linear generator has no oscillatory modes")
    candidates = np.nonzero(oscillatory)[0]
    idx = candidates[np.argmin(np.abs(eigvals.imag[candidates]))]
    vec = eigvecs[:, idx].real.copy()
    state = unpack(vec, sys, config)
    tip = state.u_dofs[sys.tip_value_index]
    if tip == 0.0:
        raise LinearSolveFailure("slowest mode has zero tip deflection; cannot scale")
    scale = tip_fraction * sys.beam.length / tip
    return StateVector(
        u_dofs=state.u_dofs * scale,
        v_dofs=state.v_dofs * scale,
        z1=state.z1 * scale,
        z2=state.z2 * scale,
    )


def first_mode_initial_state(
    sys: DiscreteSystem, config: ClosedLoopConfig, tip_fraction: float = 0.1
) -> StateVector:
    """Interpolant of the first clamped-free mode, scaled to a tip deflection
    of ``tip_fraction`` times the beam length; zero velocity and block states.
    """
    length = sys.beam.length
    beta = _BETA1_L / length
    bl = _BETA1_L
    sigma = (np.cosh(bl) + np.cos(bl)) / (np.sinh(bl) + np.sin(bl))

    def shape(x):
        bx = beta * x
        return np.cosh(bx) - np.cos(bx) - sigma * (np.sinh(bx) - np.sin(bx))

    def slope(x):
        bx = beta * x
        return beta * (np.sinh(bx) + np.sin(bx) - sigma * (np.cosh(bx) - np.cos(bx)))

    scale = tip_fraction * length / shape(length)
    u = interpolate(sys, lambda x: scale * shape(x), lambda x: scale * slope(x))
    return StateVector(
        u_dofs=u,
        v_dofs=np.zeros(sys.n_dof),
        z1=np.zeros(config.block_rotational.dim),
        z2=np.zeros(config.block_translational.dim),
    )
