"""Energy-consistent implicit midpoint stepping of the closed loop.

The midpoint rule conserves the quadratic energy of the undamped linear
subsystem exactly, so conservation and monotonicity checks measure model
structure rather than scheme drift. The linear part is solved exactly: the
bare beam through one banded Cholesky factor of its velocity matrix per
stepper, the rank-p feedback term by Woodbury. The nonlinearity
reaches the beam only through the tip traces and the block states, so
Newton runs on the few remainder loads alone, and a step costs O(n).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass

import numpy as np
import scipy.linalg.lapack

from .analysis import SecularFunction
from .beam_model import ClosedLoopConfig
from .discretization import DiscreteSystem, _band_mv, interpolate
from .dynamics import (
    ENERGY_INCREASE_ETA,
    ClosedLoopOperator,
    EnergyBreakdown,
    eval_H,
    eval_Hdot,
    zero_state,
)
from .errors import (
    DimensionMismatch,
    InsufficientResolution,
    LinearSolveFailure,
    NewtonDivergence,
    NonFiniteResult,
    StepRejected,
)

#: smallest positive root of 1 + cos(x) cosh(x), first clamped-free beam mode
_BETA1_L = 1.8751040687119612

#: recorded states whose diagnostics ``simulate`` evaluates together; it
#: bounds the temporaries of one evaluation
RECORD_CHUNK = 256

#: weights of the kept loads F_k, F_k-1, F_k-2 (newest first) by how many are
#: kept: the polynomial through them, of degree 0, 1 or 2, at the next step
_EXTRAPOLATION = {1: (1.0,), 2: (2.0, -1.0), 3: (3.0, -3.0, 1.0)}


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
    field, total first), the closed-form rate and the energy norms of the
    nonlinear remainder, of the generator and of the state.

    ``h_increase_max`` is the largest energy increase between consecutive
    recorded samples; ``h_flagged`` marks runs that exceeded the per-step
    budget ENERGY_INCREASE_ETA * H(y0). ``residual_evaluations``,
    ``newton_corrections`` and ``jacobian_refreshes`` are the stepper's
    counts of its work (``MidpointStepper``).
    """

    times: np.ndarray
    packed: np.ndarray
    energy: np.ndarray
    hdots: np.ndarray
    nonlinearity_norms: np.ndarray
    tangent_norms: np.ndarray
    state_norms: np.ndarray
    h_increase_max: float = 0.0
    h_flagged: bool = False
    residual_evaluations: int = 0
    newton_corrections: int = 0
    jacobian_refreshes: int = 0

    CSV_COLUMNS = EnergyBreakdown.CSV_COLUMNS + ("hdot", "nonlin_norm", "tangent_norm")

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.packed = np.asarray(self.packed, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        records = (self.times, self.packed, self.energy, self.hdots,
                   self.nonlinearity_norms, self.tangent_norms, self.state_norms)
        if len({len(r) for r in records}) != 1:
            raise ValueError("trajectory records must have equal lengths")
        if self.energy.ndim != 2 or self.energy.shape[1] != len(EnergyBreakdown.CSV_COLUMNS) - 1:
            raise ValueError("trajectory energy must have one column per EnergyBreakdown field")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    def totals(self) -> np.ndarray:
        return self.energy[:, 0].copy()

    def csv_table(self) -> np.ndarray:
        """The records in ``CSV_COLUMNS`` order, one row each."""
        return np.column_stack([self.times, self.energy, self.hdots,
                                self.nonlinearity_norms, self.tangent_norms])


class MidpointStepper:
    """Precomputed implicit-midpoint machinery for one (system, config, dt).

    ``step_flat(y, newton_tol, newton_max_iter)`` is the one step: it maps a
    packed state to the packed state dt later (dt finite, maybe negative).
    Build the stepper once and reuse it; ``simulate`` does.

    The solve S = (I - dt/2 G)^-1 for the linear generator G = G_beam + P L
    E_q^T is exact and O(n): the bare beam's B = I - dt/2 G_beam reduces to
    one banded SPD velocity matrix, factored once, and the rank-p feedback
    term is inverted by Woodbury through S P.

    With the generator split G y + P F(q(y)) (placement P, remainder loads
    F of the p-vector q), h = dt/2, x = B^-1 y and g = L q(x), a step is
    w = 2 x - y + dt S P (g + f), where f = F(q_mid) at q_mid = q(x) +
    h q(S P) (g + f). One pass builds x from the band products M_tip v and
    K u, which also give |y|_Q for the tolerance. Newton runs on f with the
    analytic remainder Jacobian. An iterate's full-space residual is exactly
    dt P (f - F(q_mid)), measured through the p x p Gram ``load_gram`` =
    P^T Q P, so its roundoff scales with the loads, not with the stiffness.

    Newton is simplified. The stepper keeps the array it last returned,
    F(q_mid) of up to three chained accepted steps (computed by their
    acceptance checks) and the LU factor (dgetrf) of the Newton matrix
    I - h J q(S P). A step from that very array starts from the kept values
    extrapolated by ``_EXTRAPOLATION`` and corrects first with the kept
    factor, evaluating and factoring J again only when that leaves the
    residual above tol; any other state starts fresh: zero loads, no factor
    and no kept values. Any iterate within tol is accepted, the first
    included, so a steady step makes one remainder evaluation and no
    Jacobian. ``evaluations``, ``corrections`` and ``jacobian_refreshes``
    count the stepper's work. ``generator_norm`` of a record chunk returns
    the remainder loads F it evaluates, and ``nonlinear_norm`` takes |P F|_Q
    from them through ``load_gram``, with no band product."""

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig, dt: float):
        self.dt = float(dt)
        if not np.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {dt!r}")
        self.operator = op = ClosedLoopOperator(sys, config)
        self.remainder = rem = op.remainder
        # B = I - h G_beam, h = dt/2, leaves M_tip + h^2 K: SPD for every real dt
        h = 0.5 * self.dt
        self._velocity_factor, info = scipy.linalg.lapack.dpbtrf(sys.mass_tip_band + h * h * sys.stiffness_band)
        if info != 0:
            raise LinearSolveFailure("midpoint velocity matrix could not be factored")
        # Woodbury for I - h G = B - h P L E_q^T: U = B^-1 P, capacitance (I - h L U_q)^-1
        beam_placement = np.column_stack([self._beam_solve(col)[0] for col in rem.placement.T])
        try:
            capacitance = np.linalg.inv(np.eye(rem.p) - h * (rem.slopes @ beam_placement[rem.q_indices]))
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure("midpoint capacitance matrix (I - dt/2 L U_q) is singular") from exc
        # S P = U (I - h L U_q)^-1
        self._kinv_e = beam_placement @ capacitance
        self._sel_kinv_e = self._kinv_e[rem.q_indices]
        # P^T Q P: e^T M_tip^-1 e for the tip loads, P1, P2 for the block rows
        self.load_gram = np.zeros((rem.p, rem.p))
        self.load_gram[:2, :2] = rem.placement[rem.q_indices[2:4], :2]
        self.load_gram[2:, 2:] = op.storage_gram
        # the displacement block of Q is K plus the tip springs at u'(L), u(L)
        self._tip_springs = np.array([config.sd_rotational.spring_slope, config.sd_translational.spring_slope])
        # the last result, F(q_mid) of the chained steps up to it (newest
        # first) and the LU factor of the Newton matrix
        self._last, self._factor, self._history = None, None, ()
        self.evaluations = self.corrections = self.jacobian_refreshes = 0

    def _beam_solve(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """B^-1 r for the bare beam's midpoint matrix B = I - dt/2 G_beam,
        with the band products M_tip r_v and K r_u it is built from: x_v from
        the velocity factor, x_u = r_u + h x_v, x_z = r_z."""
        n, h, sys = self.operator.n, 0.5 * self.dt, self.operator.sys
        mv, ku = _band_mv(sys.mass_tip_band, r[n : 2 * n]), _band_mv(sys.stiffness_band, r[:n])
        out = r.copy()
        out[n : 2 * n] = x_v = scipy.linalg.lapack.dpbtrs(self._velocity_factor, mv - h * ku)[0]
        out[:n] += h * x_v
        return out, mv, ku

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Exact solution x of (I - dt/2 G) x = r, G the linear generator, by
        Woodbury: x = B^-1 r + S P (dt/2) L q(B^-1 r)."""
        x, rem = self._beam_solve(r)[0], self.remainder
        return x + self._kinv_e @ (0.5 * self.dt * (rem.slopes @ rem.q_of(x)))

    def qnorm(self, flat: np.ndarray) -> float:
        """Energy norm of a packed state vector."""
        return self.operator.qnorm(flat)

    def rhs(self, flat: np.ndarray) -> np.ndarray:
        """Generator applied to a packed state."""
        return self.operator.generator(flat)

    def step_flat(self, y: np.ndarray, newton_tol: float, newton_max_iter: int) -> np.ndarray:
        """One implicit midpoint step from a packed state; raises
        NewtonDivergence when Newton stops short of newton_tol (1 + |y|_Q).
        The start is extrapolated only when y is the array the last accepted
        step returned, so a continued run depends on the previous calls,
        within the tolerance. A step that raises keeps the last accepted one."""
        rem, dt, n = self.remainder, self.dt, self.operator.n
        x, mv, ku = self._beam_solve(y)
        # |y|_Q^2 = u.K u + k1 u'(L)^2 + k2 u(L)^2 + v.M_tip v + z.P z
        norm2 = y[:n] @ ku + self._tip_springs @ y[rem.q_indices[:2]] ** 2 + y[n : 2 * n] @ mv
        norm2 += y[2 * n :] @ self.operator.storage_gram @ y[2 * n :]
        tol = newton_tol * (1.0 + math.sqrt(max(norm2, 0.0)))
        q_x = rem.q_of(x)
        g = rem.slopes @ q_x
        history, factor = (self._history, self._factor) if y is self._last else ((), None)
        f = np.dot(_EXTRAPOLATION[len(history)], history) if history else np.zeros(rem.p)
        residual_norm, falling = math.inf, True
        for iteration in range(newton_max_iter):
            q_mid = q_x + 0.5 * dt * (self._sel_kinv_e @ (g + f))
            value = rem.value(q_mid)
            self.evaluations += 1
            delta = f - value
            # the full-space residual of the iterate is dt P delta
            previous = residual_norm
            residual_norm = abs(dt) * math.sqrt(max(delta @ self.load_gram @ delta, 0.0))
            if not (math.isfinite(residual_norm) and math.isfinite(tol)):
                raise NewtonDivergence(
                    f"state is not finite (Newton residual {residual_norm} "
                    f"at iteration {iteration})",
                    residual=residual_norm,
                )
            if residual_norm <= tol:
                self._last = 2.0 * x - y + dt * (self._kinv_e @ (g + f))
                self._history, self._factor = (value,) + history[:2], factor
                return self._last
            falling = residual_norm < previous
            if iteration or factor is None:
                self.jacobian_refreshes += 1
                newton = np.eye(rem.p) - 0.5 * dt * (rem.jacobian_analytic(q_mid) @ self._sel_kinv_e)
                *factor, info = scipy.linalg.lapack.dgetrf(newton)
                if info != 0:
                    raise LinearSolveFailure("Newton matrix of the remainder loads is singular")
            self.corrections += 1
            f = f - scipy.linalg.lapack.dgetrs(*factor, delta)[0]
        raise NewtonDivergence(
            f"Newton did not reach tolerance {tol:.3e} in {newton_max_iter} iterations "
            f"(residual {residual_norm:.3e}, {'still falling' if falling else 'not falling'}); halve dt",
            residual=residual_norm,
        )

    def generator_norm(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Energy norms of the generator at rows of packed states, and the remainder loads F of the rows."""
        loads = self.remainder.value(self.remainder.q_of(rows))
        return self.operator.qnorm(self.operator.linear(rows) + self.operator.place(loads)), loads

    def nonlinear_norm(self, loads: np.ndarray) -> np.ndarray:
        """Energy norm |P F|_Q = (F^T ``load_gram`` F)^1/2 of the remainder
        tangent, at each row of remainder loads F: O(p^2) per row."""
        return np.sqrt(np.maximum(np.vecdot(np.vecdot(loads[..., None, :], self.load_gram), loads), 0.0))


def simulate(
    y0: np.ndarray,
    settings: IntegratorSettings,
    sys: DiscreteSystem,
    config: ClosedLoopConfig,
    raise_on_energy_increase: bool = False,
) -> Trajectory:
    """Advance the packed state ``y0`` (u, v, z1, z2) to t_end, recording
    every ``record_every`` steps plus the end; the last record's time is
    ``settings.t_end`` itself.

    Raises DimensionMismatch, before any step, when ``y0`` is not one packed
    state of (sys, config). Records energy breakdowns, the closed-form
    energy rate, and the energy norms of the nonlinear remainder, of the
    full tangent and of the state. The recorded states are stored and their
    diagnostics evaluated RECORD_CHUNK at a time. Runs whose recorded energy
    increases by more than ENERGY_INCREASE_ETA * H(y0) between samples are
    flagged, or rejected at the first such record when asked to raise; a
    step that fails after such a record raises that rejection instead of its
    own error. Raises NonFiniteResult, after the last step, when a recorded
    state, energy, rate or norm is not finite.
    """
    stepper = MidpointStepper(sys, config, settings.dt)
    n_steps, every = settings.n_steps, settings.record_every
    record_steps = np.arange(0, n_steps + 1, every)
    if record_steps[-1] != n_steps:
        record_steps = np.append(record_steps, n_steps)
    times = record_steps * settings.dt
    times[-1] = settings.t_end  # n_steps * dt can miss it by roundoff: 3 * 0.1
    flat = np.asarray(y0, dtype=float)
    width = zero_state(sys, config).size
    if flat.shape != (width,):
        raise DimensionMismatch(
            f"y0 has shape {flat.shape}; simulate takes one packed state of {width} entries")
    packed = np.empty((len(times), width))
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
        tan_norms[lo:count], loads = stepper.generator_norm(rows)
        nl_norms[lo:count] = stepper.nonlinear_norm(loads)
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

    # overflow ends a step as a non-finite NewtonDivergence, and the records
    # are checked once the run is recorded
    with np.errstate(over="ignore", invalid="ignore"):
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
    for name, values in (("state", packed), ("energy", energy), ("energy rate", hdots),
                         ("remainder norm", nl_norms), ("tangent norm", tan_norms), ("state norm", state_norms)):
        finite = np.isfinite(values.reshape(len(times), -1)).all(axis=1)
        if not finite.all():
            raise NonFiniteResult(f"recorded {name} is not finite (first at t={times[np.argmin(finite)]:.6g})")

    return Trajectory(
        times=times,
        packed=packed,
        energy=energy,
        hdots=hdots,
        nonlinearity_norms=nl_norms,
        tangent_norms=tan_norms,
        state_norms=state_norms,
        h_increase_max=float(h_increase_max),
        h_flagged=flagged,
        residual_evaluations=stepper.evaluations,
        newton_corrections=stepper.corrections,
        jacobian_refreshes=stepper.jacobian_refreshes,
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
) -> np.ndarray:
    """Discretely classical initial data for tangent and bound diagnostics.

    Real part of the slowest oscillatory eigenvector of the linear generator
    (the root of least |Im| above 1e-8 of ``analysis.SecularFunction``, modes
    accurate at the slow end) in the phase that makes its tip deflection
    real, scaled to the requested tip deflection. (A conservative mode's
    velocity is i omega times its displacement, so a phase fixed on another
    component can leave the displacement imaginary and its real part
    roundoff.) Unlike the analytic mode interpolant, this excites no
    unresolved stiff discrete modes: the discrete counterpart of
    twice-differentiable-compatible data."""
    secular = SecularFunction(sys, config, slow_end=True)
    roots = secular.roots()[0]
    oscillatory = roots[np.abs(roots.imag) > 1e-8]
    if not len(oscillatory):
        raise LinearSolveFailure("linear generator has no oscillatory modes")
    vec = secular.eigenvector(oscillatory[np.argmin(np.abs(oscillatory.imag))])
    vec = (vec * np.conj(vec[sys.tip_value_index])).real  # the displacement DOFs lead the packed state
    tip = vec[sys.tip_value_index]
    if tip == 0.0:
        raise LinearSolveFailure("slowest mode has zero tip deflection; cannot scale")
    return vec * (tip_fraction * sys.beam.length / tip)


def first_mode_initial_state(
    sys: DiscreteSystem, config: ClosedLoopConfig, tip_fraction: float = 0.1
) -> np.ndarray:
    """Packed state whose displacement is the interpolant of the first
    clamped-free mode, scaled to a tip deflection of ``tip_fraction`` times
    the beam length; zero velocity and block states.
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
    y0 = zero_state(sys, config)
    y0[: sys.n_dof] = interpolate(sys, lambda x: scale * shape(x), lambda x: scale * slope(x))
    return y0
