"""Domain types for the beam, the tip feedback laws, and their linearizations.

Laws and blocks carry their own derivatives; construction validates those
derivatives against centered differences instead of recomputing them in hot
paths. Built-in laws and blocks live in a small registry so configurations can
address them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import QuadratureFailure, SingularHessian

_DERIV_RTOL = 1e-6
_DERIV_STEP = 1e-6


def _per_point_values(f: Callable, points, shape: tuple = ()) -> np.ndarray:
    """``f`` called once per point along the leading axis of ``points``, as a
    ``(P,) + shape`` array."""
    return np.array([f(p) for p in points], dtype=float).reshape((len(points),) + shape)


def _per_point(f: Callable, point_ndim: int, shape: tuple) -> Callable:
    """Stand-in for a callback that does not batch: one point (``point_ndim``
    axes) goes to ``f`` as it is, a batch of them one point per call."""
    def stand_in(x):
        if np.ndim(x) == point_ndim:
            # a 0-d array goes as a scalar, as each point of a batch does
            return f(x[()] if isinstance(x, np.ndarray) and x.ndim == 0 else x)
        x = np.asarray(x, dtype=float)
        lead, point = x.shape[: x.ndim - point_ndim], x.shape[x.ndim - point_ndim :]
        return _per_point_values(f, x.reshape((-1,) + point), shape).reshape(lead + shape)
    return stand_in


def _settle_callback(owner, name: str, points: np.ndarray, per_point: np.ndarray, point_ndim: int):
    """Keep callback ``name`` of ``owner`` when one call on all ``points``,
    under one more leading axis, agrees with their ``per_point`` values to
    rtol 1e-13 (a law's result must have exactly their shape, a block's must
    broadcast to it); otherwise replace it by a per-point stand-in."""
    f = getattr(owner, name)
    expected = per_point[None]
    try:
        batched = np.asarray(f(points[None]), dtype=float)
        if batched.shape != expected.shape and point_ndim:
            batched = np.broadcast_to(batched, expected.shape)
        if batched.shape == expected.shape and np.all(np.abs(batched - expected) <= 1e-13 * np.abs(expected)):
            return
    except Exception:  # whatever a callback raises on a batch, evaluate it per point
        pass
    object.__setattr__(owner, name, _per_point(f, point_ndim, per_point.shape[1:]))


@dataclass(frozen=True)
class BeamParams:
    """Physical constants of the beam and its tip payload.

    rho: mass per unit length, lambda_rigidity: flexural rigidity,
    length: beam length, tip_inertia: mass moment of inertia of the payload,
    tip_mass: payload mass. All strictly positive.
    """

    rho: float
    lambda_rigidity: float
    length: float
    tip_inertia: float
    tip_mass: float

    def __post_init__(self):
        for name in ("rho", "lambda_rigidity", "length", "tip_inertia", "tip_mass"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValueError(f"BeamParams.{name} must be > 0, got {value!r}")


def _simpson(y: np.ndarray, h):
    """Composite Simpson rule along the last axis of samples ``y`` taken at
    spacing ``h`` over an even number of intervals."""
    return h / 3.0 * (y[..., 0] + y[..., -1] + 4.0 * y[..., 1:-1:2].sum(axis=-1)
                      + 2.0 * y[..., 2:-1:2].sum(axis=-1))


def _simpson_integral(f: Callable, uppers: np.ndarray, intervals: int) -> np.ndarray:
    """Composite Simpson integral of ``f`` from 0 to each of ``uppers`` over
    ``intervals`` intervals, with one call of ``f`` on all the nodes."""
    nodes = np.linspace(0.0, uppers, intervals + 1, axis=-1)
    return _simpson(np.reshape(f(nodes.ravel()), nodes.shape), uppers / intervals)


#: points integrated together by the adaptive potential (bounds its node grid)
_ADAPTIVE_CHUNK = 64


def _adaptive_potential(f: Callable) -> Callable:
    """The integral of ``f`` from 0 to s, elementwise over any array of s.

    Per point, composite Simpson from 16 intervals, doubled with Richardson
    extrapolation until the update drops to 1e-12, at most 10 times (16 *
    2**10 intervals); raises QuadratureFailure at the first point whose
    update is still above that. Points go in chunks of ``_ADAPTIVE_CHUNK``,
    one call of ``f`` per chunk and doubling; a point's value does not depend
    on the other points of its chunk.
    """
    def potential(s):
        uppers = np.asarray(s, dtype=float)
        flat = uppers.ravel()
        values = np.zeros(len(flat))  # s = 0 integrates to 0 without a call
        for start in range(0, len(flat), _ADAPTIVE_CHUNK):
            active = start + np.flatnonzero(flat[start : start + _ADAPTIVE_CHUNK])
            if not len(active):
                continue
            intervals, coarse = 16, _simpson_integral(f, flat[active], 16)
            while len(active) and intervals < 16 * 2**10:
                intervals *= 2
                fine = _simpson_integral(f, flat[active], intervals)
                update = (fine - coarse) / 15.0
                done = np.abs(update) <= 1e-12
                values[active[done]] = fine[done] + update[done]
                active, coarse, update = active[~done], fine[~done], update[~done]
            if len(active):
                raise QuadratureFailure(
                    f"potential at s={flat[active[0]].item()!r} did not converge in {intervals} Simpson "
                    f"intervals: last update {abs(update[0]):.3e} > tol 1.000e-12"
                )
        return values.reshape(uppers.shape)

    return potential


#: Simpson intervals of the reference integral that a supplied potential is
#: checked against, to the relative tolerance of the derivative check
_POTENTIAL_CHECK_INTERVALS = 256

#: sample grid of the law checks, its centered-difference points and the
#: Simpson nodes of the reference potentials
_LAW_GRID = np.array((-1.0, -0.3, 0.0, 0.2, 0.7))
_LAW_STEPS = _DERIV_STEP * (1.0 + np.abs(_LAW_GRID))
_LAW_SHIFTED = np.concatenate([_LAW_GRID + _LAW_STEPS, _LAW_GRID - _LAW_STEPS])
_POTENTIAL_NODES = np.linspace(0.0, _LAW_GRID, _POTENTIAL_CHECK_INTERVALS + 1, axis=-1)


def _require_close(what: str, var: str, points, supplied, approx):
    """Raise ValueError at the first of ``points`` where ``supplied`` misses
    ``approx`` by more than the derivative check's tolerance."""
    miss = np.abs(supplied - approx) > _DERIV_RTOL * (1.0 + np.abs(supplied))
    bad = np.flatnonzero(miss.reshape(len(points), -1).any(axis=1))
    if len(bad):
        raise ValueError(f"{what} at {var}={points[bad[0]]}: {supplied[bad[0]]} vs {approx[bad[0]]}")


@dataclass(frozen=True)
class ScalarLaw:
    """A scalar map with its derivative and its antiderivative.

    ``eval``, ``deriv`` and ``potential`` must be pure and take a number.
    ``deriv`` is validated against a centered difference of ``eval`` on a
    small sample grid at construction. ``potential``, the integral of
    ``eval`` from 0 to s, must vanish at 0 exactly and is validated against a
    fine Simpson rule of ``eval`` on the same grid. When none is supplied,
    construction installs the adaptive Simpson rule of ``eval``
    (``_adaptive_potential``), so ``potential`` is never None and the energy
    and the certificate integrate a spring the same way. Callers evaluate a
    callback elementwise on an array of any shape in one call; construction
    checks that once on the grid under a leading axis (the input's shape,
    rtol 1e-13) and runs a callback that fails it per point. The registry
    laws are elementwise.
    """

    eval: Callable
    deriv: Callable
    potential: Callable | None = None

    def __post_init__(self):
        grid, half = _LAW_GRID, len(_LAW_GRID)
        values = _per_point_values(self.eval, _LAW_SHIFTED.tolist())
        derivs = _per_point_values(self.deriv, grid.tolist())
        centered = (values[:half] - values[half:]) / (2.0 * _LAW_STEPS)
        _require_close("ScalarLaw.deriv disagrees with centered difference", "s", grid, derivs, centered)
        _settle_callback(self, "eval", _LAW_SHIFTED, values, 0)
        _settle_callback(self, "deriv", grid, derivs, 0)
        if self.potential is None:
            object.__setattr__(self, "potential", _adaptive_potential(self.eval))
            return
        if float(self.potential(0.0)) != 0.0:
            raise ValueError("ScalarLaw requires potential(0) = 0 exactly")
        potentials = _per_point_values(self.potential, grid.tolist())
        nodes = _POTENTIAL_NODES
        reference = _simpson(np.reshape(self.eval(nodes.ravel()), nodes.shape), grid / _POTENTIAL_CHECK_INTERVALS)
        _require_close("ScalarLaw.potential disagrees with the Simpson integral of eval", "s", grid, potentials,
                       reference)
        _settle_callback(self, "potential", grid, potentials, 0)


@dataclass(frozen=True)
class SpringDamperLaw:
    """Damper/spring pair acting on one tip degree of freedom.

    The slopes at the origin define the linearization; the remainders
    d(s) - D*s and k(s) - K*s must vanish to second order, which is checked
    on a shrinking sample at construction.
    """

    damper: ScalarLaw
    spring: ScalarLaw
    damper_slope: float = field(init=False)
    spring_slope: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "damper_slope", float(self.damper.deriv(0.0)))
        object.__setattr__(self, "spring_slope", float(self.spring.deriv(0.0)))
        self._check_quadratic_remainder(self.damper, self.damper_slope, "damper")
        self._check_quadratic_remainder(self.spring, self.spring_slope, "spring")

    @staticmethod
    def _check_quadratic_remainder(law: ScalarLaw, slope: float, name: str):
        samples = [0.1, 0.01, 1e-3, 1e-4]
        ratios = []
        for s in samples:
            for sgn in (1.0, -1.0):
                x = sgn * s
                ratios.append(abs(float(law.eval(x)) - slope * x) / x**2)
        # remainder / s^2 must stay bounded as s shrinks
        ceiling = 4.0 * max(ratios[0], ratios[1]) + 1.0
        worst = max(ratios)
        if worst > ceiling:
            raise ValueError(
                f"{name} law remainder is not O(s^2) near 0: "
                f"|f(s) - f'(0) s| / s^2 grows to {worst:.3g}"
            )


@dataclass(frozen=True)
class PassiveBlock:
    """Finite-dimensional feedback block z' = a(z) + b(z) u, y = c(z).

    Carries the storage function V and all first derivatives needed by the
    time-differentiated system. Supplied derivatives are validated against
    centered differences at construction; a(0), c(0) and V(0) must vanish
    exactly.

    Callbacks take one state of shape (dim,); callers also pass every
    callback a batch of states with any leading axes, (..., dim): sample
    sets (P, dim), and the states of the channels that share the block,
    (g, dim) or (R, g, dim) for R packed states. Construction checks that
    once on its sample points under a leading axis (the result broadcasts
    to the per-point results, rtol 1e-13) and runs a callback that fails it
    per point. The registry blocks broadcast; a result may be a shared
    read-only array, so callers never write into one.
    """

    dim: int
    drift: Callable
    input_gain: Callable
    output: Callable
    storage: Callable
    storage_grad: Callable
    drift_jac: Callable
    input_jac: Callable
    output_grad: Callable

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("PassiveBlock.dim must be >= 1")
        zero = np.zeros(self.dim)
        if np.any(np.asarray(self.drift(zero)) != 0.0):
            raise ValueError("PassiveBlock requires a(0) = 0 exactly")
        if float(self.output(zero)) != 0.0:
            raise ValueError("PassiveBlock requires c(0) = 0 exactly")
        if float(self.storage(zero)) != 0.0:
            raise ValueError("PassiveBlock requires V(0) = 0 exactly")
        self._check_derivatives()

    def _check_derivatives(self):
        """Each supplied derivative against centered differences of its
        callback at the sample points (the origin, 0.3 e_i and -0.2 e_i, and
        0.15 (1, ..., 1)); each callback is settled on the points it was
        evaluated at, a derivative on the sample points."""
        dim, axes = self.dim, np.eye(self.dim)
        points = np.concatenate([
            np.zeros((1, dim)), np.stack([0.3 * axes, -0.2 * axes], axis=1).reshape(-1, dim), np.full((1, dim), 0.15)
        ])
        steps = _DERIV_STEP * axes
        stencil = np.concatenate([points[:, None] + steps, points[:, None] - steps]).reshape(-1, dim)
        for name, label, shape in (
            ("drift", "drift_jac", (dim,)),
            ("input_gain", "input_jac", (dim,)),
            ("output", "output_grad", ()),
            ("storage", "storage_grad", ()),
        ):
            values = _per_point_values(getattr(self, name), stencil, shape)
            plus, minus = values.reshape((2, len(points), dim) + shape)
            supplied = _per_point_values(getattr(self, label), points, shape + (dim,))
            approx = np.moveaxis((plus - minus) / (2.0 * _DERIV_STEP), 1, -1)
            _require_close(f"PassiveBlock.{label} disagrees with centered differences", "z", points, supplied, approx)
            _settle_callback(self, name, stencil, values, 1)
            _settle_callback(self, label, points, supplied, 1)


@dataclass(frozen=True)
class BlockLinearization:
    """Constant matrices (A, B, C, P) of a block linearized at the origin."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float).ravel())
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float).ravel())
        P = np.asarray(self.P, dtype=float)
        P = 0.5 * (P + P.T)
        object.__setattr__(self, "P", P)
        if np.linalg.eigvalsh(P).min() <= 0.0:
            raise ValueError("BlockLinearization.P must be positive definite")


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Full closed loop: beam plus the two spring-damper/block channels.

    Channel 1 (rotational) acts on the tip slope, channel 2 (translational)
    on the tip deflection.
    """

    beam: BeamParams
    sd_rotational: SpringDamperLaw
    sd_translational: SpringDamperLaw
    block_rotational: PassiveBlock
    block_translational: PassiveBlock


def linearize_block(block: PassiveBlock) -> BlockLinearization:
    """Extract (A, B, C, P) of a block at the origin.

    P is the symmetrized storage Hessian; raises SingularHessian when its
    condition estimate exceeds 1e12. No passivity certification happens here.
    """
    zero = np.zeros(block.dim)
    A = np.asarray(block.drift_jac(zero), dtype=float).reshape(block.dim, block.dim)
    B = np.asarray(block.input_gain(zero), dtype=float).ravel()
    C = np.asarray(block.output_grad(zero), dtype=float).ravel()
    P = _storage_hessian(block)
    eigs = np.abs(np.linalg.eigvalsh(P))
    scale = max(1.0, eigs.max())
    if eigs.min() <= 1e-12 * scale or eigs.max() / eigs.min() > 1e12:
        raise SingularHessian("Hess(V)(0) is numerically singular; storage is degenerate")
    return BlockLinearization(A=A, B=B, C=C, P=P)


def _storage_hessian(block: PassiveBlock) -> np.ndarray:
    """Hessian of V at 0 from the supplied gradient, by centered differences,
    symmetrized."""
    n = block.dim
    h = 1e-6
    H = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        gp = np.asarray(block.storage_grad(e), dtype=float).ravel()
        gm = np.asarray(block.storage_grad(-e), dtype=float).ravel()
        H[:, j] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# Built-in registry
# ---------------------------------------------------------------------------

def _make_linear_law(slope: float = 1.0) -> ScalarLaw:
    return ScalarLaw(
        eval=lambda s: slope * s,
        deriv=lambda s: slope * np.ones_like(np.asarray(s, dtype=float)),
        potential=lambda s: 0.5 * slope * np.square(s),
    )


# The derivatives square by a product: the Jacobian takes one channel's trace
# as a scalar, several as an array, and numpy's scalar power rounds unlike its
# array power, where a product rounds alike.

def _make_cubic_law(slope: float = 1.0, cubic: float = 1.0) -> ScalarLaw:
    def potential(s):
        s2 = np.square(s)
        return 0.5 * slope * s2 + 0.25 * cubic * s2 * s2

    return ScalarLaw(
        eval=lambda s: slope * s + cubic * s**3,
        deriv=lambda s: slope + 3.0 * cubic * (s * s),
        potential=potential,
    )


_LOG2 = float(np.log(2.0))


def _make_tanh_law(gain: float = 2.0) -> ScalarLaw:
    def potential(s):
        # log cosh(x) / gain, x = gain s: log1p(2 sinh^2(x/2)) keeps full
        # relative accuracy for |x| <= 1, |x| + log1p(e^{-2|x|}) - log 2 cannot
        # overflow for |x| > 1
        x = np.abs(gain * np.asarray(s, dtype=float))
        small = np.log1p(2.0 * np.sinh(0.5 * np.minimum(x, 1.0)) ** 2)
        large = x + np.log1p(np.exp(-2.0 * x)) - _LOG2
        return np.where(x <= 1.0, small, large) / gain if gain != 0.0 else np.zeros_like(x)

    def deriv(s):
        t = np.tanh(gain * s)
        return gain * (1.0 - t * t)

    return ScalarLaw(eval=lambda s: np.tanh(gain * s), deriv=deriv, potential=potential)


def _make_zero_law() -> ScalarLaw:
    return ScalarLaw(
        eval=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        deriv=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        potential=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


def _make_negative_linear_law() -> ScalarLaw:
    # deliberately broken: violates monotonicity and positive origin slope
    return _make_linear_law(slope=-1.0)


def _make_softening_cubic_law() -> ScalarLaw:
    # deliberately broken as a spring: potential turns negative beyond |s| = sqrt(2)
    return _make_cubic_law(slope=1.0, cubic=-1.0)


LAW_BUILDERS: dict[str, Callable[..., ScalarLaw]] = {
    "linear": _make_linear_law,
    "cubic": _make_cubic_law,
    "tanh": _make_tanh_law,
    "zero": _make_zero_law,
    "negative-linear": _make_negative_linear_law,
    "softening-cubic": _make_softening_cubic_law,
}


def make_law(name: str, **params) -> ScalarLaw:
    """Build a registry law by name. Unknown names raise KeyError."""
    try:
        builder = LAW_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown law {name!r}; available: {sorted(LAW_BUILDERS)}") from None
    return builder(**params)


def _row_product(z, m: np.ndarray) -> np.ndarray:
    """z @ m for states z with any leading axes. Numpy runs a stacked product
    as one small product per leading index, about 6x slower than one product
    over all the states, for the (R, g, dim) states of R packed states."""
    z = np.asarray(z, dtype=float)
    if z.ndim <= 2:
        return z @ m
    return (z.reshape(-1, z.shape[-1]) @ m).reshape(z.shape[:-1] + m.shape[1:])


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a constant a block callback returns on every call."""
    a.flags.writeable = False
    return a


def _make_linear_block(dim: int = 1, rate: float = 1.0, gain: float = 1.0) -> PassiveBlock:
    """Stable linear block a = -rate*z, b = gain*e1, c = gain*z1, V = |z|^2/2."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    B = np.zeros(dim)
    B[0] = gain
    B, A, zero = _read_only(B), _read_only(-rate * np.eye(dim)), _read_only(np.zeros((dim, dim)))

    return PassiveBlock(
        dim=dim,
        drift=lambda z: -rate * np.asarray(z, dtype=float),
        input_gain=lambda z: B,
        output=lambda z: _row_product(z, B),
        storage=lambda z: 0.5 * np.vecdot(z, z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=lambda z: A,
        input_jac=lambda z: zero,
        output_grad=lambda z: B,
    )


_ROTATE_STABLE = _read_only(np.array([[-1.0, 1.0], [-1.0, -1.0]]))
_EYE2 = _read_only(np.eye(2))
_ZERO2 = _read_only(np.zeros((2, 2)))
_INPUT2 = _read_only(np.array([0.0, 1.0]))


def _make_cubic_drift_block(strength: float = 1.0) -> PassiveBlock:
    """Two-state block with drift A z - strength * z |z|^2 and unit storage."""
    A = _ROTATE_STABLE
    A_T = A.T
    B = _INPUT2

    def drift(z):
        z = np.asarray(z, dtype=float)
        return _row_product(z, A_T) - (strength * np.vecdot(z, z))[..., None] * z

    def drift_jac(z):
        z = np.asarray(z, dtype=float)
        return A - strength * (np.vecdot(z, z)[..., None, None] * _EYE2 + 2.0 * (z[..., :, None] * z[..., None, :]))

    return PassiveBlock(
        dim=2,
        drift=drift,
        input_gain=lambda z: B,
        output=lambda z: np.asarray(z, dtype=float)[..., 1],
        storage=lambda z: 0.5 * np.vecdot(z, z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=drift_jac,
        input_jac=lambda z: _ZERO2,
        output_grad=lambda z: B,
    )


def _make_saturating_block() -> PassiveBlock:
    """Two-state block with componentwise-saturating drift A tanh(z).

    Storage sum(log cosh z_i) makes the KYP identity exact: grad V = tanh(z).
    """
    A = _ROTATE_STABLE
    A_T = A.T
    B = _INPUT2

    def sech2(z):
        return 1.0 - np.tanh(np.asarray(z, dtype=float)) ** 2

    return PassiveBlock(
        dim=2,
        drift=lambda z: _row_product(np.tanh(np.asarray(z, dtype=float)), A_T),
        input_gain=lambda z: B,
        output=lambda z: np.tanh(np.asarray(z, dtype=float)[..., 1]),
        storage=lambda z: np.sum(np.log(np.cosh(np.asarray(z, dtype=float))), axis=-1),
        storage_grad=lambda z: np.tanh(np.asarray(z, dtype=float)),
        drift_jac=lambda z: A * sech2(z)[..., None, :],
        input_jac=lambda z: _ZERO2,
        output_grad=lambda z: sech2(z) * B,
    )


def _make_anti_stable_block() -> PassiveBlock:
    """Deliberately broken block: drift +z pumps energy into the storage."""
    one, eye, zero = _read_only(np.ones(1)), _read_only(np.eye(1)), _read_only(np.zeros((1, 1)))
    return PassiveBlock(
        dim=1,
        drift=lambda z: np.asarray(z, dtype=float).copy(),
        input_gain=lambda z: one,
        output=lambda z: np.asarray(z, dtype=float)[..., 0],
        storage=lambda z: 0.5 * np.vecdot(z, z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=lambda z: eye,
        input_jac=lambda z: zero,
        output_grad=lambda z: one,
    )


BLOCK_BUILDERS: dict[str, Callable[..., PassiveBlock]] = {
    "linear": _make_linear_block,
    "cubic-drift": _make_cubic_drift_block,
    "saturating": _make_saturating_block,
    "anti-stable": _make_anti_stable_block,
}


def make_block(name: str, **params) -> PassiveBlock:
    """Build a registry block by name. Unknown names raise KeyError."""
    try:
        builder = BLOCK_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown block {name!r}; available: {sorted(BLOCK_BUILDERS)}") from None
    return builder(**params)
