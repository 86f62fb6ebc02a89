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

from .errors import SingularHessian

_DERIV_RTOL = 1e-6
_DERIV_STEP = 1e-6


def _centered(f: Callable, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


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


#: Simpson intervals of the reference integral that a supplied potential is
#: checked against, to the relative tolerance of the derivative check
_POTENTIAL_CHECK_INTERVALS = 256


@dataclass(frozen=True)
class ScalarLaw:
    """A scalar map with its derivative and, optionally, its antiderivative.

    ``eval``, ``deriv`` and ``potential`` must be pure and accept
    numpy arrays elementwise. ``deriv`` is validated against a centered
    difference of ``eval`` on a small sample grid at construction.
    ``potential``, the integral of ``eval`` from 0 to s, must vanish at 0
    exactly and is validated against a fine Simpson rule of ``eval`` on the
    same grid; without it, spring potentials fall back to quadrature.
    """

    eval: Callable
    deriv: Callable
    potential: Callable | None = None

    def __post_init__(self):
        grid = (-1.0, -0.3, 0.0, 0.2, 0.7)
        for s in grid:
            supplied = float(self.deriv(s))
            approx = _centered(self.eval, s, _DERIV_STEP * (1.0 + abs(s)))
            if abs(supplied - approx) > _DERIV_RTOL * (1.0 + abs(supplied)):
                raise ValueError(
                    f"ScalarLaw.deriv disagrees with centered difference at s={s}: "
                    f"{supplied} vs {approx}"
                )
        if self.potential is None:
            return
        if float(self.potential(0.0)) != 0.0:
            raise ValueError("ScalarLaw requires potential(0) = 0 exactly")
        uppers = np.array(grid)
        nodes = np.linspace(0.0, uppers, _POTENTIAL_CHECK_INTERVALS + 1, axis=-1)
        values = _batch(self.eval, nodes.ravel(), probe=False).reshape(nodes.shape)
        reference = _simpson(values, uppers / _POTENTIAL_CHECK_INTERVALS)
        for s, approx in zip(grid, reference):
            supplied = float(self.potential(s))
            if abs(supplied - approx) > _DERIV_RTOL * (1.0 + abs(supplied)):
                raise ValueError(
                    f"ScalarLaw.potential disagrees with the Simpson integral of eval at s={s}: "
                    f"{supplied} vs {approx}"
                )


def _batch(f: Callable, pts: np.ndarray, shape: tuple = (), probe: bool = True) -> np.ndarray:
    """``f`` at every point along the leading axis of ``pts``, as a
    ``(P,) + shape`` array.

    ``f`` is called once on the whole batch. With ``probe`` the result is
    accepted when it broadcasts to ``(P,) + shape`` and agrees with
    per-point calls on the first, middle and last point to rtol 1e-13;
    without (hot paths that rely on the elementwise contract of
    ``ScalarLaw``) when it has exactly that shape. Otherwise (a callback that
    rejects or mishandles the batch axis) ``f`` is called once per point.
    """
    pts = np.asarray(pts, dtype=float)
    count = len(pts)
    try:
        y = np.asarray(f(pts), dtype=float)
        if probe and count:
            y = np.broadcast_to(y, (count,) + shape)
            idx = [0, count // 2, count - 1]
            per_point = np.reshape([np.asarray(f(pts[i]), dtype=float) for i in idx], (len(idx),) + shape)
            accepted = np.allclose(y[idx], per_point, rtol=1e-13, atol=0.0, equal_nan=True)
        else:
            accepted = y.shape == (count,) + shape
        if accepted:
            return y
    except Exception:  # whatever a callback raises on a batch, evaluate per point
        pass
    return np.array([np.asarray(f(p), dtype=float).reshape(shape) for p in pts]).reshape((count,) + shape)


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

    Callbacks take one state of shape (dim,). ``drift``, ``input_gain``,
    ``output``, ``storage`` and ``storage_grad`` may also accept a leading
    batch axis, (P, dim) -> (P, ...); certification probes each of them for
    that and falls back to per-point calls when the batched result is
    missing, has the wrong shape or disagrees with the per-point values.
    The registry blocks broadcast.
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

    def _sample_points(self):
        pts = [np.zeros(self.dim)]
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            pts.append(0.3 * e)
            pts.append(-0.2 * e)
        pts.append(np.full(self.dim, 0.15))
        return pts

    def _check_derivatives(self):
        h = _DERIV_STEP

        def check_jac(fun, jac, label, out_dim):
            for z in self._sample_points():
                supplied = np.atleast_2d(np.asarray(jac(z), dtype=float))
                approx = np.zeros((out_dim, self.dim))
                for j in range(self.dim):
                    e = np.zeros(self.dim)
                    e[j] = h
                    approx[:, j] = (
                        np.asarray(fun(z + e), dtype=float)
                        - np.asarray(fun(z - e), dtype=float)
                    ) / (2.0 * h)
                scale = 1.0 + np.abs(supplied)
                if np.any(np.abs(supplied - approx) > _DERIV_RTOL * scale):
                    raise ValueError(f"PassiveBlock.{label} disagrees with centered differences")

        check_jac(self.drift, self.drift_jac, "drift_jac", self.dim)
        check_jac(self.input_gain, self.input_jac, "input_jac", self.dim)
        check_jac(lambda z: np.atleast_1d(self.output(z)), lambda z: np.atleast_2d(self.output_grad(z)), "output_grad", 1)
        check_jac(lambda z: np.atleast_1d(self.storage(z)), lambda z: np.atleast_2d(self.storage_grad(z)), "storage_grad", 1)


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
    P = 0.5 * (P + P.T)
    eigs = np.abs(np.linalg.eigvalsh(P))
    scale = max(1.0, eigs.max())
    if eigs.min() <= 1e-12 * scale or eigs.max() / eigs.min() > 1e12:
        raise SingularHessian("Hess(V)(0) is numerically singular; storage is degenerate")
    return BlockLinearization(A=A, B=B, C=C, P=P)


def _storage_hessian(block: PassiveBlock) -> np.ndarray:
    """Hessian of V at 0 from the supplied gradient, by centered differences."""
    n = block.dim
    h = 1e-6
    H = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        gp = np.asarray(block.storage_grad(e), dtype=float).ravel()
        gm = np.asarray(block.storage_grad(-e), dtype=float).ravel()
        H[:, j] = (gp - gm) / (2.0 * h)
    return H


# ---------------------------------------------------------------------------
# Built-in registry
# ---------------------------------------------------------------------------

def _make_linear_law(slope: float = 1.0) -> ScalarLaw:
    return ScalarLaw(
        eval=lambda s: slope * s,
        deriv=lambda s: slope * np.ones_like(np.asarray(s, dtype=float)),
        potential=lambda s: 0.5 * slope * np.square(s),
    )


def _make_cubic_law(slope: float = 1.0, cubic: float = 1.0) -> ScalarLaw:
    def potential(s):
        s2 = np.square(s)
        return 0.5 * slope * s2 + 0.25 * cubic * s2 * s2

    return ScalarLaw(
        eval=lambda s: slope * s + cubic * s**3,
        deriv=lambda s: slope + 3.0 * cubic * s**2,
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

    return ScalarLaw(
        eval=lambda s: np.tanh(gain * s),
        deriv=lambda s: gain * (1.0 - np.tanh(gain * s) ** 2),
        potential=potential,
    )


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


def _make_linear_block(dim: int = 1, rate: float = 1.0, gain: float = 1.0) -> PassiveBlock:
    """Stable linear block a = -rate*z, b = gain*e1, c = gain*z1, V = |z|^2/2."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    B = np.zeros(dim)
    B[0] = gain

    return PassiveBlock(
        dim=dim,
        drift=lambda z: -rate * np.asarray(z, dtype=float),
        input_gain=lambda z: B.copy(),
        output=lambda z: np.asarray(z, dtype=float) @ B,
        storage=lambda z: 0.5 * np.vecdot(z, z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=lambda z: -rate * np.eye(dim),
        input_jac=lambda z: np.zeros((dim, dim)),
        output_grad=lambda z: B.copy(),
    )


_ROTATE_STABLE = np.array([[-1.0, 1.0], [-1.0, -1.0]])


def _make_cubic_drift_block(strength: float = 1.0) -> PassiveBlock:
    """Two-state block with drift A z - strength * z |z|^2 and unit storage."""
    A = _ROTATE_STABLE
    A_T = A.T
    B = np.array([0.0, 1.0])

    def drift(z):
        z = np.asarray(z, dtype=float)
        return z @ A_T - (strength * np.vecdot(z, z))[..., None] * z

    def drift_jac(z):
        z = np.asarray(z, dtype=float)
        return A - strength * (float(z @ z) * np.eye(2) + 2.0 * np.outer(z, z))

    return PassiveBlock(
        dim=2,
        drift=drift,
        input_gain=lambda z: B.copy(),
        output=lambda z: np.asarray(z, dtype=float)[..., 1],
        storage=lambda z: 0.5 * np.vecdot(z, z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=drift_jac,
        input_jac=lambda z: np.zeros((2, 2)),
        output_grad=lambda z: B.copy(),
    )


def _make_saturating_block() -> PassiveBlock:
    """Two-state block with componentwise-saturating drift A tanh(z).

    Storage sum(log cosh z_i) makes the KYP identity exact: grad V = tanh(z).
    """
    A = _ROTATE_STABLE
    A_T = A.T
    B = np.array([0.0, 1.0])

    def sech2(z):
        return 1.0 - np.tanh(z) ** 2

    return PassiveBlock(
        dim=2,
        drift=lambda z: np.tanh(np.asarray(z, dtype=float)) @ A_T,
        input_gain=lambda z: B.copy(),
        output=lambda z: np.tanh(np.asarray(z, dtype=float)[..., 1]),
        storage=lambda z: np.sum(np.log(np.cosh(np.asarray(z, dtype=float))), axis=-1),
        storage_grad=lambda z: np.tanh(np.asarray(z, dtype=float)),
        drift_jac=lambda z: A @ np.diag(sech2(np.asarray(z, dtype=float))),
        input_jac=lambda z: np.zeros((2, 2)),
        output_grad=lambda z: np.array([0.0, sech2(np.asarray(z, dtype=float)[1])]),
    )


def _make_anti_stable_block() -> PassiveBlock:
    """Deliberately broken block: drift +z pumps energy into the storage."""
    return PassiveBlock(
        dim=1,
        drift=lambda z: np.asarray(z, dtype=float).copy(),
        input_gain=lambda z: np.ones(1),
        output=lambda z: np.asarray(z, dtype=float)[..., 0],
        storage=lambda z: 0.5 * np.vecdot(z, z),
        storage_grad=lambda z: np.asarray(z, dtype=float).copy(),
        drift_jac=lambda z: np.eye(1),
        input_jac=lambda z: np.zeros((1, 1)),
        output_grad=lambda z: np.ones(1),
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
