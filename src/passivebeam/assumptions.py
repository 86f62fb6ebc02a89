"""Numerical certification of the passivity assumptions on laws and blocks.

Checks sample a deterministic low-discrepancy set plus seeded uniform points;
failures are report entries with concrete witness points, never exceptions.
Strict inequalities are tested with an absolute margin so that re-evaluating
a witness reproduces the violation, and a check with a value that is not
finite fails.

A block is sampled in a shell of the unit ball and scaled to the radius:
each cube point maps to one shell point in closed form, with no rejection,
so the sample count is exact at every dimension and radius.

Each law and block callback is evaluated over the whole sample set in one
call, the spring potential included. Laws and blocks settle at construction
whether a callback batches; one that does not runs per point behind the same
call, with the same report. The spring potential is the law's ``potential``,
the one the Lyapunov functional uses: its closed form, or the adaptive
Simpson rule a law without one gets at construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .beam_model import PassiveBlock, SpringDamperLaw, _storage_hessian

#: absolute margin for strict inequalities
STRICT_MARGIN = 1e-9

#: sampled points closer to the origin than this fraction of the radius are
#: skipped by sign checks (the laws vanish there by construction)
_INNER_FRACTION = 1e-3

#: largest radius: a law is sampled on [-radius, radius], of finite width
MAX_RADIUS = 1e307

_GRID_POINTS = 257
_BLOCK_GRID_POINTS = 512

#: Halton bases: one for the radius, then one per direction coordinate,
#: rounded up to whole Box-Muller pairs, so a block has at most 10 states
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: tuple[float, ...] | None
    value: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certification run; ``passed`` is the conjunction of all
    per-check flags and every failed check carries a witness point."""

    passed: bool
    checks: list[CheckResult]
    sample_radius: float
    sample_count: int

    def as_dict(self) -> dict:
        return asdict(self)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _finish(checks: list[CheckResult], radius: float, count: int) -> CertReport:
    checks = sorted(checks, key=lambda c: c.name)
    return CertReport(
        passed=all(c.passed for c in checks),
        checks=checks,
        sample_radius=radius,
        sample_count=count,
    )


def _halton(indices: np.ndarray, base: int) -> np.ndarray:
    """Radical inverse of each index in the given base."""
    result = np.zeros(len(indices))
    f = 1.0
    i = indices.copy()
    while i.any():
        f /= base
        result += f * (i % base)
        i //= base
    return result


def _unit_shell_points(dim: int, n_halton: int, n_uniform: int, seed: int) -> np.ndarray:
    """Points of the shell _INNER_FRACTION <= |z| <= 1, each the image of one
    cube point: the first n_halton Halton points, then n_uniform seeded
    uniform points in (0, 1]. The first coordinate c0 sets the radius
    (lo + (1 - lo) c0)^(1/dim), lo = _INNER_FRACTION^dim, so that the points
    are uniform in the shell when the cube points are; the others, in pairs,
    give a Gaussian direction by Box-Muller. Prefixes are stable: enlarging
    either count extends its part."""
    cols = 2 * ((dim + 1) // 2) + 1
    halton = np.stack([_halton(np.arange(1, n_halton + 1), p) for p in _PRIMES[:cols]], axis=1)
    cube = np.concatenate([halton, 1.0 - np.random.default_rng(seed).random((n_uniform, cols))])
    lo = _INNER_FRACTION**dim
    radius = (lo + (1.0 - lo) * cube[:, 0]) ** (1.0 / dim)
    rho, angle = np.sqrt(-2.0 * np.log(cube[:, 1::2])), 2.0 * np.pi * cube[:, 2::2]
    gauss = np.stack([rho * np.cos(angle), rho * np.sin(angle)], axis=2).reshape(len(cube), -1)[:, :dim]
    return gauss * (radius / np.linalg.norm(gauss, axis=1))[:, None]


def _law_samples(radius: float, samples: int, seed: int) -> np.ndarray:
    grid = np.linspace(-radius, radius, _GRID_POINTS)
    rng = np.random.default_rng(seed)
    extra = rng.uniform(-radius, radius, size=samples)
    pts = np.concatenate([grid, extra])
    return pts[np.abs(pts) >= _INNER_FRACTION * radius]


def _check(name: str, ok, witness, value) -> CheckResult:
    """A check result that carries its witness point only on failure; a
    value that is not finite fails."""
    ok = bool(ok) and bool(np.isfinite(value))
    witness = None if ok else tuple(float(w) for w in np.atleast_1d(witness))
    return CheckResult(name, ok, witness, float(value))


def _sampled(name: str, points, values, passes, flip: bool = False) -> CheckResult:
    """The check on the worst sampled value: the first that is not finite,
    else the smallest, or the largest if flip. ``values`` may broadcast to
    one per point, as block callbacks may."""
    values = np.broadcast_to(values, len(points))
    bad = ~np.isfinite(values)
    idx = int(np.argmax(bad)) if bad.any() else int(np.argmax(values) if flip else np.argmin(values))
    return _check(name, passes(float(values[idx])), points[idx], values[idx])


def certify_spring_damper(
    law: SpringDamperLaw, radius: float, samples: int, seed: int = 0
) -> CertReport:
    """Check the damper/spring assumptions on [-radius, radius].

    The damper must vanish at the origin, have a nonnegative derivative
    everywhere sampled (the monotone reading of the damper assumption) and a
    strictly positive origin slope; the spring must have a strictly positive
    origin slope and a positive potential off the origin (the law's
    ``potential``, as in the Lyapunov functional). A law that overflows
    fails the check it overflows in.
    """
    if not 0.0 < radius <= MAX_RADIUS:
        raise ValueError(f"radius must be positive and finite, at most {MAX_RADIUS}, got {radius!r}")
    if samples < 100:
        raise ValueError("samples must be >= 100")
    pts = _law_samples(radius, samples, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        d0, dslope = float(law.damper.eval(0.0)), law.damper_slope
        k0, kslope = float(law.spring.eval(0.0)), law.spring_slope
        checks = [
            _check("damper-vanishes-at-zero", abs(d0) <= STRICT_MARGIN, 0.0, d0),
            _sampled("damper-derivative-nonnegative", pts, law.damper.deriv(pts),
                     lambda worst: worst >= -STRICT_MARGIN),
            _check("damper-slope-positive", dslope >= STRICT_MARGIN, 0.0, dslope),
            _check("spring-slope-positive", kslope >= STRICT_MARGIN, 0.0, kslope),
            _check("spring-vanishes-at-zero", abs(k0) <= STRICT_MARGIN, 0.0, k0),
            _sampled("spring-potential-positive", pts, law.spring.potential(pts),
                     lambda worst: worst >= STRICT_MARGIN),
        ]
    return _finish(checks, radius, len(pts))


def certify_block(
    block: PassiveBlock, radius: float, samples: int, h_threshold: float = 0.0, seed: int = 0
) -> CertReport:
    """Check the strict-passivity assumptions of a block in the ball of the
    given radius.

    Positivity of the storage, strict dissipation of the drift, the
    KYP output identity, definiteness of the storage Hessian, invertibility
    of the drift Jacobian, and negative semidefiniteness of P A are sampled;
    radial growth is certified only up to the radius, against ``h_threshold``.
    The sample set is the 512 Halton points and then ``samples`` uniform
    points of ``_unit_shell_points``, scaled by the radius; the sphere and the
    P A quotient are taken on the unit points, so no radius underflows or
    overflows them. A callback that overflows fails the check it overflows
    in. A block of more than ``len(_PRIMES) - 1`` states is refused.
    """
    if not 0.0 < radius <= MAX_RADIUS:
        raise ValueError(f"radius must be positive and finite, at most {MAX_RADIUS}, got {radius!r}")
    if block.dim >= len(_PRIMES):
        raise ValueError(f"block dimension {block.dim} exceeds the certification limit of {len(_PRIMES) - 1}")
    if samples < 100 * block.dim:
        raise ValueError(f"samples must be >= {100 * block.dim} for dim {block.dim}")
    unit = _unit_shell_points(block.dim, _BLOCK_GRID_POINTS, samples, seed)
    pts = radius * unit
    sphere = radius * (unit / np.linalg.norm(unit, axis=1)[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        grad = block.storage_grad(pts)
        output = block.output(pts)
        kyp = np.abs(np.vecdot(grad, block.input_gain(pts)) - output) / (1.0 + np.abs(output))

        hess = _storage_hessian(block)
        eigvals, eigvecs = np.linalg.eigh(hess)
        amat = np.asarray(block.drift_jac(np.zeros(block.dim)), dtype=float)
        svals = np.linalg.svd(amat, compute_uv=False)
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0.0 else np.inf

        checks = [
            _sampled("storage-positive", pts, block.storage(pts), lambda worst: worst >= STRICT_MARGIN),
            _sampled("dissipation-strict", pts, np.vecdot(grad, block.drift(pts)),
                     lambda worst: worst <= -STRICT_MARGIN, flip=True),
            _sampled("kyp-output-match", pts, kyp, lambda worst: worst <= STRICT_MARGIN, flip=True),
            _check("hessian-positive-definite", eigvals[0] >= STRICT_MARGIN, eigvecs[:, 0], eigvals[0]),
            _check("drift-jacobian-invertible", cond <= 1e12, np.linalg.svd(amat)[2][-1], cond),
            _sampled("radial-growth", sphere, block.storage(sphere), lambda worst: worst > h_threshold),
            _sampled("pa-negative-semidefinite", pts,
                     np.vecdot(unit, unit @ (hess @ amat).T) / np.vecdot(unit, unit),
                     lambda worst: worst <= STRICT_MARGIN, flip=True),
        ]
    return _finish(checks, radius, len(pts))
