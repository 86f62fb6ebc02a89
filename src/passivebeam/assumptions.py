"""Numerical certification of the passivity assumptions on laws and blocks.

Checks sample a deterministic low-discrepancy set plus seeded uniform points;
failures are report entries with concrete witness points, never exceptions.
Strict inequalities are tested with an absolute margin so that re-evaluating
a witness reproduces the violation.

Each law and block callback is evaluated over the whole sample set in one
call, the spring potential included. Laws and blocks settle at construction
whether a callback batches; one that does not runs per point behind the same
call, with the same report. The spring potential is the law's ``potential``,
the one the Lyapunov functional uses: its closed form, or the adaptive
Simpson rule a law without one gets at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beam_model import PassiveBlock, SpringDamperLaw, _storage_hessian
from .errors import SamplingFailure

#: absolute margin for strict inequalities
STRICT_MARGIN = 1e-9

#: sampled points closer to the origin than this fraction of the radius are
#: skipped by sign checks (the laws vanish there by construction)
_INNER_FRACTION = 1e-3

_GRID_POINTS = 257
_BLOCK_GRID_POINTS = 512

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

#: uniform points drawn per rejection round: bounds a round's memory (2.6 MB
#: at dim 10) where 2^dim candidates per wanted point would not
_DRAW_ROWS = 2**15

#: uniform rounds in a row that may accept no point; a round expects at
#: least two points in the shell, so only a shell test that rejects every
#: draw runs out of them
_EMPTY_ROUNDS = 64


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: tuple[float, ...] | None
    value: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "witness": list(self.witness) if self.witness is not None else None,
            "value": self.value,
        }


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certification run; ``passed`` is the conjunction of all
    per-check flags and every failed check carries a witness point."""

    passed: bool
    checks: list[CheckResult]
    sample_radius: float
    sample_count: int

    def as_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "sample_radius": self.sample_radius,
            "sample_count": self.sample_count,
            "checks": [c.as_dict() for c in self.checks],
        }

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


def _in_shell(points: np.ndarray, r_min: float, radius: float) -> np.ndarray:
    # row-wise dot, so that the norms match np.linalg.norm of each point bit for bit
    r = np.sqrt(np.vecdot(points, points))
    return (r_min <= r) & (r <= radius)


def _ball_points(dim: int, radius: float, n_halton: int, n_uniform: int, seed: int) -> np.ndarray:
    """Low-discrepancy plus seeded uniform points in the ball of given radius,
    excluding a small inner ball. Prefixes are stable: enlarging the counts
    extends the sample set. Membership is tested on the points over the
    radius, so no radius underflows or overflows the test; the points are
    kept as drawn. Raises SamplingFailure when _EMPTY_ROUNDS uniform rounds
    in a row accept no point."""
    cap = 100 * n_halton + 1000
    count = min(2**dim * n_halton, cap)
    while True:
        cube = np.stack([2.0 * _halton(np.arange(1, count + 1), p) - 1.0 for p in _PRIMES[:dim]], axis=1)
        halton = cube[_in_shell(cube, _INNER_FRACTION, 1.0)][:n_halton] * radius
        if len(halton) == n_halton or count == cap:
            break
        count = min(2 * count, cap)
    # one PCG64 word per double: drawing (k, dim) blocks keeps the stream of
    # successive single-point draws, so rounds of any size accept the same points
    rng = np.random.default_rng(seed)
    uniform, found, empty = [np.empty((0, dim))], 0, 0
    while found < n_uniform:
        if empty == _EMPTY_ROUNDS:
            raise SamplingFailure(f"no uniform point in the ball of radius {radius!r} "
                                  f"in {_EMPTY_ROUNDS} rounds in a row")
        draw = rng.uniform(-radius, radius, size=(min(2**dim * (n_uniform - found), _DRAW_ROWS), dim))
        uniform.append(draw[_in_shell(draw / radius, _INNER_FRACTION, 1.0)])
        found += len(uniform[-1])
        empty = 0 if len(uniform[-1]) else empty + 1
    return np.concatenate([halton, np.concatenate(uniform)[:n_uniform]])


def _law_samples(radius: float, samples: int, seed: int) -> np.ndarray:
    grid = np.linspace(-radius, radius, _GRID_POINTS)
    rng = np.random.default_rng(seed)
    extra = rng.uniform(-radius, radius, size=samples)
    pts = np.concatenate([grid, extra])
    return pts[np.abs(pts) >= _INNER_FRACTION * radius]


def _check(name: str, ok, witness, value) -> CheckResult:
    """A check result that carries its witness point only on failure."""
    ok = bool(ok)
    witness = None if ok else tuple(float(w) for w in np.atleast_1d(witness))
    return CheckResult(name, ok, witness, float(value))


def _sampled(name: str, points, values, passes, flip: bool = False) -> CheckResult:
    """The check on the worst sampled value: the smallest, or the largest if
    flip. ``values`` may broadcast to one per point, as block callbacks may."""
    values = np.broadcast_to(values, len(points))
    idx = int(np.argmax(values)) if flip else int(np.argmin(values))
    return _check(name, passes(float(values[idx])), points[idx], values[idx])


def certify_spring_damper(
    law: SpringDamperLaw, radius: float, samples: int, seed: int = 0
) -> CertReport:
    """Check the damper/spring assumptions on [-radius, radius].

    The damper must vanish at the origin, have a nonnegative derivative
    everywhere sampled (the monotone reading of the damper assumption) and a
    strictly positive origin slope; the spring must have a strictly positive
    origin slope and a positive potential off the origin (the law's
    ``potential``, as in the Lyapunov functional).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if samples < 100:
        raise ValueError("samples must be >= 100")
    pts = _law_samples(radius, samples, seed)
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
    A block of more than ``len(_PRIMES)`` states (Halton bases) is refused.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if block.dim > len(_PRIMES):
        raise ValueError(f"block dimension {block.dim} exceeds the certification limit of {len(_PRIMES)}")
    if samples < 100 * block.dim:
        raise ValueError(f"samples must be >= {100 * block.dim} for dim {block.dim}")
    pts = _ball_points(block.dim, radius, _BLOCK_GRID_POINTS, samples, seed)
    grad = block.storage_grad(pts)
    output = block.output(pts)
    kyp = np.abs(np.vecdot(grad, block.input_gain(pts)) - output) / (1.0 + np.abs(output))

    hess = _storage_hessian(block)
    eigvals, eigvecs = np.linalg.eigh(hess)
    amat = np.asarray(block.drift_jac(np.zeros(block.dim)), dtype=float)
    svals = np.linalg.svd(amat, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0.0 else np.inf
    sphere = pts * (radius / np.linalg.norm(pts, axis=1))[:, None]

    checks = [
        _sampled("storage-positive", pts, block.storage(pts), lambda worst: worst >= STRICT_MARGIN),
        _sampled("dissipation-strict", pts, np.vecdot(grad, block.drift(pts)),
                 lambda worst: worst <= -STRICT_MARGIN, flip=True),
        _sampled("kyp-output-match", pts, kyp, lambda worst: worst <= STRICT_MARGIN, flip=True),
        _check("hessian-positive-definite", eigvals[0] >= STRICT_MARGIN, eigvecs[:, 0], eigvals[0]),
        _check("drift-jacobian-invertible", np.isfinite(cond) and cond <= 1e12,
               np.linalg.svd(amat)[2][-1], cond),
        _sampled("radial-growth", sphere, block.storage(sphere), lambda worst: worst > h_threshold),
        _sampled("pa-negative-semidefinite", pts, np.vecdot(pts, pts @ (hess @ amat).T) / np.vecdot(pts, pts),
                 lambda worst: worst <= STRICT_MARGIN, flip=True),
    ]
    return _finish(checks, radius, len(pts))
