"""Linear-operator diagnostics and trajectory decay metrics.

Covers the spectrum of the dense linear generator (``dynamics.linear_system``
reads it off the banded operator), the skew-adjointness defect of the
projected operator (beam with tip inertia, linear tip springs and optional
linear tip dampers, no blocks) formed from the banded beam matrices, beam
frequency helpers, and the decay and integrability metrics read off recorded
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .discretization import DiscreteSystem, _band_mv, dense, displacement_gram, solve_mass_tip
from .errors import EigenSolverFailure, EmptyTrajectory

UNSTABLE_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a generator, sorted by real part (descending)."""

    eigenvalues: np.ndarray
    max_real_part: float
    n_unstable: int

    def csv_rows(self):
        return [(float(ev.real), float(ev.imag)) for ev in self.eigenvalues]

    def as_dict(self) -> dict:
        return {
            "max_real_part": self.max_real_part,
            "n_unstable": self.n_unstable,
            "count": int(len(self.eigenvalues)),
        }


@dataclass(frozen=True)
class DecayReport:
    """Energy decay, remainder integrability, and tangent-bound metrics."""

    h_initial: float
    h_final: float
    ratio: float
    nonlin_integral_total: float
    nonlin_integral_tail: float
    tangent_sup: float
    tangent_sup_late: float

    def as_dict(self) -> dict:
        return {
            "h_initial": self.h_initial,
            "h_final": self.h_final,
            "ratio": self.ratio,
            "nonlin_integral_total": self.nonlin_integral_total,
            "nonlin_integral_tail": self.nonlin_integral_tail,
            "tangent_sup": self.tangent_sup,
            "tangent_sup_late": self.tangent_sup_late,
        }


def spectrum(g: np.ndarray, q: np.ndarray) -> SpectrumReport:
    """Eigenvalues of a generator, computed in energy coordinates.

    The Cholesky factor of the Gram matrix supplies a similarity transform
    that keeps structural properties (skewness, dissipativity) visible to the
    eigensolver; eigenvalues are unchanged.
    """
    g = np.asarray(g, dtype=float)
    q = np.asarray(q, dtype=float)
    if g.shape[0] != g.shape[1] or g.shape != q.shape:
        raise ValueError("G must be square and match Q")
    try:
        r = scipy.linalg.cholesky(q)
        # (R G R^{-1})^T, which has the same eigenvalues; solved and
        # diagonalized in place, in the column order LAPACK works in
        grg_t = scipy.linalg.solve_triangular(r.T, (r @ g).T, lower=True, overwrite_b=True)
        eigs = scipy.linalg.eigvals(grg_t, overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigenSolverFailure(f"eigenvalue computation failed: {exc}") from exc
    order = np.argsort(-eigs.real)
    eigs = eigs[order]
    max_real = float(eigs.real.max())
    return SpectrumReport(
        eigenvalues=eigs,
        max_real_part=max_real,
        n_unstable=int(np.sum(eigs.real > UNSTABLE_TOL)),
    )


def skew_check(
    sys: DiscreteSystem,
    spring_constants: tuple[float, float],
    damper_constants: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Relative skew-adjointness defect of the projected generator G over
    (u, v): beam, tip inertia, linear tip springs K, linear tip dampers D,
    no blocks, in the energy Gram Q = diag(K_q, M_tip).

    Returns ||G^T Q + Q G||_F / ||Q G||_F with Q G formed from the banded
    pieces: its upper-right block is K_q, its velocity rows are
    -M_tip mass_tip^-1 [K_q | D]. Roundoff-small without dampers; with them
    the exact defect is 2 ||D||_F / ||Q G||_F, which falls as the mesh
    refines (4.2e-4 at n=4, 1.8e-10 at n=256 for dampers (1, 0)).
    """
    n = sys.n_dof
    k_q = dense(displacement_gram(sys, *spring_constants))
    damping = np.diag(sys.tip_unit_columns() @ damper_constants)
    velocity_rows = _band_mv(sys.mass_tip_band, solve_mass_tip(sys, np.hstack([k_q, damping])).T, -1.0).T
    qg = np.vstack([np.hstack([np.zeros((n, n)), k_q]), velocity_rows])
    defect = np.linalg.norm(qg + qg.T, ord="fro")
    return float(defect / np.linalg.norm(qg, ord="fro"))


def decay_metrics(traj) -> DecayReport:
    """Decay and integrability numbers from a recorded trajectory.

    The remainder integral uses the trapezoid rule; the tail covers the last
    quarter of the time span, the late tangent bound the second half.
    """
    times = np.asarray(traj.times, dtype=float)
    if len(times) == 0:
        raise EmptyTrajectory("decay metrics need at least one recorded state")
    totals = traj.totals()
    h_initial = float(totals[0])
    h_final = float(totals[-1])
    ratio = h_final / h_initial if h_initial != 0.0 else 0.0

    nl = np.asarray(traj.nonlinearity_norms, dtype=float)
    tang = np.asarray(traj.tangent_norms, dtype=float)
    if len(times) > 1:
        total_integral = float(np.trapezoid(nl, times))
        span = times[-1] - times[0]
        tail_mask = times >= times[-1] - 0.25 * span
        tail_integral = float(np.trapezoid(nl[tail_mask], times[tail_mask]))
        late_mask = times >= times[0] + 0.5 * span
        tangent_late = float(tang[late_mask].max())
    else:
        total_integral = 0.0
        tail_integral = 0.0
        tangent_late = float(tang.max())
    return DecayReport(
        h_initial=h_initial,
        h_final=h_final,
        ratio=ratio,
        nonlin_integral_total=total_integral,
        nonlin_integral_tail=tail_integral,
        tangent_sup=float(tang.max()),
        tangent_sup_late=tangent_late,
    )


def beam_frequencies(sys: DiscreteSystem, count: int = 5) -> np.ndarray:
    """Angular frequencies of the bare beam from the generalized eigenproblem
    of the (rigidity-weighted) stiffness against the (rho-weighted) mass.

    The pencil is inverted (mass against stiffness), so the lowest
    frequencies come from the best-conditioned end of the spectrum.
    """
    try:
        mu = scipy.linalg.eigh(dense(sys.mass_band), dense(sys.stiffness_band), eigvals_only=True)
        omega2 = 1.0 / np.clip(mu[::-1], 1e-300, None)
    except scipy.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"generalized eigensolve failed: {exc}") from exc
    return np.sqrt(omega2[:count])


def clamped_free_wavenumbers(length: float, count: int = 3) -> np.ndarray:
    """First roots beta_k of 1 + cos(bL) cosh(bL) = 0, by bisection to 1e-12.

    The fundamental angular frequency of a clamped-free beam is
    beta_1^2 sqrt(rigidity / rho).
    """

    def f(x):
        return 1.0 + np.cos(x) * np.cosh(x)

    roots = []
    x = 0.5
    step = 0.5
    while len(roots) < count:
        a, b = x, x + step
        if f(a) * f(b) < 0.0:
            lo, hi = a, b
            while hi - lo > 1e-13 * max(1.0, hi):
                midpt = 0.5 * (lo + hi)
                if f(lo) * f(midpt) <= 0.0:
                    hi = midpt
                else:
                    lo = midpt
            roots.append(0.5 * (lo + hi))
        x += step
    return np.array(roots) / length
