"""Linear-operator diagnostics and trajectory decay metrics: the spectrum
of the linear generator as the roots of its rank-p secular determinant, the
skew-adjointness defect of the projected operator (beam, tip inertia, linear
tip springs and dampers, no blocks) from the banded beam matrices, beam
frequencies, and the decay and integrability metrics of recorded runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from .beam_model import ClosedLoopConfig
from .discretization import DiscreteSystem, _band_mv, dense, displacement_gram, solve_mass_tip
from .dynamics import RemainderMap
from .errors import EigenSolverFailure, EmptyTrajectory, NonFiniteResult, NotPositiveDefinite

UNSTABLE_TOL = 1e-8
#: sweeps after which an iteration still moving is a failure: Ehrlich-Aberth
#: roots of the spectrum, subspace iteration of the beam frequencies
MAX_SWEEPS = 100
#: roots evaluated together: bounds the (roots x modes) and pair-sum temporaries
_ROOT_CHUNK = 64


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a generator, sorted by real part (descending), and the
    Ehrlich-Aberth sweeps that found them."""

    eigenvalues: np.ndarray
    max_real_part: float
    n_unstable: int
    sweeps: int

    @classmethod
    def of(cls, eigenvalues: np.ndarray, sweeps: int) -> SpectrumReport:
        eigs = eigenvalues[np.argsort(-eigenvalues.real)]
        return cls(eigs, float(eigs.real.max()), int(np.sum(eigs.real > UNSTABLE_TOL)), sweeps)

    def as_dict(self) -> dict:
        return {
            "max_real_part": self.max_real_part,
            "n_unstable": self.n_unstable,
            "count": int(len(self.eigenvalues)),
            "sweeps": self.sweeps,
        }


def require_positive_gram(gram_band: np.ndarray) -> np.ndarray:
    """``gram_band`` if the banded displacement Gram (``displacement_gram``)
    is positive definite, that is, if its banded Cholesky factorization
    succeeds; raises NotPositiveDefinite otherwise."""
    if scipy.linalg.lapack.dpbtrf(gram_band)[1] != 0:
        raise NotPositiveDefinite(
            "energy Gram matrix is not positive definite; check spring slopes and storage Hessians")
    return gram_band


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a^-1 b) for each pair of matrices of two stacks; inf where a is singular."""
    try:
        return np.trace(np.linalg.solve(a, b), axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.array([np.inf])
        return np.concatenate([_traces(a[i : i + 1], b[i : i + 1]) for i in range(len(a))])


def _standard_form(factor: np.ndarray, band: np.ndarray) -> np.ndarray:
    """C = U^-T A U^-1 in Fortran order, for A in upper symmetric-band storage
    and U an upper banded Cholesky factor: two banded triangular solves on
    dense A, then the mean of C and C^T, so that C is exactly symmetric."""
    x = scipy.linalg.lapack.dtbtrs(factor, dense(band).T, trans="T", overwrite_b=1)[0]  # U^-T A; A = A^T
    c = scipy.linalg.lapack.dtbtrs(factor, np.asfortranarray(x.T), trans="T", overwrite_b=1)[0]
    np.copyto(x, c.T)  # a transposing copy and a contiguous sum: a third of the time of c + c.T
    x += c
    x *= 0.5
    return x


class SecularFunction:
    """det(lambda - G) for the linear generator G = G_beam + P L E_q^T of
    ``RemainderMap`` in its rank-p secular form, lambda^dim z prod_k
    (lambda^2 + omega_k^2) det(I - L R(lambda)), R = E_q^T (lambda -
    G_beam)^-1 P, at O(n) per root. R needs only the tip receptance T(lambda)
    = sum_k w_k w_k^T / (lambda^2 + omega_k^2) of the bare beam's modes K
    phi_k = omega_k^2 M_tip phi_k, w_k the tip rows of phi_k: its tip-load
    columns are (T; lambda T; 0), its block columns (0; 0; I / lambda).

    The modes come from the pencil (A, B) = (K, M_tip), accurate at the fast
    end, or with ``slow_end`` from (M_tip, K) as in ``beam_frequencies``,
    accurate at the slow end. With U the banded Cholesky factor of B (the
    stored ``mass_tip_factor``, or one ``dpbtrf`` of K), the standard matrix
    C = U^-T A U^-1 is reduced to a tridiagonal T = Q^T C Q from the clamped
    end by Householder reflectors (Golub & Van Loan, Matrix Computations,
    8.3), and T = Z diag Z^T is solved by divide and conquer. The modes U^-1
    Q Z are never formed: their tip rows are the tip rows of Q (the
    reflectors applied to two unit vectors) times Z, through U's trailing
    2 x 2 block, O(n^2) work; ``eigenvector`` applies Z, Q and U^-1 to one
    vector.
    """

    def __init__(self, sys: DiscreteSystem, config: ClosedLoopConfig, slow_end: bool = False):
        rem = RemainderMap(sys, config)
        self.trace = np.trace(rem.slopes @ rem.placement[rem.q_indices])  # tr G
        # a block state that feeds no other state and is fed by none is an exact
        # root, its own diagonal slope; it leaves the secular function
        off = rem.slopes.copy()
        off[np.arange(2, rem.p), np.arange(4, rem.m)] = 0.0
        alone = np.flatnonzero(~off[:, 4:].any(axis=0) & ~off[2:].any(axis=1))
        self.exact, self.coupled = np.diag(rem.slopes[2:, 4:])[alone], np.delete(np.arange(rem.p - 2), alone)
        self.slopes = np.delete(np.delete(rem.slopes, 2 + alone, axis=0), 4 + alone, axis=1)
        self.dim_z = len(self.coupled)
        lapack, n = scipy.linalg.lapack, sys.n_dof
        factor, other = sys.mass_tip_factor, sys.stiffness_band
        if slow_end:
            factor, info = lapack.dpbtrf(sys.stiffness_band)
            if info != 0:
                raise EigenSolverFailure(f"the bare beam's stiffness is not positive definite (dpbtrf info {info})")
            other = sys.mass_tip_band
        lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])  # dsytrd's default n runs unblocked
        c, diagonal, off_diagonal, tau, _ = lapack.dsytrd(_standard_form(factor, other), lower=1, lwork=lwork,
                                                          overwrite_a=1)
        reflectors = np.asfortranarray(c[1:, :-1])  # Q = diag(1, Q') and Q' in the layout of a QR factor
        del c  # the standard matrix goes before dstevd allocates Z and its workspace
        values, z, info = lapack.dstevd(diagonal, off_diagonal)
        if info != 0:
            raise EigenSolverFailure(f"modes of the bare beam failed (dstevd info {info})")
        if slow_end:  # 1 / omega_k^2 and K-orthonormal modes, slowest first
            values, z = 1.0 / values[::-1], z[:, ::-1] / np.sqrt(values[::-1])
        self.omega = np.sqrt(values)
        self._basis = factor, reflectors, tau, z  # the modes U^-1 Q Z
        unit = np.eye(n, 2, 2 - n)  # e at the tip value and tip slope DOFs
        unit[1:] = lapack.dormqr("L", "T", reflectors, tau, unit[1:], 2)[0]
        # U^-1 is upper triangular: its two tip rows are those of the trailing block's inverse
        self.tips = lapack.dtbtrs(factor[:, -2:], unit.T @ z)[0][::-1]  # w_k as columns
        self._outer = (self.tips[:, None] * self.tips[None, :]).reshape(4, -1).T  # w_k w_k^T as rows

    def _pieces(self, lam: np.ndarray):
        """At each root of ``lam``: 1 / (lambda^2 + omega_k^2) per mode (factored, to
        keep its relative accuracy next to a pole), I - L R and L R'."""
        s = 1.0 / ((lam[:, None] - 1j * self.omega) * (lam[:, None] + 1j * self.omega))
        t = (s @ self._outer).reshape(-1, 2, 2)
        t_prime = (-2.0 * lam)[:, None, None] * ((s * s) @ self._outer).reshape(-1, 2, 2)
        l_u, l_v, l_z = self.slopes[:, :2], self.slopes[:, 2:4], self.slopes[:, 4:]
        lam3 = lam[:, None, None]
        tip = l_u + lam3 * l_v
        lr = np.concatenate([tip @ t, l_z / lam3], axis=2)
        lr_prime = np.concatenate([tip @ t_prime + l_v @ t, -l_z / lam3**2], axis=2)
        return s, np.eye(len(self.slopes)) - lr, lr_prime

    def log_derivative(self, lam: np.ndarray) -> np.ndarray:
        """det(lambda - G)'/det(lambda - G) at each root of ``lam``: dim z /
        lambda + sum_k 2 lambda / (lambda^2 + omega_k^2) - tr((I - L R)^-1 L
        R'). Infinite where the root is exact: I - L R is singular, or lambda
        sits on a pole (0 or a +-i omega_k the feedback does not move)."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s, matrix, lr_prime = self._pieces(lam)
            value = self.dim_z / lam + 2.0 * lam * s.sum(axis=1) - _traces(matrix, lr_prime)
        return np.where((lam == 0.0) | np.isinf(s).any(axis=1), np.inf, value)

    def roots(self) -> tuple[np.ndarray, int]:
        """All 2 n_dof + dim z eigenvalues of G and the sweeps taken: the
        exact roots of the decoupled block states, and the others by
        Ehrlich-Aberth iteration from +-i omega_k - 1e-7 omega_k and from the
        eigenvalues of L's block-block part, each moved by its own offset. A
        sweep moves each unconverged root by 1 / (log_derivative - sum_j 1 /
        (lambda_i - lambda_j)) until that is at most 1e-14 |lambda| (or
        |lambda| at most 1e-14 of it: a root at 0). Raises EigenSolverFailure
        on a non-finite root, after MAX_SWEEPS sweeps, or when the roots miss
        tr G by more than 1e-10 max |lambda| (more starts than an m-fold root
        holds can settle on it together)."""
        block = np.linalg.eigvals(self.slopes[2:, 4:])
        offsets = 1e-2 * (1.0 + np.abs(block)) * np.exp(1j * (0.5 + np.arange(self.dim_z)))
        beam = -1e-7 * self.omega + 1j * self.omega
        roots = np.concatenate([beam, beam.conj(), block + offsets])
        active = np.arange(len(roots))
        for sweep in range(1, MAX_SWEEPS + 1):
            moving = []
            for start in range(0, len(active), _ROOT_CHUNK):
                chunk = active[start : start + _ROOT_CHUNK]
                lam, gaps = roots[chunk], roots[chunk, None] - roots
                gaps[np.arange(len(chunk)), chunk] = np.inf  # no pair term of a root with itself
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # caught below
                    delta = 1.0 / (self.log_derivative(lam) - (1.0 / gaps).sum(axis=1))
                roots[chunk] = lam - delta
                step, root = np.abs(delta), np.abs(roots[chunk])
                moving.append(~((step <= 1e-14 * root) | (root <= 1e-14 * step)))
            if not np.all(np.isfinite(roots)):
                raise EigenSolverFailure(f"{np.sum(~np.isfinite(roots))} of {len(roots)} eigenvalues are not finite")
            active = active[np.concatenate(moving)]
            if not len(active):
                roots = np.concatenate([roots, self.exact])
                if not abs(roots.sum() - self.trace) <= 1e-10 * np.abs(roots).max():
                    raise EigenSolverFailure(f"the eigenvalues miss the trace of G by {abs(roots.sum() - self.trace):.3e}")
                return roots, sweep
        raise EigenSolverFailure(
            f"{len(active)} of {len(roots)} eigenvalues did not converge in {MAX_SWEEPS} Ehrlich-Aberth sweeps")

    def eigenvector(self, lam: complex) -> np.ndarray:
        """The eigenvector (lambda - G_beam)^-1 P c of the root ``lam``, c the null vector of I - L R:
        u = sum_k phi_k w_k^T c_tip / (lambda^2 + omega_k^2), v = lambda u, z = c_z / lambda."""
        s, matrix, _ = self._pieces(np.array([lam]))
        c = np.linalg.svd(matrix[0])[2][-1].conj()
        factor, reflectors, tau, vectors = self._basis
        weights = s[0] * (c[:2] @ self.tips)
        u = vectors @ np.column_stack([weights.real, weights.imag])  # real and imaginary parts as columns
        u[1:] = scipy.linalg.lapack.dormqr("L", "N", reflectors, tau, u[1:], 2)[0]
        u = scipy.linalg.lapack.dtbtrs(factor, u)[0]
        u = u[:, 0] + 1j * u[:, 1]
        z = np.zeros(len(self.coupled) + len(self.exact), complex)
        z[self.coupled] = c[2:] / lam
        return np.concatenate([u, lam * u, z])


def spectrum(sys: DiscreteSystem, config: ClosedLoopConfig) -> SpectrumReport:
    """Every eigenvalue of the linear generator of (sys, config), as the
    roots of its ``SecularFunction``; nothing of size N x N is formed. Raises
    NotPositiveDefinite, before any eigensolve, when the energy Gram is
    indefinite, and EigenSolverFailure when the roots do not converge."""
    require_positive_gram(displacement_gram(
        sys, config.sd_rotational.spring_slope, config.sd_translational.spring_slope))
    return SpectrumReport.of(*SecularFunction(sys, config).roots())


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
        return asdict(self)


def skew_check(
    sys: DiscreteSystem,
    spring_constants: tuple[float, float],
    damper_constants: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Relative skew-adjointness defect ||G^T Q + Q G||_F / ||Q G||_F of the
    projected generator G over (u, v): beam, tip inertia, linear tip springs
    K and dampers D, no blocks, in the energy Gram Q = diag(K_q, M_tip). Q G
    = [[0, K_q], [V_K, V_D]] (V_K = -M_tip mass_tip^-1 K_q, V_D the same of D,
    nonzero in the two tip columns only) is summed block by block, never
    formed. Roundoff-small without dampers; with them exactly 2 ||D||_F / ||Q
    G||_F (1.8e-10 at n=256 for dampers (1, 0)). Raises NotPositiveDefinite
    for an indefinite Q and NonFiniteResult for a defect that is not finite."""
    k_q = dense(require_positive_gram(displacement_gram(sys, *spring_constants)))
    v_k, v_d = (_band_mv(sys.mass_tip_band, solve_mass_tip(sys, columns).T, -1.0)  # V_K^T; V_D's tip columns as rows
                for columns in (k_q, sys.tip_unit_columns() * damper_constants))
    tip_block = v_d[:, [sys.tip_slope_index, sys.tip_value_index]]  # V_D[tips, tips]^T
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = np.vdot(k_q, k_q) + np.vdot(v_k, v_k) + np.vdot(v_d, v_d)
        v_k += k_q  # K_q + V_K^T: K_q is symmetric
        # ||V_D + V_D^T||^2 = 2 ||V_D||^2 + 2 sum_ij V_D[i, j] V_D[j, i]
        defect = np.sqrt(2.0 * (np.vdot(v_k, v_k) + np.vdot(v_d, v_d) + np.vdot(tip_block, tip_block.T)) / norm2)
    if not np.isfinite(defect):
        raise NonFiniteResult(f"the skew-adjointness defect is {defect}: the generator's blocks overflow")
    return float(defect)


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
    """The ``count`` lowest angular frequencies of the bare beam, K phi =
    omega^2 M phi, by subspace iteration on the inverted pencil (M, K), best
    conditioned at the slow end (Parlett, The Symmetric Eigenvalue Problem,
    ch. 14): ``count`` + 4 vectors X (at most n_dof, fixed random start) go to
    Y = K^-1 M X by the banded Cholesky factor of K, then Rayleigh-Ritz on
    (Y^T M Y, Y^T K Y = Y^T M X) gives Ritz values 1 / omega^2, until each
    wanted one moves by at most 1e-15 of the largest; each sweep scales X's
    rows to norms in [1/2, 1) by exact powers of two, so X keeps no stiffness
    scale. Raises EigenSolverFailure on an indefinite stiffness, a projection
    that overflows or after MAX_SWEEPS sweeps (the bands of a DiscreteSystem
    are finite), and NonFiniteResult when a wanted Ritz value underflows."""
    factor, info = scipy.linalg.lapack.dpbtrf(sys.stiffness_band)
    if info != 0:
        raise EigenSolverFailure(f"the bare beam's stiffness is not positive definite (dpbtrf info {info})")
    x = np.random.default_rng(0).standard_normal((min(count + 4, sys.n_dof), sys.n_dof))  # X as rows
    previous = np.inf
    for _ in range(MAX_SWEEPS):
        mx = _band_mv(sys.mass_band, x)
        y = scipy.linalg.lapack.dpbtrs(factor, mx.T)[0].T
        try:  # ValueError: a projection that is not finite
            with np.errstate(over="ignore", invalid="ignore"):
                mu, ritz = scipy.linalg.eigh(y @ _band_mv(sys.mass_band, y).T, y @ mx.T)
        except (ValueError, scipy.linalg.LinAlgError) as exc:
            raise EigenSolverFailure(f"Rayleigh-Ritz step of the bare beam failed: {exc}") from exc
        mu, x = mu[::-1], ritz[:, ::-1].T @ y  # largest 1 / omega^2 first
        x = np.ldexp(x, -np.frexp(np.linalg.norm(x, axis=1))[1][:, None])
        if np.all(np.abs(mu[:count] - previous) <= 1e-15 * mu[0]):  # eigh errs relative to the largest
            if not np.all(mu[:count] > 0.0):
                raise NonFiniteResult(f"a bare-beam frequency omega is not finite: its Ritz value 1 / omega^2 "
                                      f"is {float(mu[:count].min())!r}; check rho and lambda_rigidity")
            return 1.0 / np.sqrt(mu[:count])
        previous = mu[:count]
    raise EigenSolverFailure(f"bare-beam frequencies did not converge in {MAX_SWEEPS} subspace iteration sweeps")


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
