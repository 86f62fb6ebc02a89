"""Cubic Hermite semi-discretization of the beam.

The discrete space embeds in H^2 with clamped left end, so curvature energies
and the tip value/slope traces are exact nodal quantities. Element integrands
are polynomial and integrated exactly by Gauss quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg

from .beam_model import BeamParams
from .errors import DimensionMismatch, InvalidElementCount


@dataclass(frozen=True)
class Mesh:
    """Partition of [0, L] by strictly increasing nodes (``build_mesh`` makes
    it uniform)."""

    n_elements: int
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        if self.n_elements < 1:
            raise InvalidElementCount("mesh needs at least one element")
        if len(self.nodes) != self.n_elements + 1:
            raise ValueError("node count must be n_elements + 1")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")


def build_mesh(beam: BeamParams, n_elements: int) -> Mesh:
    """Uniform mesh on [0, L]."""
    if n_elements < 1:
        raise InvalidElementCount(f"n_elements must be >= 1, got {n_elements}")
    return Mesh(n_elements=n_elements, nodes=np.linspace(0.0, beam.length, n_elements + 1))


def hermite_shape(xi: float, h: float) -> np.ndarray:
    """Values of the four cubic Hermite shape functions at local xi in [0, 1]."""
    return np.array(
        [
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            h * xi * (1.0 - xi) ** 2,
            xi**2 * (3.0 - 2.0 * xi),
            h * xi**2 * (xi - 1.0),
        ]
    )


def hermite_shape_xx(xi: float, h: float) -> np.ndarray:
    """Second x-derivatives of the Hermite shape functions at local xi."""
    return np.array(
        [
            (-6.0 + 12.0 * xi) / h**2,
            (-4.0 + 6.0 * xi) / h,
            (6.0 - 12.0 * xi) / h**2,
            (-2.0 + 6.0 * xi) / h,
        ]
    )


def element_matrices(h: float, rho: float, rigidity: float) -> tuple[np.ndarray, np.ndarray]:
    """Exactly integrated element mass and stiffness (4-point Gauss)."""
    pts, wts = np.polynomial.legendre.leggauss(4)
    xi = 0.5 * (pts + 1.0)
    w = 0.5 * wts * h
    me = np.zeros((4, 4))
    ke = np.zeros((4, 4))
    for x, wx in zip(xi, w):
        n = hermite_shape(x, h)
        nxx = hermite_shape_xx(x, h)
        me += wx * np.outer(n, n)
        ke += wx * np.outer(nxx, nxx)
    return rho * me, rigidity * ke


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled matrices and tip selectors for one mesh.

    ``mass_beam`` is the rho-weighted Gram of the basis, ``stiffness_beam``
    the rigidity-weighted Gram of second derivatives, both with clamped DOFs
    eliminated when ``clamped``. ``mass_tip`` adds the payload inertia J on
    the tip-slope DOF and mass M on the tip-value DOF; it is the Gram block
    of the velocity field in the energy inner product. All three are dense
    symmetric matrices of half-bandwidth 3; no inverse is stored: readers
    that need mass_tip^-1 apply it by a banded Cholesky solve
    (``solve_mass_tip``), so the generator's linear/nonlinear split holds to
    roundoff of that solve.
    """

    beam: BeamParams
    mesh: Mesh
    clamped: bool
    n_dof: int
    mass_beam: np.ndarray
    stiffness_beam: np.ndarray
    mass_tip: np.ndarray

    @property
    def tip_value_index(self) -> int:
        return self.n_dof - 2

    @property
    def tip_slope_index(self) -> int:
        return self.n_dof - 1

    def tip_unit_columns(self) -> np.ndarray:
        """(n_dof, 2) unit columns at the tip-slope and tip-value DOFs."""
        cols = np.zeros((self.n_dof, 2))
        cols[self.tip_slope_index, 0] = 1.0
        cols[self.tip_value_index, 1] = 1.0
        return cols


def assemble(beam: BeamParams, mesh: Mesh, clamp_left: bool = True) -> DiscreteSystem:
    """Assemble beam matrices on a mesh.

    DOF layout is (value, slope) per node; with ``clamp_left`` the two DOFs of
    the first node are removed, realizing u(0) = u'(0) = 0. The element pair
    is integrated once per distinct element length and scattered by index
    arrays; every global entry sums at most two element entries, so the
    result does not depend on the order of the scatter.
    """
    n_el = mesh.n_elements
    n_full = 2 * (n_el + 1)
    lengths, which = np.unique(np.diff(mesh.nodes), return_inverse=True)
    pairs = [element_matrices(h, beam.rho, beam.lambda_rigidity) for h in lengths]
    dofs = 2 * np.arange(n_el)[:, None] + np.arange(4)
    grid = (dofs[:, :, None], dofs[:, None, :])
    mass = np.zeros((n_full, n_full))
    stiff = np.zeros((n_full, n_full))
    np.add.at(mass, grid, np.array([me for me, _ in pairs])[which])
    np.add.at(stiff, grid, np.array([ke for _, ke in pairs])[which])

    if clamp_left:
        mass = mass[2:, 2:]
        stiff = stiff[2:, 2:]
    n_dof = mass.shape[0]

    mass_tip = mass.copy()
    mass_tip[n_dof - 2, n_dof - 2] += beam.tip_mass
    mass_tip[n_dof - 1, n_dof - 1] += beam.tip_inertia

    return DiscreteSystem(
        beam=beam,
        mesh=mesh,
        clamped=clamp_left,
        n_dof=n_dof,
        mass_beam=mass,
        stiffness_beam=stiff,
        mass_tip=mass_tip,
    )


#: half-bandwidth of the Hermite beam matrices: an element couples the
#: (value, slope) DOFs of its two nodes
_BANDWIDTH = 3


def _upper_band(a: np.ndarray) -> np.ndarray:
    """LAPACK upper symmetric-band storage of a symmetric banded matrix."""
    lower, upper = scipy.linalg.bandwidth(a)
    if max(lower, upper) > _BANDWIDTH:
        raise DimensionMismatch(
            f"beam matrix has half-bandwidth {max(lower, upper)}, expected at most {_BANDWIDTH}"
        )
    ab = np.zeros((_BANDWIDTH + 1, a.shape[0]), order="F")  # LAPACK layout: no copy per call
    for k in range(_BANDWIDTH + 1):
        ab[_BANDWIDTH - k, k:] = np.diagonal(a, k)
    return ab


def solve_mass_tip(sys: DiscreteSystem, rhs: np.ndarray) -> np.ndarray:
    """mass_tip^-1 @ rhs (a vector or columns) by a banded Cholesky solve."""
    factor = scipy.linalg.cholesky_banded(_upper_band(sys.mass_tip))
    return scipy.linalg.cho_solve_banded((factor, False), rhs)


def displacement_gram(sys: DiscreteSystem, k1: float, k2: float) -> np.ndarray:
    """Gram block of the displacement field: curvature energy plus tip springs."""
    q = sys.stiffness_beam.copy()
    q[sys.tip_slope_index, sys.tip_slope_index] += k1
    q[sys.tip_value_index, sys.tip_value_index] += k2
    return q


def interpolate(sys: DiscreteSystem, values, slopes) -> np.ndarray:
    """Nodal interpolant of a function given by (value, slope) callables."""
    nodes = sys.mesh.nodes[1:] if sys.clamped else sys.mesh.nodes
    out = np.empty(2 * len(nodes))
    out[0::2] = [values(x) for x in nodes]
    out[1::2] = [slopes(x) for x in nodes]
    return out


def export_matrix(path, matrix: np.ndarray, comment: str = "") -> None:
    """Write a matrix in Matrix Market format for external inspection."""
    scipy.io.mmwrite(str(path), np.asarray(matrix), comment=comment)
