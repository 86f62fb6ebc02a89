"""Cubic Hermite semi-discretization of the beam.

The discrete space embeds in H^2 with clamped left end, so curvature energies
and the tip value/slope traces are exact nodal quantities. Element integrands
are polynomial and integrated exactly by Gauss quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .beam_model import BeamParams
from .errors import DimensionMismatch, InvalidElementCount, NonFiniteResult, NotPositiveDefinite


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


#: half-bandwidth of the Hermite beam matrices: an element couples the
#: (value, slope) DOFs of its two nodes
_BANDWIDTH = 3


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled beam matrices of one clamped mesh (the DOFs of the node at
    x = 0 eliminated) in LAPACK upper symmetric-band storage: row
    ``_BANDWIDTH - k`` of a (4, n_dof) array holds the k-th superdiagonal.

    ``mass_band`` is the rho-weighted Gram of the basis, ``stiffness_band``
    the rigidity-weighted Gram of second derivatives. ``mass_tip_band`` adds
    the payload inertia J on the tip-slope DOF and mass M on the tip-value
    DOF (the Gram block of the velocity field in the energy inner product).
    It and its Cholesky factor ``mass_tip_factor`` are derived on
    construction, so ``dataclasses.replace`` keeps them consistent; no
    inverse is stored (``solve_mass_tip``). The bands are read-only and in
    Fortran order, so BLAS and LAPACK take them without a copy; ``dense``
    builds a dense matrix for dense algorithms.
    """

    beam: BeamParams
    mesh: Mesh
    mass_band: np.ndarray
    stiffness_band: np.ndarray
    mass_tip_band: np.ndarray = field(init=False, repr=False)
    mass_tip_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shape = (_BANDWIDTH + 1, 2 * self.mesh.n_elements)
        for name in ("mass_band", "stiffness_band"):
            band = np.asfortranarray(getattr(self, name), dtype=float)
            if band.shape != shape:
                raise DimensionMismatch(f"{name} has shape {band.shape}; the mesh needs band storage {shape}")
            if not np.isfinite(band).all():
                raise NonFiniteResult(f"{name} is not finite; check the beam parameters and the mesh")
            object.__setattr__(self, name, band)
        mass_tip = self.mass_band.copy(order="F")
        mass_tip[_BANDWIDTH, self.tip_value_index] += self.beam.tip_mass
        mass_tip[_BANDWIDTH, self.tip_slope_index] += self.beam.tip_inertia
        if not np.isfinite(mass_tip).all():
            raise NonFiniteResult("mass_tip_band is not finite; check the tip mass and inertia")
        factor, info = scipy.linalg.lapack.dpbtrf(mass_tip)
        if info != 0:
            raise NotPositiveDefinite("tip mass matrix is not positive definite")
        object.__setattr__(self, "mass_tip_band", mass_tip)
        object.__setattr__(self, "mass_tip_factor", factor)
        for name in ("mass_band", "stiffness_band", "mass_tip_band", "mass_tip_factor"):
            getattr(self, name).setflags(write=False)

    @property
    def n_dof(self) -> int:
        return self.mass_band.shape[1]

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


def assemble(beam: BeamParams, mesh: Mesh) -> DiscreteSystem:
    """Assemble the clamped beam's band matrices on a mesh.

    DOF layout is (value, slope) per node; the two DOFs of the first node are
    dropped, realizing u(0) = u'(0) = 0. The element pair is integrated once
    per distinct element length and the upper triangle of each element
    matrix is scattered by index arrays straight into band storage; every
    global entry sums at most two element entries, so the result does not
    depend on the order of the scatter.
    """
    n_el = mesh.n_elements
    lengths, which = np.unique(np.diff(mesh.nodes), return_inverse=True)
    a, b = np.triu_indices(4)
    # element entry (a, b) of element e sits at global (2e + a - 2, 2e + b - 2)
    # after the clamp, which is band row _BANDWIDTH + a - b
    cols = 2 * np.arange(n_el)[:, None] + b - 2
    kept = cols >= b - a
    index = (np.broadcast_to(_BANDWIDTH + a - b, cols.shape)[kept], cols[kept])
    mass = np.zeros((_BANDWIDTH + 1, 2 * n_el), order="F")  # LAPACK layout: no copy per call
    stiff = np.zeros_like(mass)
    # extreme parameters overflow here; DiscreteSystem rejects the bands by name
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pairs = np.array([element_matrices(h, beam.rho, beam.lambda_rigidity) for h in lengths])[which]
        np.add.at(mass, index, pairs[:, 0, a, b][kept])
        np.add.at(stiff, index, pairs[:, 1, a, b][kept])
    return DiscreteSystem(beam=beam, mesh=mesh, mass_band=mass, stiffness_band=stiff)


def dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix held in upper symmetric-band storage."""
    n = band.shape[1]
    out = np.zeros((n, n))
    for k in range(_BANDWIDTH + 1):
        i = np.arange(n - k)
        out[i, i + k] = out[i + k, i] = band[_BANDWIDTH - k, k:]
    return out


def _band_mv(band: np.ndarray, x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """alpha * A @ x for A in upper symmetric-band storage, for a vector x or
    each row of a block x. A block takes one BLAS band product per row, so a
    row gets the same bits as the vector alone. The loop keeps the bits of
    the recorded tangent norms: a diagonal-at-a-time block product moves the
    generator's stiff load, which cancels against the tip loads, and moved
    the tangent-norm column of the benchmark's n=128 run by 1.9e-9."""
    if x.ndim == 1:
        return scipy.linalg.blas.dsbmv(_BANDWIDTH, alpha, band, x)
    return np.array([scipy.linalg.blas.dsbmv(_BANDWIDTH, alpha, band, row) for row in x]).reshape(x.shape)


def _band_dot(band: np.ndarray, a: np.ndarray, b: np.ndarray):
    """a . (A @ b) for A in upper symmetric-band storage, for vectors or for
    each pair of rows, with A @ b built a diagonal at a time over all rows:
    a vector gets the same bits alone as a row of a block."""
    ab = band[_BANDWIDTH] * b
    for k in range(1, _BANDWIDTH + 1):
        diagonal = band[_BANDWIDTH - k, k:]
        ab[..., :-k] += diagonal * b[..., k:]
        ab[..., k:] += diagonal * b[..., :-k]
    return np.vecdot(a, ab)


def solve_mass_tip(sys: DiscreteSystem, rhs: np.ndarray) -> np.ndarray:
    """mass_tip^-1 @ rhs (a vector or columns) with the stored banded
    Cholesky factor."""
    return scipy.linalg.lapack.dpbtrs(sys.mass_tip_factor, rhs)[0]


def displacement_gram(sys: DiscreteSystem, k1: float, k2: float) -> np.ndarray:
    """Gram block of the displacement field in band storage: curvature
    energy plus the tip springs."""
    q = sys.stiffness_band.copy(order="F")
    q[_BANDWIDTH, sys.tip_slope_index] += k1
    q[_BANDWIDTH, sys.tip_value_index] += k2
    return q


def interpolate(sys: DiscreteSystem, values, slopes) -> np.ndarray:
    """Nodal interpolant of a function given by (value, slope) callables."""
    nodes = sys.mesh.nodes[1:]
    out = np.empty(2 * len(nodes))
    out[0::2] = [values(x) for x in nodes]
    out[1::2] = [slopes(x) for x in nodes]
    return out

