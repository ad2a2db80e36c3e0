"""Weak Helmholtz decomposition of the internal vector data.

The measured object is the distributional field phi^2 grad(a), known only
through pairings U(v) = -int (a - a0) div(phi^2 v). Its curl-free potential
psi is the variational projection: find the zero-mean psi with

    <grad psi, grad v> = U(grad v)   for every test function v,

assembled with the compact edge-difference operators and solved directly, so
the divergence-free remainder is orthogonal to every discrete gradient up to
rounding.
The potential is continuous inside each inclusion and jumps across the
inclusion rims, which is what the segmentation stage exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    diff_axis0,
    dirichlet_laplace_solve,
    divergence,
    edge_average,
    edge_diff,
    edge_diff_transpose,
    gradient,
    inner,
    integrate,
    neumann_edge_coefficients,
    neumann_solve_weighted,
)
from .phantom import Phantom


@dataclass(frozen=True)
class WeakVectorFunctional:
    """The internal data phi^2 grad(a) as a functional on vector fields."""

    phantom: Phantom
    phi: ScalarField

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    def contrast(self):
        """Node samples of a - a0."""
        return self.phantom.sample(self.grid).values - self.phantom.a0

    def pair(self, v: VectorField) -> float:
        """U(v) = -int (a - a0) div(phi^2 v) with nodal central differences."""
        phi2 = self.phi.values**2
        q = self.contrast()
        w = VectorField(self.grid, phi2 * v.vx, phi2 * v.vy)
        return -inner(
            ScalarField(self.grid, q), divergence(w)
        )

    def pair_gradient(self, v: ScalarField) -> float:
        """U(grad v) in the edge pairing used by :func:`decompose`."""
        return float(np.sum(self.gradient_rhs() * v.values))

    def gradient_rhs(self):
        """Node vector b with b . v = U(grad v) in the edge pairing."""
        grid = self.grid
        ex, ey = self.edge_data()
        cx, cy = neumann_edge_coefficients(grid)
        # the edge form sums undivided differences, so pairing the edge data
        # against grad v carries one factor h per edge
        return edge_diff_transpose(grid.h * cx * ex, grid.h * cy * ey)

    def edge_data(self):
        """Edge representation of phi^2 grad(a - a0)."""
        p2x, p2y = edge_average(self.phi.values**2)
        dqx, dqy = edge_diff(self.contrast())
        return p2x * (dqx / self.grid.h), p2y * (dqy / self.grid.h)


@dataclass(frozen=True)
class ExtendedField:
    """A field on a padded square grid enclosing the measurement circles."""

    values: np.ndarray
    origin: float
    h: float

    @property
    def extent(self):
        return (self.values.shape[0] - 1) * self.h


@dataclass(frozen=True)
class PsiField:
    psi: ScalarField
    provenance: str  # "ground_truth" | "from_measurements"
    extended: ExtendedField | None = None

    @property
    def grid(self):
        return self.psi.grid


def decompose(U: WeakVectorFunctional) -> PsiField:
    """Curl-free potential of the weak vector data, zero-mean convention.

    Orientation follows the divergence-of-the-vector-solve convention, so
    U(grad v) + <grad psi, grad v> = 0 for every discrete test function v
    (the remainder is orthogonal to all gradients, to rounding).
    """
    grid = U.grid
    psi = -neumann_solve_weighted(grid, U.gradient_rhs())
    return PsiField(ScalarField(grid, psi), "ground_truth")


def ground_truth_psi(phantom: Phantom, phi: ScalarField) -> PsiField:
    """Decompose the exact forward data of a known phantom."""
    return decompose(WeakVectorFunctional(phantom, phi))


def free_space_potential(U: WeakVectorFunctional, pad=2.25) -> PsiField:
    """Potential of the zero-padded data on an enlarged grid.

    Solves -lap(psi) = div(U) with the data extended by zero and the far
    boundary clamped; in this gauge the potential decays away from the
    domain, so its circular transform needs no boundary bookkeeping. The
    returned field is the restriction to the unit square (zero-mean); the
    padded field rides along for transform evaluations.
    """
    grid = U.grid
    n, h = grid.n, grid.h
    npad = math.ceil(pad / h)
    nbig = n + 2 * npad
    origin = -npad * h
    u1, u2 = _nodal_components(U)
    big1 = np.zeros((nbig, nbig))
    big2 = np.zeros((nbig, nbig))
    big1[npad:npad + n, npad:npad + n] = u1
    big2[npad:npad + n, npad:npad + n] = u2
    rhs = diff_axis0(big1, h) + diff_axis0(big2.T, h).T
    big_psi = dirichlet_laplace_solve(rhs, h)
    inner_vals = big_psi[npad:npad + n, npad:npad + n].copy()
    restricted = ScalarField(grid, inner_vals)
    restricted = restricted - integrate(restricted)
    return PsiField(restricted, "ground_truth",
                    ExtendedField(big_psi, origin, h))


def _nodal_components(U: WeakVectorFunctional):
    """Node samples of the two components of phi^2 grad(a - a0)."""
    grid = U.grid
    q = U.contrast()
    g2 = U.phi.values**2
    gq = gradient(ScalarField(grid, q * g2))
    gg = gradient(ScalarField(grid, g2))
    return gq.vx - q * gg.vx, gq.vy - q * gg.vy


def psi_from_field(field: ScalarField) -> PsiField:
    """Wrap a reconstructed potential, re-centered to zero mean."""
    centered = field.values - integrate(field)
    return PsiField(ScalarField(field.grid, centered), "from_measurements")
