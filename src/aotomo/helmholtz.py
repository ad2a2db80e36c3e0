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

The pipeline's potential comes from measurements (``psi_from_field``); the
decomposition of the exact data (``ground_truth_psi``) is the ground truth
that the benchmark and the tests set against it. The oracles of the decomposition (the nodal pairing U(v), the edge pairing
U(grad v), and the decaying-gauge potential of the zero-padded data) are in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import (
    Grid,
    ScalarField,
    edge_average,
    edge_diff,
    edge_diff_transpose,
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
class PsiField:
    psi: ScalarField
    provenance: str  # "ground_truth" | "from_measurements"

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


def psi_from_field(field: ScalarField) -> PsiField:
    """Wrap a reconstructed potential, re-centered to zero mean."""
    centered = field.values - integrate(field)
    return PsiField(ScalarField(field.grid, centered), "from_measurements")
