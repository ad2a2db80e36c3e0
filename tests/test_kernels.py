"""Kernel properties that the pipeline tests do not check directly."""

import numpy as np

from aotomo import kernels

N = 33
H = 1.0 / (N - 1)


def test_scatter_is_gather_transpose():
    rng = np.random.default_rng(7)
    f = rng.standard_normal((N, N))
    # points partly outside the unit square, where gather reads zero
    px = rng.random(4000) * 1.3 - 0.15
    py = rng.random(4000) * 1.3 - 0.15
    vals = rng.standard_normal(4000)
    gathered = kernels.bilinear_gather(f, px, py, H)
    out = np.zeros((N, N))
    kernels.bilinear_scatter(vals, px, py, H, out)
    lhs = float(np.sum(gathered * vals))
    rhs = float(np.sum(f * out))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_radial_invert_solves():
    rng = np.random.default_rng(8)
    d = rng.uniform(0.8, 1.1, size=500)
    r, amp, eta = 0.95, 0.005, 0.02
    rho = kernels.radial_invert(d, r, amp, eta)
    residual = rho + amp * kernels.bump((r - rho) / eta) - d
    assert np.max(np.abs(residual)) <= 1e-12
