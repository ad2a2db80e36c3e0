"""Kernel properties that the pipeline tests do not check directly."""

import numpy as np
import pytest

from aotomo import kernels
from aotomo.acousto import AcousticConfig

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


def shell_distances(r, amp, eta, rng):
    """Node distances across the displaced shell, random and evenly spaced,
    plus the two shell edges."""
    return np.concatenate([
        rng.uniform(r - eta - amp, r + eta + amp, size=2000),
        np.linspace(r - eta, r + eta, 97),
        [r - eta, r + eta],
    ])


@pytest.mark.parametrize("eta", [1 / 16, 1 / 32, 0.02])
def test_radial_invert_monotone_branch_matches_bisection(
        eta, bisection_radial_invert):
    cfg = AcousticConfig(eta=eta)
    rng = np.random.default_rng(9)
    radii = np.concatenate([
        cfg.monotone_radius * (1.0 + np.array([1e-12, 1e-9, 1e-6, 1e-3])),
        np.linspace(cfg.monotone_radius * 1.01, cfg.R, 25),
    ])
    for r in radii:
        amp = eta * cfg.r0 / r
        assert amp / eta * kernels.BUMP_PRIME_SUP < 1.0
        d = shell_distances(r, amp, eta, rng)
        rho = kernels.radial_invert(d, r, amp, eta)
        ref = bisection_radial_invert(d, r, amp, eta)
        assert np.max(np.abs(rho - ref)) <= 1e-13, r
        residual = rho + amp * kernels.bump((r - rho) / eta) - d
        assert np.max(np.abs(residual)) <= 1e-12, r


@pytest.mark.parametrize("eta", [1 / 16, 0.02])
def test_radial_invert_near_the_flat_point(eta, bisection_radial_invert):
    # F'(s) = 1 - alpha*w'(s) is smallest at s = -3^(-1/4). Next to the fold
    # it nearly vanishes there, and a residual rounding error of 1e-16 moves
    # the root by 1e-16/F'(s): there Newton and bisection agree only to that
    # bound, and Newton hands the points it cannot settle to bisection.
    cfg = AcousticConfig(eta=eta)
    s_flat = -3.0**-0.25
    for r in cfg.monotone_radius * (1.0 + np.array([1e-12, 1e-9, 1e-6])):
        amp = eta * cfg.r0 / r
        alpha = amp / eta
        d_flat = r - eta * (s_flat - alpha * kernels.bump(s_flat))
        d = d_flat + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])
        rho = kernels.radial_invert(d, r, amp, eta)
        residual = rho + amp * kernels.bump((r - rho) / eta) - d
        assert np.max(np.abs(residual)) <= 1e-12, r
        ref = bisection_radial_invert(d, r, amp, eta)
        slope = 1.0 - alpha * kernels.bump_prime((r - ref) / eta)
        assert np.all(np.abs(rho - ref) <= 1e-13 + 1e-16 / slope), r


def test_radial_invert_is_identity_off_the_shell():
    cfg = AcousticConfig(eta=1 / 16)
    r = 0.9
    amp = cfg.eta * cfg.r0 / r
    d = np.concatenate([np.linspace(r - 0.3, r - cfg.eta, 50),
                        np.linspace(r + cfg.eta, r + 0.3, 50)])
    assert np.all(np.abs(r - d) >= cfg.eta)
    assert np.array_equal(kernels.radial_invert(d, r, amp, cfg.eta), d)


@pytest.mark.parametrize("eta", [1 / 16, 0.02])
def test_radial_invert_fold_branch_is_bisection(eta, bisection_radial_invert):
    cfg = AcousticConfig(eta=eta)
    rng = np.random.default_rng(10)
    for r in np.linspace(cfg.r0, cfg.monotone_radius * (1.0 - 1e-9), 7):
        amp = eta * cfg.r0 / r
        d = shell_distances(r, amp, eta, rng)
        assert np.array_equal(kernels.radial_invert(d, r, amp, eta),
                              bisection_radial_invert(d, r, amp, eta))


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_radial_invert_empty_and_scalar_input(r):
    eta = 1 / 16
    amp = eta * 0.25 / r
    empty = kernels.radial_invert(np.zeros(0), r, amp, eta)
    assert empty.shape == (0,)
    d = r + 0.3 * eta
    rho = kernels.radial_invert(np.float64(d), r, amp, eta)
    assert np.shape(rho) == ()
    assert abs(rho + amp * kernels.bump((r - rho) / eta) - d) <= 1e-12
