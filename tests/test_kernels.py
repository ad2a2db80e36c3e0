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


def test_stacked_gather_matches_single_fields():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3, N, N))
    # points partly outside the unit square, where gather reads zero
    px = rng.random((40, 50)) * 1.3 - 0.15
    py = rng.random((40, 50)) * 1.3 - 0.15
    got = kernels.bilinear_gather(stack, px, py, H)
    assert got.shape == (3, 40, 50)
    inside = (px >= 0) & (px <= 1) & (py >= 0) & (py <= 1)
    assert inside.any() and not inside.all()
    gx = np.clip(px / H, 0.0, N - 1 - 1e-12)
    gy = np.clip(py / H, 0.0, N - 1 - 1e-12)
    ix = gx.astype(int)
    iy = gy.astype(int)
    tx = gx - ix
    ty = gy - iy
    for k, f in enumerate(stack):
        single = kernels.bilinear_gather(f, px, py, H)
        assert single.shape == px.shape
        ref = np.where(inside, (f[ix, iy] * (1 - tx) * (1 - ty)
                                + f[ix + 1, iy] * tx * (1 - ty)
                                + f[ix, iy + 1] * (1 - tx) * ty
                                + f[ix + 1, iy + 1] * tx * ty), 0.0)
        assert np.max(np.abs(got[k] - single)) <= 1e-15
        assert np.max(np.abs(single - ref)) <= 1e-15 * np.max(np.abs(f))


def test_box_corners_match_the_whole_grid():
    rng = np.random.default_rng(10)
    f = rng.standard_normal((N, N))
    # points all over the unit square and past it
    px = rng.random(4000) * 1.3 - 0.15
    py = rng.random(4000) * 1.3 - 0.15
    for box in [(5, 20, 9, 31), (0, N, 0, N), (0, 12, 17, N)]:
        i0, i1, j0, j1 = box
        index, weight = kernels.box_corners(px, py, H, box)
        crop = f[i0:i1, j0:j1].ravel()
        got = np.sum(crop[index] * weight, axis=0)
        # a point in one of the box's cells reads what the whole grid's
        # gather reads, bit for bit
        inside = ((px >= i0 * H) & (px <= (i1 - 1) * H)
                  & (py >= j0 * H) & (py <= (j1 - 1) * H)
                  & (px <= 1.0) & (py <= 1.0))
        assert inside.any() and not inside.all()
        keep, full_index, full_weight = kernels.bilinear_corners(
            px[inside], py[inside], H, N)
        assert keep.all()
        assert np.array_equal(weight[:, inside], full_weight)
        ref = np.sum(f.ravel()[full_index] * full_weight, axis=0)
        assert np.array_equal(got[inside], ref)
        # any other point reads the corners of a cell of the box
        assert index.min() >= 0 and index.max() < crop.size
        assert np.all((weight >= 0.0) & (weight <= 1.0))
        assert np.allclose(weight.sum(axis=0), 1.0, rtol=0, atol=1e-15)


def test_stacked_robin_apply_matches_single_fields():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, N, N))
    a = rng.random((3, N, N))
    got = kernels.robin_apply(x, a, 0.1, H)
    for k in range(3):
        assert np.array_equal(got[k], kernels.robin_apply(x[k], a[k], 0.1, H))


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


def one_at_a_time(d, r, amp, eta):
    return np.array([kernels.radial_invert(di, r, amp, eta) for di in d])


def test_radial_invert_root_does_not_depend_on_its_batch():
    # each point stops on its own Newton step: a batch that stopped on its
    # slowest point moved 35 of these 80,000 roots by an ulp
    eta = 1 / 32
    cfg = AcousticConfig(eta=eta)
    rng = np.random.default_rng(0)
    for r in np.linspace(0.6, 1.75, 200):
        amp = eta * cfg.r0 / r
        d = rng.uniform(r - eta - amp, r + eta + amp, 400)
        assert np.array_equal(kernels.radial_invert(d, r, amp, eta),
                              one_at_a_time(d, r, amp, eta)), r


def test_fold_branch_root_does_not_depend_on_its_batch():
    # each point stops on its own bracket width
    eta = 1 / 16
    cfg = AcousticConfig(eta=eta)
    rng = np.random.default_rng(1)
    for r in np.linspace(cfg.r0, cfg.monotone_radius * (1.0 - 1e-9), 5):
        amp = eta * cfg.r0 / r
        assert amp / eta * kernels.BUMP_PRIME_SUP >= 1.0
        d = rng.uniform(r - eta - amp, r + eta + amp, 100)
        assert np.array_equal(kernels.radial_invert(d, r, amp, eta),
                              one_at_a_time(d, r, amp, eta)), r
