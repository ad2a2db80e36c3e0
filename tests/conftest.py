import numpy as np
import pytest

from aotomo import acousto, diffusion, fields, kernels, phantom


@pytest.fixture
def sparse_lus(monkeypatch):
    """The shapes of the matrices of every sparse LU built while the test
    runs."""
    import scipy.sparse.linalg as spla

    shapes = []
    splu = spla.splu

    def counted(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return shapes


@pytest.fixture(scope="session")
def grid65():
    return fields.Grid(65)


@pytest.fixture(scope="session")
def grid33():
    return fields.Grid(33)


@pytest.fixture(scope="session")
def disk_phantom():
    """Reference single-disk phantom used across the suite."""
    return phantom.Phantom(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[phantom.Inclusion("disk", (0.5, 0.5), radius=0.2,
                                      base=1.5, amplitude=0.3)],
    )


@pytest.fixture(scope="session")
def flat_disk_phantom():
    """Piecewise constant single disk (zero bump amplitude)."""
    return phantom.Phantom(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[phantom.Inclusion("disk", (0.5, 0.5), radius=0.2,
                                      base=1.5, amplitude=0.0)],
    )


@pytest.fixture(scope="session")
def two_disk_phantom():
    return phantom.Phantom(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[
            phantom.Inclusion("disk", (0.35, 0.4), radius=0.12,
                              base=1.5, amplitude=0.2),
            phantom.Inclusion("disk", (0.68, 0.62), radius=0.1,
                              base=0.55, amplitude=0.1),
        ],
    )


@pytest.fixture(scope="session")
def empty_phantom():
    return phantom.Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[])


@pytest.fixture(scope="session")
def phantom_family(disk_phantom, flat_disk_phantom, two_disk_phantom):
    ellipse = phantom.Phantom(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[phantom.Inclusion("ellipse", (0.55, 0.45),
                                      semi_axes=(0.16, 0.1), angle=0.5,
                                      base=1.25, amplitude=0.25)],
    )
    return [disk_phantom, flat_disk_phantom, two_disk_phantom, ellipse]


@pytest.fixture(scope="session")
def disk_context65(disk_phantom, grid65):
    """Cached unperturbed forward solve for the reference phantom."""
    return acousto.make_context(disk_phantom, grid65)


@pytest.fixture(scope="session")
def default_acoustics():
    return acousto.AcousticConfig()


@pytest.fixture(scope="session")
def bisection_radial_invert():
    """Reference radial inverse: plain vectorized bisection on the bracket
    [d - amp, d + amp], the method kernels.radial_invert keeps for the fold
    branch."""
    def invert(dist, r, amp, eta):
        d = np.asarray(dist, dtype=np.float64)
        lo = d - amp
        hi = d + amp
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            g = mid + amp * kernels.bump((r - mid) / eta) - d
            neg = g < 0.0
            lo = np.where(neg, mid, lo)
            hi = np.where(neg, hi, mid)
            if np.max(hi - lo, initial=0.0) < 1e-13:
                break
        return 0.5 * (lo + hi)
    return invert


@pytest.fixture(scope="session")
def loop_radial_integrals():
    """Reference shell radial integral: the composite trapezoid on a
    (radius, ray) lattice with one Python pass per group of jumps sharing a
    ray and a radial cell, the method that
    acousto._ShellQuadrature.radial_integrals vectorises."""
    def integrate(rho, lattice_vals, jumps):
        drho = rho[1] - rho[0]
        w = np.full(rho.size, drho)
        w[0] *= 0.5
        w[-1] *= 0.5
        per_ray = lattice_vals.T @ w
        if not jumps:
            return per_ray
        jump_rays, jump_radii, jump_below, jump_above = (
            np.concatenate(part) for part in zip(*jumps))
        cells = np.clip(((jump_radii - rho[0]) / drho).astype(int), 0,
                        rho.size - 2)
        order = np.lexsort((jump_radii, cells, jump_rays))
        jr = jump_rays[order]
        jc = cells[order]
        jx = jump_radii[order]
        jb = jump_below[order]
        ja = jump_above[order]
        key = jr.astype(np.int64) * rho.size + jc
        uniq, start = np.unique(key, return_index=True)
        bounds = list(start) + [len(key)]
        for u in range(len(uniq)):
            s0, s1 = bounds[u], bounds[u + 1]
            ray = jr[s0]
            cell = jc[s0]
            r_lo, r_hi = rho[cell], rho[cell + 1]
            g_lo = lattice_vals[cell, ray]
            g_hi = lattice_vals[cell + 1, ray]
            plain = 0.5 * drho * (g_lo + g_hi)
            xs = [r_lo] + list(jx[s0:s1]) + [r_hi]
            start_vals = [g_lo] + list(ja[s0:s1])
            end_vals = list(jb[s0:s1]) + [g_hi]
            exact = 0.0
            for piece in range(len(xs) - 1):
                exact += 0.5 * (xs[piece + 1] - xs[piece]) * (
                    start_vals[piece] + end_vals[piece])
            per_ray[ray] += exact - plain
        return per_ray
    return integrate
