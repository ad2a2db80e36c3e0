import numpy as np
import pytest

from aotomo import acousto, diffusion, fields, kernels, phantom


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
            if np.max(hi - lo) < 1e-13:
                break
        return 0.5 * (lo + hi)
    return invert
