import numpy as np
import pytest

from aotomo import fields, phantom
from aotomo.phantom import (
    Inclusion,
    Phantom,
    PhantomError,
    from_dict,
    load_phantom,
    save_phantom,
    to_dict,
)
from reference import check_transversality


class TestEval:
    def test_background_outside(self, disk_phantom):
        assert disk_phantom.eval(0.1, 0.1) == 1.0

    def test_flat_disk_center(self, flat_disk_phantom):
        assert flat_disk_phantom.eval(0.5, 0.5) == 1.5

    def test_bump_profile(self):
        p = Phantom(a0=1.0, lower=0.5, upper=3.0, inclusions=[
            Inclusion("disk", (0.5, 0.5), radius=0.2, base=2.0,
                      amplitude=0.5)])
        assert p.eval(0.5, 0.5) == pytest.approx(2.5)
        # near the rim the value approaches the base
        assert p.eval(0.5 + 0.1999, 0.5) == pytest.approx(2.0, abs=1e-8)

    def test_bounds_respected_on_samples(self, phantom_family, grid65):
        for p in phantom_family:
            vals = p.sample(grid65).values
            assert vals.min() >= p.lower - 1e-12
            assert vals.max() <= p.upper + 1e-12

    def test_ellipse_rotation(self):
        inc = Inclusion("ellipse", (0.5, 0.5), semi_axes=(0.2, 0.1),
                        angle=np.pi / 2, base=1.5)
        # rotated by 90 degrees: long axis along y
        assert inc.contains(0.5, 0.68)
        assert not inc.contains(0.68, 0.5)


class TestDisplacedSampling:
    def test_zero_displacement(self, disk_phantom, grid65):
        disp = fields.VectorField(grid65, np.zeros(grid65.shape),
                                  np.zeros(grid65.shape))
        a = disk_phantom.sample(grid65)
        b = disk_phantom.sample_displaced(grid65, disp)
        np.testing.assert_array_equal(a.values, b.values)

    def test_constant_phantom_any_displacement(self, empty_phantom, grid65):
        rng = np.random.default_rng(0)
        disp = fields.VectorField(grid65,
                                  0.01 * rng.standard_normal(grid65.shape),
                                  0.01 * rng.standard_normal(grid65.shape))
        b = empty_phantom.sample_displaced(grid65, disp)
        assert np.max(np.abs(b.values - 1.0)) == 0.0

    def test_constant_shift_equals_moved_center(self, grid65):
        delta = 0.01
        p1 = Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
            Inclusion("disk", (0.5, 0.5), radius=0.2, base=1.5,
                      amplitude=0.3)])
        p2 = Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
            Inclusion("disk", (0.5 - delta, 0.5), radius=0.2, base=1.5,
                      amplitude=0.3)])
        ones = np.full(grid65.shape, delta)
        disp = fields.VectorField(grid65, ones, np.zeros(grid65.shape))
        a = p1.sample_displaced(grid65, disp)
        b = p2.sample(grid65)
        np.testing.assert_array_equal(a.values, b.values)


class TestValidation:
    def test_overlapping_rejected(self):
        with pytest.raises(PhantomError, match="disjoint"):
            Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
                Inclusion("disk", (0.4, 0.5), radius=0.15, base=1.5),
                Inclusion("disk", (0.6, 0.5), radius=0.15, base=1.2),
            ])

    def test_touching_search_region_rejected(self):
        with pytest.raises(PhantomError, match="boundary"):
            Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
                Inclusion("disk", (0.2, 0.5), radius=0.12, base=1.5)])

    def test_out_of_bounds_values_rejected(self):
        with pytest.raises(PhantomError, match="values"):
            Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
                Inclusion("disk", (0.5, 0.5), radius=0.2, base=1.9,
                          amplitude=0.5)])

    def test_margin_floor(self):
        with pytest.raises(PhantomError, match="margin"):
            Phantom(a0=1.0, lower=0.5, upper=2.0, d_margin=0.05)

    def test_ellipse_disk_disjoint_accepted(self):
        Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
            Inclusion("disk", (0.3, 0.3), radius=0.1, base=1.5),
            Inclusion("ellipse", (0.65, 0.65), semi_axes=(0.15, 0.08),
                      angle=0.3, base=1.2),
        ])


class TestTransversality:
    def test_disjoint_wavefront(self, disk_phantom):
        # circle far from the inclusion rim
        assert check_transversality(disk_phantom, (1.5, 0.5), 0.3, 0.02)

    def test_concentric_equal_curvature_fails(self):
        # inclusion rim with the same curvature as the wavefront, tangentially
        p = Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
            Inclusion("disk", (0.5, 0.5), radius=0.25, base=1.5)])
        # source aligned so the wavefront of radius 0.25 touches the rim
        y = (0.5, 0.5 + 0.5)
        assert not check_transversality(p, y, 0.25, 0.02)

    def test_transversal_crossing_passes(self, disk_phantom):
        y = (1.5, 0.5)
        assert check_transversality(disk_phantom, y, 0.95, 0.02)


class TestJson:
    def test_roundtrip(self, tmp_path, two_disk_phantom):
        path = tmp_path / "p.json"
        save_phantom(path, two_disk_phantom)
        back = load_phantom(path)
        assert to_dict(back) == to_dict(two_disk_phantom)

    def test_dict_schema(self, disk_phantom):
        doc = to_dict(disk_phantom)
        assert set(doc) == {"a0", "lower", "upper", "D_margin", "inclusions"}
        inc = doc["inclusions"][0]
        assert inc["shape"] == "disk"
        assert set(inc["params"]) == {"center", "radius"}

    def test_ellipse_roundtrip(self):
        p = Phantom(a0=1.0, lower=0.5, upper=2.0, inclusions=[
            Inclusion("ellipse", (0.55, 0.45), semi_axes=(0.16, 0.1),
                      angle=0.5, base=1.25, amplitude=0.25)])
        assert to_dict(from_dict(to_dict(p))) == to_dict(p)
