import numpy as np
import pytest

from aotomo import diffusion, fields, helmholtz, segmentation as seg
from aotomo.fields import BoundaryTrace, Grid, ScalarField
from aotomo.helmholtz import PsiField


def psi_of(phantom, grid):
    sol = diffusion.solve_T(diffusion.RobinProblem(
        phantom.sample(grid), BoundaryTrace.constant(grid, 1.0), 0.1))
    return helmholtz.ground_truth_psi(phantom, sol.phi)


class TestOtsu:
    def test_bimodal_split(self):
        rng = np.random.default_rng(0)
        low = rng.normal(0.1, 0.01, 4000)
        high = rng.normal(0.9, 0.01, 1000)
        t = seg.otsu_threshold(np.concatenate([low, high]))
        # any threshold separating the clusters is acceptable; the maximizer
        # sits at the left edge of the empty gap
        assert (low < t).mean() >= 0.99
        assert (high > t).all()

    def test_degenerate(self):
        assert seg.otsu_threshold(np.full(10, 3.0)) == 3.0


class TestDetectEdges:
    def test_constant_psi_empty(self, grid65):
        psi = PsiField(ScalarField.constant(grid65, 0.0), "ground_truth")
        assert not seg.detect_edges(psi).any()

    def test_vertical_step(self):
        g = Grid(65)
        x, _ = g.meshgrid()
        psi = PsiField(ScalarField(g, (x > 0.5).astype(float)),
                       "ground_truth")
        edges = seg.detect_edges(psi)
        ii, _ = np.nonzero(edges)
        assert edges.any()
        # edge nodes hug the step line
        assert np.max(np.abs(ii * g.h - 0.5)) <= g.h + 1e-12

    def test_explicit_threshold(self, grid65):
        x, _ = grid65.meshgrid()
        psi = PsiField(ScalarField(grid65, x), "ground_truth")
        assert not seg.detect_edges(psi, threshold=1.0).any()
        assert seg.detect_edges(psi, threshold=grid65.h / 2).any()


class TestExtract:
    def test_empty_map(self, grid65):
        assert seg.extract_inclusions(
            np.zeros(grid65.shape, bool), grid65) == []

    def test_single_disk_geometry(self, flat_disk_phantom):
        g = Grid(129)
        psi = psi_of(flat_disk_phantom, g)
        masks = seg.extract_inclusions(seg.detect_edges(psi), g)
        assert len(masks) == 1
        m = masks[0]
        inc = flat_disk_phantom.inclusions[0]
        hd = seg.boundary_hausdorff(m, inc.boundary_points(720))
        assert hd <= 2 * g.h
        assert m.area == pytest.approx(np.pi * inc.radius**2, rel=0.10)
        cx, cy = m.centroid()
        assert np.hypot(cx - 0.5, cy - 0.5) <= 2 * g.h

    def test_two_disks(self, two_disk_phantom):
        g = Grid(129)
        psi = psi_of(two_disk_phantom, g)
        masks = seg.extract_inclusions(seg.detect_edges(psi), g)
        assert len(masks) == 2
        for inc in two_disk_phantom.inclusions:
            best = min(
                masks,
                key=lambda m: np.hypot(m.centroid()[0] - inc.center[0],
                                       m.centroid()[1] - inc.center[1]),
            )
            cx, cy = best.centroid()
            assert np.hypot(cx - inc.center[0], cy - inc.center[1]) <= 2 * g.h
        # pairwise disjoint
        assert not np.any(masks[0].mask & masks[1].mask)

    def test_masks_stay_in_search_region(self, two_disk_phantom):
        g = Grid(129)
        psi = psi_of(two_disk_phantom, g)
        masks = seg.extract_inclusions(seg.detect_edges(psi), g)
        region = g.interior_margin_mask(0.1)
        for m in masks:
            assert not np.any(m.mask & ~region)

    def test_small_components_dropped(self, grid65):
        edge = np.zeros(grid65.shape, dtype=bool)
        # a tiny 2x2 ring encloses a single node
        edge[30:33, 30] = edge[30:33, 32] = True
        edge[30, 30:33] = edge[32, 30:33] = True
        masks = seg.extract_inclusions(edge, grid65)
        assert masks == []


class TestMaskExport:
    def test_pgm_roundtrip(self, tmp_path):
        g = Grid(65)
        x, y = g.meshgrid()
        # off centre, so a transpose or a flip would move it
        inside = (x - 0.3) ** 2 + (y - 0.7) ** 2 < 0.15 ** 2
        path = tmp_path / "mask.pgm"
        seg.save_mask_pgm(path, seg.InclusionMask(g, inside, 1))
        data = path.read_bytes()
        assert data.startswith(b"P5\n65 65\n255\n")
        img = np.frombuffer(data.split(b"\n", 3)[3], dtype=np.uint8)
        # rows run from y = 1 down
        assert np.array_equal(img.reshape(g.shape),
                              np.where(inside.T[::-1, :], 255, 0))
        assert np.array_equal(seg.load_pgm(path), np.where(inside, 255, 0))

    def test_field_pgm_normalization(self, tmp_path, grid33):
        f = ScalarField.from_function(grid33, lambda x, y: x)
        path = tmp_path / "field.pgm"
        seg.save_field_pgm(path, f)
        img = np.frombuffer(path.read_bytes().split(b"\n", 3)[3],
                            dtype=np.uint8)
        assert img.min() == 0 and img.max() == 255


class TestTruthMasks:
    def test_rasterized_masks(self, two_disk_phantom, grid65):
        masks = seg.masks_from_phantom(two_disk_phantom, grid65)
        assert len(masks) == 2
        for m, inc in zip(masks, two_disk_phantom.inclusions):
            assert m.area == pytest.approx(np.pi * inc.bounding_radius()**2,
                                           rel=0.15)
