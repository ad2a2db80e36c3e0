import numpy as np
import pytest

from reference import mask_riesz_solve

from aotomo import diffusion, fields, helmholtz, segmentation as seg
from aotomo.fields import BoundaryTrace, Grid, ScalarField
from aotomo.helmholtz import PsiField


def psi_of(phantom, grid):
    sol = diffusion.solve_T(diffusion.RobinProblem(
        phantom.sample(grid), BoundaryTrace.constant(grid, 1.0), 0.1))
    return helmholtz.ground_truth_psi(phantom, sol.phi)


def area(m):
    """A mask's node count times the cell area."""
    return float(m.mask.sum()) * m.grid.h**2


def centroid(m):
    """The mean node position of a mask."""
    ii, jj = np.nonzero(m.mask)
    return float(ii.mean() * m.grid.h), float(jj.mean() * m.grid.h)


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
        psi = PsiField(ScalarField(grid65, np.zeros(grid65.shape)),
                       "ground_truth")
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
        assert area(m) == pytest.approx(np.pi * inc.radius**2, rel=0.10)
        cx, cy = centroid(m)
        assert np.hypot(cx - 0.5, cy - 0.5) <= 2 * g.h

    def test_two_disks(self, two_disk_phantom):
        g = Grid(129)
        psi = psi_of(two_disk_phantom, g)
        masks = seg.extract_inclusions(seg.detect_edges(psi), g)
        assert len(masks) == 2
        for inc in two_disk_phantom.inclusions:
            best = min(
                masks,
                key=lambda m: np.hypot(centroid(m)[0] - inc.center[0],
                                       centroid(m)[1] - inc.center[1]),
            )
            cx, cy = centroid(best)
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

    def test_nested_region_keeps_its_nodes(self, grid65):
        # an annulus around a disk: filling the annulus's hole must not take
        # the disk, so the masks stay disjoint and reconstruct accepts them
        from aotomo.inversion import MaskSpace

        g = grid65
        x, y = g.meshgrid()
        d = np.hypot(x - 0.5, y - 0.5)
        edges = (np.abs(d - 0.1) < 0.75 * g.h) | (np.abs(d - 0.25)
                                                  < 0.75 * g.h)
        masks = seg.extract_inclusions(edges, g)
        assert len(masks) == 2
        outer, inner = sorted(masks, key=lambda m: -m.mask.sum())
        assert not np.any(outer.mask & inner.mask)
        # the disk and its half of the band, inside the inner circle's band
        assert inner.mask.sum() == 121
        assert np.all(d[inner.mask] < 0.1 + g.h)
        # the annulus holds every node between the disk and the outer band
        assert np.all((outer.mask | inner.mask)[d < 0.25 - g.h])
        MaskSpace(g, [m.mask for m in masks])

    def test_regions_growing_into_one_band_stay_disjoint(self, grid65):
        # two 5 x 5 holes six nodes apart in a thick edge disk: each region
        # grows half the band's depth, past the midpoint between them, and
        # the nodes both reach belong to neither
        from aotomo.inversion import MaskSpace

        g = grid65
        x, y = g.meshgrid()
        edges = np.hypot(x - 0.5, y - 0.5) < 0.3
        i, j = np.indices(g.shape)
        holes = [(np.abs(i - ci) <= 2) & (np.abs(j - 32) <= 2)
                 for ci in (26, 38)]
        for hole in holes:
            edges[hole] = False
        masks = seg.extract_inclusions(edges, g)
        assert len(masks) == 2
        assert not np.any(masks[0].mask & masks[1].mask)
        for mask, hole in zip(masks, holes):
            assert np.all(mask.mask[hole])
        MaskSpace(g, [m.mask for m in masks])

    @staticmethod
    def random_bands(rng, grid):
        """An edge map of 1-4 circle or rectangle bands of width 0.5-2 h,
        drawn by ``rng``; after the first, each band is nested in the
        previous one, touches it from outside, or lies anywhere."""
        x, y = grid.meshgrid()
        edges = np.zeros(grid.shape, dtype=bool)
        kinds = []
        cx, cy, size = 0.5, 0.5, 0.2
        for k in range(rng.randint(1, 4)):
            how = "free" if k == 0 else rng.choice(["nested", "touching",
                                                    "free"])
            if how == "nested":
                size *= rng.uniform(0.3, 0.8)
            elif how == "touching":
                other = rng.uniform(0.05, 0.2)
                angle = rng.uniform(0.0, 2 * np.pi)
                cx += (size + other) * np.cos(angle)
                cy += (size + other) * np.sin(angle)
                size = other
            else:
                cx, cy = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
                size = rng.uniform(0.05, 0.3)
            half = 0.5 * rng.uniform(0.5, 2.0) * grid.h
            if rng.random() < 0.5:
                dist = np.hypot(x - cx, y - cy) - size
            else:
                aspect = rng.uniform(0.5, 1.0)
                dist = np.maximum(np.abs(x - cx) - size,
                                  np.abs(y - cy) - aspect * size)
            edges |= np.abs(dist) <= half
            kinds.append(how)
        return edges, kinds

    def test_random_bands_give_masks_reconstruct_accepts(self):
        # the segment -> reconstruct contract: disjoint masks, each with an
        # interior, which the mask space of reconstruct accepts
        import random

        from aotomo.inversion import MaskSpace

        g = Grid(33)
        seen = set()
        rng = np.random.default_rng(15)
        for seed in range(60):
            edges, kinds = self.random_bands(random.Random(seed), g)
            seen.update(kinds)
            masks = seg.extract_inclusions(edges, g)
            union = np.zeros(g.shape, dtype=bool)
            for m in masks:
                assert not np.any(union & m.mask), seed
                union |= m.mask
                assert seg.erode_cross(m.mask).any(), seed
            space = MaskSpace(g, [m.mask for m in masks])
            # and solves its form as the masks' own LU factors do
            b = rng.standard_normal(g.shape)
            oracle = sum((mask_riesz_solve(m.mask, b) for m in masks),
                         np.zeros(g.shape))
            err = np.max(np.abs(space.riesz_solve(b) - oracle))
            assert err <= 1e-12 * np.max(np.abs(oracle)), seed
        assert seen == {"free", "nested", "touching"}

    def test_small_components_dropped(self, grid65):
        edge = np.zeros(grid65.shape, dtype=bool)
        # a tiny 2x2 ring encloses a single node
        edge[30:33, 30] = edge[30:33, 32] = True
        edge[30, 30:33] = edge[32, 30:33] = True
        masks = seg.extract_inclusions(edge, grid65)
        assert masks == []


def random_masks(seed):
    """Two fixed masks and 200 random ones of 1-20 nodes per axis, at a
    density drawn for each, with the number that touch the array edge."""
    rng = np.random.default_rng(seed)
    masks = [np.ones((5, 7), dtype=bool), np.zeros((4, 4), dtype=bool)]
    for _ in range(200):
        shape = rng.integers(1, 21, size=2)
        masks.append(rng.random(shape) < rng.uniform(0.3, 0.97))
    touching = sum(bool(m[0].any() or m[-1].any() or m[:, 0].any()
                        or m[:, -1].any()) for m in masks)
    return masks, touching


class TestErosion:
    def test_matches_ndimage(self):
        from scipy import ndimage

        cross = ndimage.generate_binary_structure(2, 1)
        masks, touching = random_masks(3)
        for m in masks:
            expected = ndimage.binary_erosion(m, structure=cross)
            assert np.array_equal(seg.erode_cross(m), expected), m
        # the array edge is eroded as ndimage's border_value=0 erodes it
        assert touching > 150


class TestMorphology:
    """The NumPy morphology of ``extract_inclusions`` against ndimage, on
    the 4-neighbour cross that ``extract_inclusions`` passed it."""

    def test_dilation_and_closing_match_ndimage(self):
        from scipy import ndimage

        cross = ndimage.generate_binary_structure(2, 1)
        masks, touching = random_masks(4)
        for m in masks:
            dilated = seg.dilate_cross(m)
            assert np.array_equal(
                dilated, ndimage.binary_dilation(m, structure=cross)), m
            assert np.array_equal(
                seg.erode_cross(dilated),
                ndimage.binary_closing(m, structure=cross)), m
        assert touching > 150

    def test_enclosed_nodes_match_the_border_flood(self):
        # extract_inclusions reads the nodes that a closed edge map encloses
        # from its hole filling; ndimage floods from the border through the
        # complement, keeping a border seed on the map and letting it spread.
        # Closing clears the array edge, so no seed lies on the map.
        from scipy import ndimage

        import random

        cross = ndimage.generate_binary_structure(2, 1)
        masks, touching = random_masks(5)
        # and edge maps that enclose regions, as detect_edges draws them
        masks += [TestExtract.random_bands(random.Random(seed), Grid(33))[0]
                  for seed in range(60)]
        enclosing = 0
        for m in masks:
            closed = seg.erode_cross(seg.dilate_cross(m))
            border = np.zeros(m.shape, dtype=bool)
            border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
            outside = ndimage.binary_dilation(border, structure=cross,
                                              iterations=-1, mask=~closed)
            enclosed = seg.fill_holes(closed) & ~closed
            assert np.array_equal(enclosed, ~closed & ~outside), m
            enclosing += bool(enclosed.any())
        assert touching > 150 and enclosing > 60

    def test_labels_and_numbering_match_ndimage(self):
        from scipy import ndimage

        cross = ndimage.generate_binary_structure(2, 1)
        masks, _ = random_masks(6)
        # low densities too, where a mask falls apart in many components
        rng = np.random.default_rng(16)
        masks += [rng.random(rng.integers(1, 21, size=2)) < 0.5
                  for _ in range(200)]
        most = 0
        for m in masks:
            labels, count = seg.label_cross(m)
            expected, expected_count = ndimage.label(m, structure=cross)
            assert count == expected_count, m
            assert np.array_equal(labels, expected), m
            most = max(most, count)
        assert most > 10

    def test_fill_holes_matches_ndimage(self):
        from scipy import ndimage

        masks, _ = random_masks(7)
        holes = 0
        for m in masks:
            filled = seg.fill_holes(m)
            assert np.array_equal(filled, ndimage.binary_fill_holes(m)), m
            holes += bool(np.any(filled & ~m))
        assert holes > 50

    def test_gaussian_matches_ndimage(self):
        from scipy import ndimage

        rng = np.random.default_rng(8)
        for k in range(200):
            values = rng.standard_normal(rng.integers(1, 21, size=2))
            # the last 20 kernels reach past both ends of the array
            sigma = rng.uniform(0.5, 3.0) if k < 180 else 6.0
            got = seg.gaussian_blur(values, sigma)
            expected = ndimage.gaussian_filter(values, sigma)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(
                np.abs(values)), (values.shape, sigma)


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
        f = ScalarField(grid33, grid33.meshgrid()[0])
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
            assert area(m) == pytest.approx(np.pi * inc.bounding_radius()**2,
                                           rel=0.15)
