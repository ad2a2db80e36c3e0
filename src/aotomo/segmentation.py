"""Inclusion detection from the Helmholtz potential.

The potential jumps across inclusion rims, so the rims show up as ridges of
the scaled gradient magnitude |grad psi| * h. Edges are thresholded (Otsu by
default), closed morphologically, and the enclosed interiors become labeled
masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import FileFormatError, Grid, ScalarField, gradient
from .helmholtz import PsiField

# the 4-neighbour structuring element, ndimage.generate_binary_structure(2, 1)
_CROSS = np.array([[False, True, False],
                   [True, True, True],
                   [False, True, False]])


def erode_cross(mask):
    """Nodes of a boolean array whose four neighbours all lie in it; a node
    on the array edge has a neighbour outside, so it is never kept. This is
    ``ndimage.binary_erosion(mask, structure=_CROSS)``."""
    mask = np.asarray(mask, dtype=bool)
    inner = mask.copy()
    inner[1:, :] &= mask[:-1, :]
    inner[:-1, :] &= mask[1:, :]
    inner[:, 1:] &= mask[:, :-1]
    inner[:, :-1] &= mask[:, 1:]
    inner[0, :] = inner[-1, :] = inner[:, 0] = inner[:, -1] = False
    return inner


def otsu_threshold(values, bins=256):
    """Otsu's between-class-variance threshold of a sample set."""
    v = np.asarray(values, dtype=float).ravel()
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        return hi
    hist, edges = np.histogram(v, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    weight = hist.astype(float)
    total = weight.sum()
    w0 = np.cumsum(weight)
    w1 = total - w0
    mu0 = np.cumsum(weight * centers)
    mu_total = mu0[-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        m0 = mu0 / w0
        m1 = (mu_total - mu0) / w1
        between = w0 * w1 * (m0 - m1) ** 2
    between[~np.isfinite(between)] = -1.0
    return float(centers[int(np.argmax(between))])


def detect_edges(psi: PsiField, threshold="auto",
                 smooth_sigma=0.0) -> np.ndarray:
    """Boolean map of nodes where |grad psi| * h exceeds the threshold.

    ``smooth_sigma`` (in nodes) pre-smooths the potential; measurement-derived
    potentials carry inversion ringing that otherwise wrinkles the detected
    rims, while exactly decomposed potentials should be left sharp.
    """
    grid = psi.grid
    vals = psi.psi
    if smooth_sigma > 0:
        from scipy import ndimage

        vals = ScalarField(grid, ndimage.gaussian_filter(vals.values,
                                                         smooth_sigma))
    g = gradient(vals)
    strength = g.magnitude() * grid.h
    if strength.max() == 0.0:
        return np.zeros(grid.shape, dtype=bool)
    if threshold == "auto":
        threshold = otsu_threshold(strength)
    return strength > float(threshold)


@dataclass
class InclusionMask:
    grid: Grid
    mask: np.ndarray
    label: int
    clipped: bool = False

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)

    def interior(self):
        """Nodes whose four neighbors are all inside the mask."""
        return erode_cross(self.mask)

    def boundary_nodes(self):
        """(i, j) arrays of mask nodes with a 4-neighbor outside."""
        rim = self.mask & ~self.interior()
        return np.nonzero(rim)


def extract_inclusions(edge_map, grid: Grid, d_margin=0.1,
                       min_area_nodes=9) -> list:
    """Close the edge map and return the enclosed regions as labeled masks.

    Regions are grown into the edge band by half its thickness, holes are
    filled, small components are dropped, and anything outside the inclusion
    search region is clipped.

    The masks are disjoint. A node that two regions grow into is a tie and
    belongs to neither. A region nested in the hole of another, a disk
    inside an annulus say, is a hole of the outer one, so filling would let
    the outer region swallow it. The rule: a node that a region gains only
    by hole filling stays with the region that held it before filling (or
    with none, for a tie), and a node that no region held but several gain
    goes to the one whose filled extent is smallest, the innermost.
    """
    from scipy import ndimage

    closed = ndimage.binary_closing(edge_map, structure=_CROSS)
    outside = np.zeros(grid.shape, dtype=bool)
    outside[0, :] = outside[-1, :] = True
    outside[:, 0] = outside[:, -1] = True
    outside = ndimage.binary_dilation(
        outside, structure=_CROSS, iterations=-1, mask=~closed
    )
    enclosed = ~closed & ~outside
    labels, count = ndimage.label(enclosed, structure=_CROSS)
    grown = []
    for lab in range(1, count + 1):
        comp = labels == lab
        if comp.sum() < min_area_nodes:
            continue
        others = enclosed & ~comp
        near_others = ndimage.binary_dilation(others, structure=_CROSS)
        # measure the edge band thickness by growing through it, then keep
        # half the layers so the recovered boundary sits mid band
        layers = []
        ring = comp
        for _ in range(16):
            grown_ring = ndimage.binary_dilation(ring, structure=_CROSS)
            new = grown_ring & closed & ~near_others & ~ring
            if not new.any():
                break
            layers.append(new)
            ring = ring | new
        comp_full = comp.copy()
        for layer in layers[: max(1, len(layers) // 2)]:
            comp_full |= layer
        grown.append(comp_full)
    claims = np.zeros(grid.shape, dtype=int)
    for comp_full in grown:
        claims += comp_full
    # a node that two regions grow into is a tie and stays unclaimed
    held = claims > 0
    grown = [comp_full & (claims == 1) for comp_full in grown]
    filled = [ndimage.binary_fill_holes(comp_full) for comp_full in grown]
    # the owner of each node gained by filling alone: larger fills first,
    # so the smallest fill that gains a node writes it last
    gainer = np.full(grid.shape, -1)
    for k in sorted(range(len(filled)), key=lambda k: -filled[k].sum()):
        gainer[filled[k] & ~held] = k
    masks = []
    region = grid.interior_margin_mask(d_margin)
    for k, comp_full in enumerate(grown):
        comp_full = comp_full | (gainer == k)
        clipped = bool(np.any(comp_full & ~region))
        comp_full &= region
        if comp_full.sum() < min_area_nodes:
            continue
        masks.append(InclusionMask(grid, comp_full, len(masks) + 1, clipped))
    return masks


def masks_from_phantom(phantom, grid: Grid) -> list:
    """Rasterized ground-truth masks, one per inclusion."""
    return [
        InclusionMask(grid, phantom.interior_mask(grid, k), k + 1)
        for k in range(len(phantom.inclusions))
    ]


def boundary_hausdorff(mask: InclusionMask, points) -> float:
    """Symmetric Hausdorff distance between the mask rim nodes and a sampled
    reference curve."""
    ii, jj = mask.boundary_nodes()
    if ii.size == 0:
        return float("inf")
    h = mask.grid.h
    rim = np.column_stack([ii * h, jj * h])
    ref = np.asarray(points, dtype=float)
    d2 = (
        (rim[:, None, 0] - ref[None, :, 0]) ** 2
        + (rim[:, None, 1] - ref[None, :, 1]) ** 2
    )
    forward = np.sqrt(d2.min(axis=1)).max()
    backward = np.sqrt(d2.min(axis=0)).max()
    return float(max(forward, backward))


def _write_pgm(path, img):
    """Binary PGM (P5) of a square uint8 image indexed [i, j] like a field;
    rows run from y = 1 down."""
    n = img.shape[0]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode())
        fh.write(img.T[::-1, :].tobytes())


def load_pgm(path):
    """Read a binary PGM as written by :func:`save_mask_pgm`, indexed [i, j]
    like a field; a malformed file raises FileFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5\n"):
        raise FileFormatError(f"{path} is not a binary PGM")
    parts = data.split(b"\n", 3)
    try:
        w, h = (int(x) for x in parts[1].split())
        if int(parts[2]) != 255:
            raise ValueError("maxval is not 255")
        img = np.frombuffer(parts[3], dtype=np.uint8,
                            count=w * h).reshape(h, w)
    except (ValueError, IndexError) as exc:
        raise FileFormatError(f"{path}: bad PGM header or payload ({exc})")
    return img.T[:, ::-1]


def save_mask_pgm(path, mask: InclusionMask):
    """Binary PGM (P5), 255 inside the mask."""
    _write_pgm(path, np.where(mask.mask, 255, 0).astype(np.uint8))


def save_field_pgm(path, field: ScalarField):
    """Affinely normalized field image: min maps to 0, max to 255."""
    vals = field.values
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo if hi > lo else 1.0
    _write_pgm(path, np.round((vals - lo) / span * 255).astype(np.uint8))
