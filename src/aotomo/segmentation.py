"""Inclusion detection from the Helmholtz potential.

The potential jumps across inclusion rims, so the rims show up as ridges of
the scaled gradient magnitude |grad psi| * h. Edges are thresholded (Otsu by
default), closed morphologically, and the enclosed interiors become labeled
masks.

The morphology is on the 4-neighbour cross, in NumPy: erosion and its dual
dilation, connected-component labels and hole filling. Nothing lies outside
the array, as with SciPy's ndimage at its default border value;
``tests/test_segmentation.py`` checks each of them, and the Gaussian
pre-smoothing, against ndimage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import FileFormatError, Grid, ScalarField, gradient
from .helmholtz import PsiField


def erode_cross(mask):
    """Nodes of a boolean array whose four neighbours all lie in it; a node
    on the array edge has a neighbour outside, so it is never kept."""
    mask = np.asarray(mask, dtype=bool)
    inner = mask.copy()
    inner[1:, :] &= mask[:-1, :]
    inner[:-1, :] &= mask[1:, :]
    inner[:, 1:] &= mask[:, :-1]
    inner[:, :-1] &= mask[:, 1:]
    inner[0, :] = inner[-1, :] = inner[:, 0] = inner[:, -1] = False
    return inner


def dilate_cross(mask):
    """Nodes of a boolean array that lie in it or have a 4-neighbour in it:
    the dual of :func:`erode_cross`, with nothing outside the array."""
    mask = np.asarray(mask, dtype=bool)
    outer = mask.copy()
    outer[1:, :] |= mask[:-1, :]
    outer[:-1, :] |= mask[1:, :]
    outer[:, 1:] |= mask[:, :-1]
    outer[:, :-1] |= mask[:, 1:]
    return outer


def label_cross(mask):
    """The 4-connected components of a boolean array, as ``(labels,
    count)``: nodes outside the mask get 0, and the components are numbered
    1..count in the raster order of their first node.

    Each node starts with its own flat index and takes the least index
    among its 4-neighbours in the mask until nothing changes; a node then
    also takes the index held by the node its index names, which is in the
    same component and never larger, so long paths converge in few rounds.
    At the fixed point every node holds its component's first node.
    """
    mask = np.asarray(mask, dtype=bool)
    big = mask.size
    root = np.where(mask, np.arange(big).reshape(mask.shape), big)
    while True:
        low = root.copy()
        np.minimum(low[1:, :], root[:-1, :], out=low[1:, :])
        np.minimum(low[:-1, :], root[1:, :], out=low[:-1, :])
        np.minimum(low[:, 1:], root[:, :-1], out=low[:, 1:])
        np.minimum(low[:, :-1], root[:, 1:], out=low[:, :-1])
        low[~mask] = big
        low[mask] = low.ravel()[low[mask]]
        if np.array_equal(low, root):
            break
        root = low
    firsts, labels = np.unique(root[mask], return_inverse=True)
    out = np.zeros(mask.shape, dtype=int)
    out[mask] = labels + 1
    return out, firsts.size


def fill_holes(mask):
    """The mask and every node that no 4-path outside the mask joins to the
    array edge."""
    labels, _ = label_cross(~np.asarray(mask, dtype=bool))
    rim = np.concatenate([labels[0], labels[-1], labels[:, 0],
                          labels[:, -1]])
    return ~np.isin(labels, rim[rim > 0])


def gaussian_blur(values, sigma):
    """The array smoothed by a Gaussian of ``sigma`` nodes along each axis.

    The kernel is sampled out to ``int(4 sigma + 0.5)`` nodes and
    normalised, and the array is extended by mirroring about its edges
    (d c b a | a b c d | d c b a, repeated as far as the kernel reaches).
    Each axis is one matrix product with the blur matrix of its length.
    """
    radius = int(4 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weight = np.exp(-0.5 / sigma**2 * taps**2)
    weight /= weight.sum()

    def blur_matrix(size):
        # row i holds the weights of nodes i + taps, folded back into range
        j = (np.arange(size)[:, None] + taps) % (2 * size)
        j = np.where(j < size, j, 2 * size - 1 - j)
        flat = (np.arange(size)[:, None] * size + j).ravel()
        return np.bincount(flat, np.tile(weight, size),
                           minlength=size * size).reshape(size, size)

    values = np.asarray(values, dtype=float)
    return blur_matrix(values.shape[0]) @ values @ blur_matrix(
        values.shape[1]).T


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
        vals = ScalarField(grid, gaussian_blur(vals.values, smooth_sigma))
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
    closed = erode_cross(dilate_cross(edge_map))
    enclosed = fill_holes(closed) & ~closed
    labels, count = label_cross(enclosed)
    grown = []
    for lab in range(1, count + 1):
        comp = labels == lab
        if comp.sum() < min_area_nodes:
            continue
        others = enclosed & ~comp
        near_others = dilate_cross(others)
        # measure the edge band thickness by growing through it, then keep
        # half the layers so the recovered boundary sits mid band
        layers = []
        ring = comp
        for _ in range(16):
            grown_ring = dilate_cross(ring)
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
    filled = [fill_holes(comp_full) for comp_full in grown]
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
