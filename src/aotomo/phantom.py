"""Piecewise smooth absorption phantoms.

A phantom is a constant background plus smooth radial bump perturbations on
pairwise disjoint disk or ellipse inclusions, all strictly inside a known
sub-square D of the unit square. Evaluation is symbolic, so displaced
sampling a(x + u(x)) carries no interpolation error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, ScalarField, VectorField


class PhantomError(ValueError):
    """Invalid phantom geometry or coefficient bounds."""


@dataclass(frozen=True)
class Inclusion:
    """One inclusion: a disk or rotated ellipse with a C2 bump profile.

    The coefficient inside is base + amplitude * (1 - s^2)^3 where s is the
    normalized shape coordinate (s = 1 on the rim), so the value and its
    first two derivatives match the constant base at the boundary.
    """

    shape: str                      # "disk" | "ellipse"
    center: tuple
    radius: float = 0.0             # disk
    semi_axes: tuple = (0.0, 0.0)   # ellipse
    angle: float = 0.0              # ellipse rotation, radians
    base: float = 1.0
    amplitude: float = 0.0

    def __post_init__(self):
        if self.shape not in ("disk", "ellipse"):
            raise PhantomError(f"unknown inclusion shape {self.shape!r}")
        if self.shape == "disk" and self.radius <= 0:
            raise PhantomError("disk radius must be positive")
        if self.shape == "ellipse" and min(self.semi_axes) <= 0:
            raise PhantomError("ellipse semi-axes must be positive")

    def normalized_radius(self, x, y):
        """Shape coordinate s: s < 1 inside, s = 1 on the rim."""
        cx, cy = self.center
        dx = np.asarray(x) - cx
        dy = np.asarray(y) - cy
        if self.shape == "disk":
            return np.hypot(dx, dy) / self.radius
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        u = ca * dx + sa * dy
        v = -sa * dx + ca * dy
        a, b = self.semi_axes
        return np.sqrt((u / a) ** 2 + (v / b) ** 2)

    def contains(self, x, y, closed=True):
        s = self.normalized_radius(x, y)
        return s <= 1.0 if closed else s < 1.0

    def profile(self, s):
        """Bump value at shape coordinate s (zero outside)."""
        s = np.asarray(s, dtype=float)
        t = np.clip(1.0 - s * s, 0.0, None)
        return self.amplitude * t**3

    def value_range(self):
        lo = min(self.base, self.base + self.amplitude)
        hi = max(self.base, self.base + self.amplitude)
        return lo, hi

    def boundary_points(self, count=256):
        t = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        cx, cy = self.center
        if self.shape == "disk":
            return np.column_stack(
                [cx + self.radius * np.cos(t), cy + self.radius * np.sin(t)]
            )
        a, b = self.semi_axes
        u, v = a * np.cos(t), b * np.sin(t)
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return np.column_stack([cx + ca * u - sa * v, cy + sa * u + ca * v])

    def bounding_radius(self):
        return self.radius if self.shape == "disk" else max(self.semi_axes)


@dataclass(frozen=True)
class Phantom:
    """Absorption map: background a0 outside D, inclusions inside D."""

    a0: float
    lower: float
    upper: float
    d_margin: float = 0.1
    inclusions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "inclusions", tuple(self.inclusions))
        self.validate()

    def validate(self):
        if not (self.lower > 0):
            raise PhantomError("lower coefficient bound must be positive")
        if not (self.lower <= self.a0 <= self.upper):
            raise PhantomError("background must lie within [lower, upper]")
        if self.d_margin < 0.1:
            raise PhantomError("D margin must be at least 0.1")
        lo_d, hi_d = self.d_margin, 1.0 - self.d_margin
        for k, inc in enumerate(self.inclusions):
            lo, hi = inc.value_range()
            if lo < self.lower - 1e-12 or hi > self.upper + 1e-12:
                raise PhantomError(
                    f"inclusion {k}: values [{lo}, {hi}] leave "
                    f"[{self.lower}, {self.upper}]"
                )
            pts = inc.boundary_points(512)
            if (pts.min() <= lo_d + 1e-12) or (pts.max() >= hi_d - 1e-12):
                raise PhantomError(f"inclusion {k} touches the boundary of D")
        for i in range(len(self.inclusions)):
            for j in range(i + 1, len(self.inclusions)):
                if self._overlap(self.inclusions[i], self.inclusions[j]):
                    raise PhantomError(f"inclusions {i} and {j} are not disjoint")

    @staticmethod
    def _overlap(a: Inclusion, b: Inclusion):
        ca, cb = np.asarray(a.center), np.asarray(b.center)
        gap = np.linalg.norm(ca - cb) - a.bounding_radius() - b.bounding_radius()
        if gap > 0:
            return False
        if a.shape == "disk" and b.shape == "disk":
            return True  # bounding circles are exact for disks
        pa = a.boundary_points(1024)
        pb = b.boundary_points(1024)
        if np.any(b.normalized_radius(pa[:, 0], pa[:, 1]) <= 1.0):
            return True
        if np.any(a.normalized_radius(pb[:, 0], pb[:, 1]) <= 1.0):
            return True
        # one fully inside the other
        if a.contains(*b.center) or b.contains(*a.center):
            return True
        return False

    # -- evaluation ---------------------------------------------------------

    def eval(self, x, y):
        """Pointwise coefficient value; vectorized over x, y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast(x, y).shape, self.a0)
        for inc in self.inclusions:
            s = inc.normalized_radius(x, y)
            m = s <= 1.0
            if np.any(m):
                out[m] = inc.base + inc.profile(s[m])
        return out if out.shape else float(out)

    def sample(self, grid: Grid) -> ScalarField:
        x, y = grid.meshgrid()
        return ScalarField(grid, self.eval(x, y))

    def sample_displaced(self, grid: Grid, disp: VectorField) -> ScalarField:
        """Sample a(x + disp(x)) exactly, clamping displaced points to the
        unit square (the displacement vanishes near the boundary anyway)."""
        x, y = grid.meshgrid()
        px = np.clip(x + disp.vx, 0.0, 1.0)
        py = np.clip(y + disp.vy, 0.0, 1.0)
        return ScalarField(grid, self.eval(px, py))

    def interior_mask(self, grid: Grid, index: int):
        """Boolean node mask of inclusion ``index`` (closed shape)."""
        x, y = grid.meshgrid()
        return self.inclusions[index].contains(x, y)


# ---------------------------------------------------------------------------
# JSON description files


def to_dict(phantom: Phantom) -> dict:
    incs = []
    for inc in phantom.inclusions:
        if inc.shape == "disk":
            params = {"center": list(inc.center), "radius": inc.radius}
        else:
            params = {
                "center": list(inc.center),
                "semi_axes": list(inc.semi_axes),
                "angle": inc.angle,
            }
        incs.append(
            {
                "shape": inc.shape,
                "params": params,
                "base": inc.base,
                "amplitude": inc.amplitude,
            }
        )
    return {
        "a0": phantom.a0,
        "lower": phantom.lower,
        "upper": phantom.upper,
        "D_margin": phantom.d_margin,
        "inclusions": incs,
    }


def from_dict(doc: dict) -> Phantom:
    incs = []
    for entry in doc.get("inclusions", []):
        params = entry["params"]
        if entry["shape"] == "disk":
            inc = Inclusion(
                shape="disk",
                center=tuple(params["center"]),
                radius=float(params["radius"]),
                base=float(entry["base"]),
                amplitude=float(entry.get("amplitude", 0.0)),
            )
        else:
            inc = Inclusion(
                shape="ellipse",
                center=tuple(params["center"]),
                semi_axes=tuple(params["semi_axes"]),
                angle=float(params.get("angle", 0.0)),
                base=float(entry["base"]),
                amplitude=float(entry.get("amplitude", 0.0)),
            )
        incs.append(inc)
    return Phantom(
        a0=float(doc["a0"]),
        lower=float(doc["lower"]),
        upper=float(doc["upper"]),
        d_margin=float(doc.get("D_margin", 0.1)),
        inclusions=incs,
    )


def save_phantom(path, phantom: Phantom):
    with open(path, "w") as fh:
        json.dump(to_dict(phantom), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_phantom(path) -> Phantom:
    with open(path) as fh:
        return from_dict(json.load(fh))
