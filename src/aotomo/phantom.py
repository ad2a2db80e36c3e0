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
    first two derivatives match the constant base at the boundary. Every
    reading of the shape goes through s^2 (``squared_coordinate``, or
    ``ray_quadratic`` along rays), and a point is inside where s^2 <= 1.
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

    def squared_coordinate(self, x, y):
        """Squared shape coordinate s^2: below 1 inside, 1 on the rim."""
        dx = np.asarray(x, dtype=float) - self.center[0]
        dy = np.asarray(y, dtype=float) - self.center[1]
        if self.shape == "disk":
            return (dx * dx + dy * dy) / (self.radius * self.radius)
        u, v = self._frame(dx, dy)
        return u * u + v * v

    def _frame(self, dx, dy):
        """The components of the vectors (dx, dy) along the semi-axes, each
        over its semi-axis; for a disk, over the radius."""
        if self.shape == "disk":
            return dx / self.radius, dy / self.radius
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        a, b = self.semi_axes
        return (ca * dx + sa * dy) / a, (-sa * dx + ca * dy) / b

    def ray_quadratic(self, y, ct, st):
        """The squared shape coordinate along the rays y + rho (ct, st), as
        the quadratic s^2(rho) = A (rho - rho_c)^2 + m in vertex form.

        ``y`` is a point, or a pair of arrays of point coordinates that
        broadcast against ``ct``, one per ray. Returns the arrays ``(A,
        rho_c, m)``: rho_c is the radius of the ray's closest approach to
        the centre in the shape's metric and m = s^2 there. m comes from a
        cross product, so it carries no cancellation.
        """
        du, dv = self._frame(y[0] - self.center[0], y[1] - self.center[1])
        eu, ev = self._frame(ct, st)
        A = eu * eu + ev * ev
        cross = du * ev - dv * eu
        return A, -(du * eu + dv * ev) / A, cross * cross / A

    def contains(self, x, y, closed=True):
        s2 = self.squared_coordinate(x, y)
        return s2 <= 1.0 if closed else s2 < 1.0

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
        if np.any(b.contains(pa[:, 0], pa[:, 1])):
            return True
        if np.any(a.contains(pb[:, 0], pb[:, 1])):
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
        out = self.at_coordinates(np.broadcast(x, y).shape, (
            inc.squared_coordinate(x, y) for inc in self.inclusions))
        return out if out.shape else float(out)

    def along_rays(self, y, ct, st, radii):
        """The coefficient at the points y + rho (ct, st), from each ray's
        shape quadratics (``Inclusion.ray_quadratic``).

        ``y`` is a point or a pair of arrays of point coordinates; they,
        ``ct``, ``st`` and the radii ``radii`` broadcast together, and the
        result has their broadcast shape.
        """
        shape = np.broadcast_shapes(np.shape(y[0]), np.shape(y[1]),
                                    np.shape(ct), np.shape(st),
                                    np.shape(radii))

        def squares():
            for inc in self.inclusions:
                A, rho_c, m = inc.ray_quadratic(y, ct, st)
                s2 = radii - rho_c
                s2 *= s2
                s2 *= A
                s2 += m
                yield s2

        return self.at_coordinates(shape, squares())

    def at_coordinates(self, shape, squares):
        """The coefficient at points of the given shape from their squared
        shape coordinates: ``squares`` yields one array of that shape per
        inclusion, in order."""
        out = np.full(shape, self.a0)
        for inc, s2 in zip(self.inclusions, squares):
            # the bump on every point and a select, which costs less than
            # gathering and scattering the points inside
            t = 1.0 - s2
            bump = t * t
            bump *= t
            bump *= inc.amplitude
            bump += inc.base
            out = np.where(s2 <= 1.0, bump, out)
        return out

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
