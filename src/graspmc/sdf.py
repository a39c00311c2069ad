"""Signed distance fields: analytic primitives plus CSG composition.

Distances are exact for primitives and conservative (still 1-Lipschitz,
correct sign) for unions/differences/intersections. All shapes evaluate
vectorized over (..., 3) point arrays; negative inside, positive outside.
Every node serializes to a plain dict so object catalogs round-trip
through text documents.
"""

from __future__ import annotations

import numpy as np

from . import quaternions as quat


class Sdf:
    def distance(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    # fluent composition helpers
    def translate(self, offset) -> "Sdf":
        return Translate(self, np.asarray(offset, dtype=float))

    def rotate(self, quaternion) -> "Sdf":
        return Rotate(self, np.asarray(quaternion, dtype=float))

    def union(self, *others: "Sdf") -> "Sdf":
        return Union([self, *others])

    def subtract(self, other: "Sdf") -> "Sdf":
        return Difference(self, other)

    def gradient(self, points: np.ndarray, h: float = 1e-5) -> np.ndarray:
        """Central-difference gradient: one distance call on all six +/-h
        offsets of every point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))[:, None, :]
        offsets = h * np.eye(3)
        stencil = np.concatenate([points + offsets, points - offsets], axis=1)
        d = self.distance(stencil.reshape(-1, 3)).reshape(-1, 6)
        return (d[:, :3] - d[:, 3:]) / (2 * h)

    def normal(self, points: np.ndarray, h: float = 1e-5) -> np.ndarray:
        g = self.gradient(points, h)
        norms = np.linalg.norm(g, axis=-1, keepdims=True)
        return g / np.maximum(norms, 1e-12)


class Sphere(Sdf):
    def __init__(self, radius: float):
        self.radius = float(radius)

    def distance(self, points):
        p = np.asarray(points, dtype=float)
        return np.linalg.norm(p, axis=-1) - self.radius

    def to_dict(self):
        return {"type": "sphere", "radius": self.radius}


class Box(Sdf):
    """Axis-aligned box given half extents, centered at the origin."""

    def __init__(self, half_extents):
        self.half_extents = np.asarray(half_extents, dtype=float)

    def distance(self, points):
        p = np.asarray(points, dtype=float)
        q = np.abs(p) - self.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside

    def to_dict(self):
        return {"type": "box", "half_extents": self.half_extents.tolist()}


class Cylinder(Sdf):
    """Capped cylinder along z, centered at the origin."""

    def __init__(self, radius: float, half_height: float):
        self.radius = float(radius)
        self.half_height = float(half_height)

    def distance(self, points):
        p = np.asarray(points, dtype=float)
        radial = np.hypot(p[..., 0], p[..., 1]) - self.radius
        axial = np.abs(p[..., 2]) - self.half_height
        q = np.stack([radial, axial], axis=-1)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(np.max(q, axis=-1), 0.0)
        return outside + inside

    def to_dict(self):
        return {"type": "cylinder", "radius": self.radius, "half_height": self.half_height}


class CappedTorus(Sdf):
    """Arc of a torus around z, opening symmetric about +y, in the xy-plane.

    half_angle is the angular half-width of the retained arc measured from
    +y; major_radius is the centerline circle, tube_radius the thickness.
    Exact distance (the capped-torus construction of quilez-style SDFs).
    """

    def __init__(self, major_radius: float, tube_radius: float, half_angle: float):
        self.major_radius = float(major_radius)
        self.tube_radius = float(tube_radius)
        self.half_angle = float(half_angle)

    def distance(self, points):
        p = np.asarray(points, dtype=float).copy()
        sc = np.array([np.sin(self.half_angle), np.cos(self.half_angle)])
        px = np.abs(p[..., 0])
        py = p[..., 1]
        pz = p[..., 2]
        on_cap = sc[1] * px > sc[0] * py
        k = np.where(on_cap, px * sc[0] + py * sc[1], np.hypot(px, py))
        sq = px * px + py * py + pz * pz
        return np.sqrt(np.maximum(sq + self.major_radius**2 - 2.0 * self.major_radius * k, 0.0)) - self.tube_radius

    def to_dict(self):
        return {
            "type": "capped_torus",
            "major_radius": self.major_radius,
            "tube_radius": self.tube_radius,
            "half_angle": self.half_angle,
        }


class Translate(Sdf):
    def __init__(self, child: Sdf, offset):
        self.child = child
        self.offset = np.asarray(offset, dtype=float)

    def distance(self, points):
        return self.child.distance(np.asarray(points, dtype=float) - self.offset)

    def to_dict(self):
        return {"type": "translate", "offset": self.offset.tolist(), "child": self.child.to_dict()}


class Rotate(Sdf):
    """Child rotated by a unit quaternion about the origin."""

    def __init__(self, child: Sdf, quaternion):
        self.child = child
        self.quaternion = quat.canonicalize(quaternion)
        self._inverse = quat.rotation_matrix(self.quaternion).T

    def distance(self, points):
        p = np.asarray(points, dtype=float)
        return self.child.distance(p @ self._inverse.T)

    def to_dict(self):
        return {"type": "rotate", "quaternion": self.quaternion.tolist(), "child": self.child.to_dict()}


class Union(Sdf):
    def __init__(self, children: list[Sdf]):
        if not children:
            raise ValueError("union needs at least one child")
        self.children = list(children)

    def distance(self, points):
        return np.minimum.reduce([c.distance(points) for c in self.children])

    def to_dict(self):
        return {"type": "union", "children": [c.to_dict() for c in self.children]}


class Difference(Sdf):
    """Points of `base` not inside `cut`."""

    def __init__(self, base: Sdf, cut: Sdf):
        self.base = base
        self.cut = cut

    def distance(self, points):
        return np.maximum(self.base.distance(points), -self.cut.distance(points))

    def to_dict(self):
        return {"type": "difference", "base": self.base.to_dict(), "cut": self.cut.to_dict()}


class Intersection(Sdf):
    def __init__(self, children: list[Sdf]):
        if not children:
            raise ValueError("intersection needs at least one child")
        self.children = list(children)

    def distance(self, points):
        return np.maximum.reduce([c.distance(points) for c in self.children])

    def to_dict(self):
        return {"type": "intersection", "children": [c.to_dict() for c in self.children]}


def from_dict(doc: dict) -> Sdf:
    kind = doc["type"]
    if kind == "sphere":
        return Sphere(doc["radius"])
    if kind == "box":
        return Box(doc["half_extents"])
    if kind == "cylinder":
        return Cylinder(doc["radius"], doc["half_height"])
    if kind == "capped_torus":
        return CappedTorus(doc["major_radius"], doc["tube_radius"], doc["half_angle"])
    if kind == "translate":
        return Translate(from_dict(doc["child"]), doc["offset"])
    if kind == "rotate":
        return Rotate(from_dict(doc["child"]), doc["quaternion"])
    if kind == "union":
        return Union([from_dict(c) for c in doc["children"]])
    if kind == "difference":
        return Difference(from_dict(doc["base"]), from_dict(doc["cut"]))
    if kind == "intersection":
        return Intersection([from_dict(c) for c in doc["children"]])
    raise ValueError(f"unknown sdf node type {kind!r}")
