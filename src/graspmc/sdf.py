"""Signed distance fields: analytic primitives plus CSG composition.

Distances are exact for primitives and conservative (still 1-Lipschitz,
correct sign) for unions/differences/intersections. All shapes evaluate
vectorized over (..., 3) point arrays; negative inside, positive outside.
Every node serializes to a plain dict so object catalogs round-trip
through text documents.

A union, difference or intersection evaluates through a plan of its
subtree, built on first use. Primitives of one type whose only transform
is one translation run as one broadcast pass with a column per parameter;
other leaves run through their own transform chain; the CSG combine then
follows tree order. A translation or rotation moves its whole input once
and hands it to its child's `distance`. The plan applies each node's
floating-point operations in the node's own order, so its distances equal
a node-by-node walk bit for bit. Nodes are not changed after they are
built: a plan keeps the parameters it was compiled with.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import quaternions as quat

CHUNK_POINTS = 1024  # points per plan pass; bounds its (leaves, points) temporary arrays


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


class _Primitive(Sdf):
    """A leaf whose distance is `formula(x, y, z, *params())`, elementwise in
    the coordinates, so a plan can evaluate several leaves of one type in a
    single call with each parameter a column."""

    def params(self) -> tuple:
        raise NotImplementedError

    @staticmethod
    def formula(x, y, z, *params):
        raise NotImplementedError

    def distance(self, points):
        p = np.asarray(points, dtype=float)
        return self.formula(p[..., 0], p[..., 1], p[..., 2], *self.params())


class Sphere(_Primitive):
    def __init__(self, radius: float):
        self.radius = float(radius)

    def params(self):
        return (self.radius,)

    @staticmethod
    def formula(x, y, z, radius):
        # summed left to right, as np.linalg.norm sums over the last axis
        return np.sqrt(x * x + y * y + z * z) - radius

    def to_dict(self):
        return {"type": "sphere", "radius": self.radius}


class Box(_Primitive):
    """Axis-aligned box given half extents, centered at the origin."""

    def __init__(self, half_extents):
        self.half_extents = np.asarray(half_extents, dtype=float)

    def params(self):
        return tuple(self.half_extents)

    @staticmethod
    def formula(x, y, z, hx, hy, hz):
        qx, qy, qz = np.abs(x) - hx, np.abs(y) - hy, np.abs(z) - hz
        ox, oy, oz = np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0)
        inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
        # left to right, the order of np.linalg.norm; another order moves last bits
        return np.sqrt(ox * ox + oy * oy + oz * oz) + inside

    def to_dict(self):
        return {"type": "box", "half_extents": self.half_extents.tolist()}


class Cylinder(_Primitive):
    """Capped cylinder along z, centered at the origin."""

    def __init__(self, radius: float, half_height: float):
        self.radius = float(radius)
        self.half_height = float(half_height)

    def params(self):
        return (self.radius, self.half_height)

    @staticmethod
    def formula(x, y, z, radius, half_height):
        radial = np.hypot(x, y) - radius
        axial = np.abs(z) - half_height
        r, a = np.maximum(radial, 0.0), np.maximum(axial, 0.0)
        return np.sqrt(r * r + a * a) + np.minimum(np.maximum(radial, axial), 0.0)

    def to_dict(self):
        return {"type": "cylinder", "radius": self.radius, "half_height": self.half_height}


class CappedTorus(_Primitive):
    """Arc of a torus around z, opening symmetric about +y, in the xy-plane.

    half_angle is the angular half-width of the retained arc measured from
    +y; major_radius is the centerline circle, tube_radius the thickness.
    Exact distance (the capped-torus construction of quilez-style SDFs).
    """

    def __init__(self, major_radius: float, tube_radius: float, half_angle: float):
        self.major_radius = float(major_radius)
        self.tube_radius = float(tube_radius)
        self.half_angle = float(half_angle)
        # the expressions the formula used to evaluate on every call, so the same bits
        self._constants = (
            np.sin(self.half_angle),
            np.cos(self.half_angle),
            self.major_radius**2,
            2.0 * self.major_radius,
        )

    def params(self):
        return (*self._constants, self.tube_radius)

    @staticmethod
    def formula(x, y, z, sin, cos, major_squared, major_doubled, tube_radius):
        px = np.abs(x)
        k = np.where(cos * px > sin * y, px * sin + y * cos, np.hypot(px, y))
        sq = px * px + y * y + z * z
        return np.sqrt(np.maximum(sq + major_squared - major_doubled * k, 0.0)) - tube_radius

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

    def move(self, p: np.ndarray) -> np.ndarray:
        """Points in the child's frame."""
        return p - self.offset

    def distance(self, points):
        return self.child.distance(self.move(np.asarray(points, dtype=float)))

    def to_dict(self):
        return {"type": "translate", "offset": self.offset.tolist(), "child": self.child.to_dict()}


class Rotate(Sdf):
    """Child rotated by a unit quaternion about the origin."""

    def __init__(self, child: Sdf, quaternion):
        self.child = child
        self.quaternion = quat.canonicalize(quaternion)
        self._inverse = quat.rotation_matrix(self.quaternion).T

    def move(self, p: np.ndarray) -> np.ndarray:
        """Points in the child's frame."""
        return p @ self._inverse.T

    def distance(self, points):
        return self.child.distance(self.move(np.asarray(points, dtype=float)))

    def to_dict(self):
        return {"type": "rotate", "quaternion": self.quaternion.tolist(), "child": self.child.to_dict()}


class _Combination(Sdf):
    """A CSG node: evaluates through the plan of its subtree."""

    def distance(self, points):
        return self._plan(points)

    @cached_property
    def _plan(self) -> "_Plan":
        return _Plan(self)


class Union(_Combination):
    def __init__(self, children: list[Sdf]):
        if not children:
            raise ValueError("union needs at least one child")
        self.children = list(children)

    def to_dict(self):
        return {"type": "union", "children": [c.to_dict() for c in self.children]}


class Difference(_Combination):
    """Points of `base` not inside `cut`."""

    def __init__(self, base: Sdf, cut: Sdf):
        self.base = base
        self.cut = cut

    def to_dict(self):
        return {"type": "difference", "base": self.base.to_dict(), "cut": self.cut.to_dict()}


class Intersection(_Combination):
    def __init__(self, children: list[Sdf]):
        if not children:
            raise ValueError("intersection needs at least one child")
        self.children = list(children)

    def to_dict(self):
        return {"type": "intersection", "children": [c.to_dict() for c in self.children]}


_PRIMITIVES = (Sphere, Box, Cylinder, CappedTorus)


def _difference(base, cut):
    return np.maximum(base, -cut)


class _Plan:
    """A CSG subtree compiled to leaf passes and a list of combine steps.

    Values live in numbered slots: one per leaf, then one per combine step.
    The plan inlines the package's own node types, so it calls no
    `distance` of theirs below the root; a node of any other Sdf subclass
    is an opaque leaf, called through its own `distance`.
    """

    def __init__(self, root: _Combination):
        self.size = 0
        self.steps = []  # (function, slot, slot, out slot), in tree order
        leaves = []  # (slot, transform chain outermost first, node)
        self.result = self._compile(root, [], leaves)
        groups, self.singles = {}, []
        for slot, chain, node in leaves:
            if type(node) in _PRIMITIVES and len(chain) == 1 and type(chain[0]) is Translate:
                groups.setdefault(type(node), []).append((slot, chain[0].offset, node.params()))
            else:
                self.singles.append((slot, chain, node))
        self.groups = []  # (formula, slots, offset columns, parameter columns)
        for kind, members in groups.items():
            slots, offsets, params = zip(*members)
            columns = [np.array(column)[:, None] for column in zip(*params)]
            self.groups.append((kind.formula, slots, np.array(offsets).T[:, :, None], columns))

    def _slot(self) -> int:
        self.size += 1
        return self.size - 1

    def _compile(self, node: Sdf, chain: list, leaves: list) -> int:
        """Slot holding node's value on points moved by chain."""
        kind = type(node)
        if kind in (Translate, Rotate):
            return self._compile(node.child, chain + [node], leaves)
        if kind in (Union, Intersection):
            combine = np.minimum if kind is Union else np.maximum
            value = self._compile(node.children[0], chain, leaves)
            for child in node.children[1:]:
                value = self._step(combine, value, self._compile(child, chain, leaves))
            return value
        if kind is Difference:
            base = self._compile(node.base, chain, leaves)
            return self._step(_difference, base, self._compile(node.cut, chain, leaves))
        slot = self._slot()
        leaves.append((slot, chain, node))
        return slot

    def _step(self, function, a: int, b: int) -> int:
        out = self._slot()
        self.steps.append((function, a, b, out))
        return out

    def __call__(self, points):
        p = np.asarray(points, dtype=float)
        flat = p.reshape(-1, 3)
        if len(flat) <= CHUNK_POINTS:
            d = self._evaluate(flat)
        else:
            chunks = range(0, len(flat), CHUNK_POINTS)
            d = np.concatenate([self._evaluate(flat[i:i + CHUNK_POINTS]) for i in chunks])
        return d.reshape(p.shape[:-1])[()]  # a scalar for one (3,) point, as a leaf gives

    def _evaluate(self, p: np.ndarray) -> np.ndarray:
        values = [None] * self.size
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        for formula, slots, (ox, oy, oz), params in self.groups:
            for slot, row in zip(slots, formula(x - ox, y - oy, z - oz, *params)):
                values[slot] = row
        for slot, chain, node in self.singles:
            q = p
            for transform in chain:
                q = transform.move(q)
            values[slot] = node.distance(q)
        for function, a, b, out in self.steps:
            values[out] = function(values[a], values[b])
        return values[self.result]


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
