"""Signed distance fields: analytic primitives plus CSG composition.

Distances are exact for primitives and conservative (still 1-Lipschitz,
correct sign) for unions and differences. All shapes evaluate vectorized
over (..., 3) point arrays; negative inside, positive outside.

A union or difference evaluates through a plan of its subtree, built on
first use. Primitives of one type whose only transform is one
translation run as one broadcast pass with a column per parameter;
a parameter or offset that all of them share bit for bit is one entry, so
the pass computes, say, the radial distance of all z-axis cylinders once.
Other leaves run through their own transform chain; the CSG combine then
follows tree order. A translation or rotation moves its whole input once
and hands it to its child's `distance`. The plan applies each node's
floating-point operations in the node's own order, so its distances equal
a node-by-node walk bit for bit. Nodes are not changed after they are
built: a plan keeps the parameters it was compiled with. Each node checks
its parameters when it is built and raises ValueError on a malformed one.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import quaternions as quat

CHUNK_POINTS = 1024  # points per plan pass; bounds its (leaves, points) temporary arrays
GRADIENT_STEP = 1e-5  # central-difference step of `Sdf.gradient`, m


def _positive(name: str, value) -> float:
    value = float(value)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, not {value!r}")
    return value


def _vector(name: str, value, size: int) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if value.shape != (size,) or not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be a finite {size}-vector, not {value.tolist()!r}")
    return value


class Sdf:
    def distance(self, points: np.ndarray) -> np.ndarray:
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

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Central-difference gradient: one distance call on all six
        +/-GRADIENT_STEP offsets of every point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))[:, None, :]
        offsets = GRADIENT_STEP * np.eye(3)
        stencil = np.concatenate([points + offsets, points - offsets], axis=1)
        d = self.distance(stencil.reshape(-1, 3)).reshape(-1, 6)
        return (d[:, :3] - d[:, 3:]) / (2 * GRADIENT_STEP)

    def normal(self, points: np.ndarray) -> np.ndarray:
        g = self.gradient(points)
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
        self.radius = _positive("radius", radius)

    def params(self):
        return (self.radius,)

    @staticmethod
    def formula(x, y, z, radius):
        # summed left to right, as np.linalg.norm sums over the last axis
        return np.sqrt(x * x + y * y + z * z) - radius


class Box(_Primitive):
    """Axis-aligned box given half extents, centered at the origin."""

    def __init__(self, half_extents):
        self.half_extents = _vector("half_extents", half_extents, 3)
        if not np.all(self.half_extents > 0.0):
            raise ValueError(f"half_extents must be positive, not {self.half_extents.tolist()!r}")

    def params(self):
        return tuple(self.half_extents)

    @staticmethod
    def formula(x, y, z, hx, hy, hz):
        qx, qy, qz = np.abs(x) - hx, np.abs(y) - hy, np.abs(z) - hz
        ox, oy, oz = np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0)
        inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
        # left to right, the order of np.linalg.norm; another order moves last bits
        return np.sqrt(ox * ox + oy * oy + oz * oz) + inside


class Cylinder(_Primitive):
    """Capped cylinder along z, centered at the origin."""

    def __init__(self, radius: float, half_height: float):
        self.radius = _positive("radius", radius)
        self.half_height = _positive("half_height", half_height)

    def params(self):
        return (self.radius, self.half_height)

    @staticmethod
    def formula(x, y, z, radius, half_height):
        radial = np.hypot(x, y) - radius
        axial = np.abs(z) - half_height
        r, a = np.maximum(radial, 0.0), np.maximum(axial, 0.0)
        return np.sqrt(r * r + a * a) + np.minimum(np.maximum(radial, axial), 0.0)


class CappedTorus(_Primitive):
    """Arc of a torus around z, opening symmetric about +y, in the xy-plane.

    half_angle is the angular half-width of the retained arc measured from
    +y; major_radius is the centerline circle, tube_radius the thickness.
    Exact distance (the capped-torus construction of quilez-style SDFs).
    """

    def __init__(self, major_radius: float, tube_radius: float, half_angle: float):
        self.major_radius = _positive("major_radius", major_radius)
        self.tube_radius = _positive("tube_radius", tube_radius)
        self.half_angle = float(half_angle)
        if not 0.0 < self.half_angle <= np.pi:
            raise ValueError(f"half_angle must lie in (0, pi], not {self.half_angle!r}")
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


class Translate(Sdf):
    def __init__(self, child: Sdf, offset):
        self.child = child
        self.offset = _vector("offset", offset, 3)

    def move(self, p: np.ndarray) -> np.ndarray:
        """Points in the child's frame."""
        return p - self.offset

    def distance(self, points):
        return self.child.distance(self.move(np.asarray(points, dtype=float)))


class Rotate(Sdf):
    """Child rotated by a unit quaternion about the origin."""

    def __init__(self, child: Sdf, quaternion):
        self.child = child
        self.quaternion = quat.canonicalize(_vector("quaternion", quaternion, 4))
        self._inverse = quat.rotation_matrix(self.quaternion).T

    def move(self, p: np.ndarray) -> np.ndarray:
        """Points in the child's frame."""
        return p @ self._inverse.T

    def distance(self, points):
        return self.child.distance(self.move(np.asarray(points, dtype=float)))


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


class Difference(_Combination):
    """Points of `base` not inside `cut`."""

    def __init__(self, base: Sdf, cut: Sdf):
        self.base = base
        self.cut = cut


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
            columns = [_column(column) for column in (*zip(*offsets), *zip(*params))]
            self.groups.append((kind.formula, slots, columns[:3], columns[3:]))

    def _slot(self) -> int:
        self.size += 1
        return self.size - 1

    def _compile(self, node: Sdf, chain: list, leaves: list) -> int:
        """Slot holding node's value on points moved by chain."""
        kind = type(node)
        if kind in (Translate, Rotate):
            return self._compile(node.child, chain + [node], leaves)
        if kind is Union:
            value = self._compile(node.children[0], chain, leaves)
            for child in node.children[1:]:
                value = self._step(np.minimum, value, self._compile(child, chain, leaves))
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
            rows = formula(x - ox, y - oy, z - oz, *params)
            if len(rows) < len(slots):  # every column shared: one row serves all
                rows = np.broadcast_to(rows, (len(slots), len(p)))
            for slot, row in zip(slots, rows):
                values[slot] = row
        for slot, chain, node in self.singles:
            q = p
            for transform in chain:
                q = transform.move(q)
            values[slot] = node.distance(q)
        for function, a, b, out in self.steps:
            values[out] = function(values[a], values[b])
        return values[self.result]


def _column(values) -> np.ndarray:
    """A group's values of one offset or parameter as a (leaves, 1) column,
    or as one (1, 1) entry when they are all bitwise equal, so the formula
    computes what depends only on shared columns once for the whole group."""
    column = np.array(values, dtype=float)[:, None]
    if np.all(column.view(np.uint64) == column.view(np.uint64)[0]):
        return column[:1]
    return column

