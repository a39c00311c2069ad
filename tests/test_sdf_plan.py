"""The compiled CSG plans against a node-by-node walk, bit for bit.

`reference_distance` keeps each node's formula as a plain tree walk: every
node evaluates its whole input, primitives use np.linalg.norm and np.stack,
and unions reduce a list. A plan must give the same bits on every input
shape, across its chunk boundary, and for leaves it cannot compile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc import quaternions as quat
from graspmc import sdf
from graspmc.objects import OBJECT_NAMES, get_object, object_catalog


class Rounded(sdf.Sdf):
    """A child grown by a margin: a subclass no plan can compile."""

    def __init__(self, child, margin):
        self.child = child
        self.margin = float(margin)

    def distance(self, points):
        return self.child.distance(points) - self.margin


def reference_distance(node, points):
    p = np.asarray(points, dtype=float)
    kind = type(node)
    if kind is sdf.Sphere:
        return np.linalg.norm(p, axis=-1) - node.radius
    if kind is sdf.Box:
        q = np.abs(p) - node.half_extents
        return np.linalg.norm(np.maximum(q, 0.0), axis=-1) + np.minimum(np.max(q, axis=-1), 0.0)
    if kind is sdf.Cylinder:
        radial = np.hypot(p[..., 0], p[..., 1]) - node.radius
        axial = np.abs(p[..., 2]) - node.half_height
        q = np.stack([radial, axial], axis=-1)
        return np.linalg.norm(np.maximum(q, 0.0), axis=-1) + np.minimum(np.max(q, axis=-1), 0.0)
    if kind is sdf.CappedTorus:
        sc = np.array([np.sin(node.half_angle), np.cos(node.half_angle)])
        px, py, pz = np.abs(p[..., 0]), p[..., 1], p[..., 2]
        k = np.where(sc[1] * px > sc[0] * py, px * sc[0] + py * sc[1], np.hypot(px, py))
        sq = px * px + py * py + pz * pz
        r = node.major_radius
        return np.sqrt(np.maximum(sq + r**2 - 2.0 * r * k, 0.0)) - node.tube_radius
    if kind is sdf.Translate:
        return reference_distance(node.child, p - node.offset)
    if kind is sdf.Rotate:
        return reference_distance(node.child, p @ node._inverse.T)
    if kind is sdf.Union:
        return np.minimum.reduce([reference_distance(c, p) for c in node.children])
    if kind is sdf.Intersection:
        return np.maximum.reduce([reference_distance(c, p) for c in node.children])
    if kind is sdf.Difference:
        return np.maximum(reference_distance(node.base, p), -reference_distance(node.cut, p))
    if kind is Rounded:
        return reference_distance(node.child, p) - node.margin
    raise TypeError(kind)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


lengths = st.floats(0.02, 0.4)
primitives = st.one_of(
    st.builds(sdf.Sphere, lengths),
    st.builds(sdf.Box, st.tuples(lengths, lengths, lengths)),
    st.builds(sdf.Cylinder, lengths, lengths),
    st.builds(sdf.CappedTorus, lengths, st.floats(0.005, 0.1), st.floats(0.1, 3.1)),
)
offsets = st.tuples(*[st.floats(-0.3, 0.3)] * 3)
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(c * c for c in q) > 0.01)


def composites(subtrees):
    return st.one_of(
        st.builds(sdf.Translate, subtrees, offsets),
        st.builds(sdf.Rotate, subtrees, quaternions),
        st.builds(sdf.Union, st.lists(subtrees, min_size=1, max_size=4)),
        st.builds(sdf.Intersection, st.lists(subtrees, min_size=1, max_size=4)),
        st.builds(sdf.Difference, subtrees, subtrees),
        st.builds(Rounded, subtrees, st.floats(0.0, 0.05)),
    )


trees = st.recursive(primitives, composites, max_leaves=10)
# a CSG root, so every example evaluates through a plan
csg_trees = st.one_of(
    st.builds(sdf.Union, st.lists(trees, min_size=1, max_size=4)),
    st.builds(sdf.Intersection, st.lists(trees, min_size=1, max_size=4)),
    st.builds(sdf.Difference, trees, trees),
)
point_shapes = st.sampled_from(
    [(3,), (1, 3), (1024, 3), (1025, 3), (3000, 3), (4, 256, 3), (5, 205, 3), (3, 1000, 3)]
)


@settings(max_examples=150, deadline=None)
@given(csg_trees, point_shapes, st.integers(0, 2**32 - 1))
def test_plan_matches_reference_walk(shape, points_shape, seed):
    points = np.random.default_rng(seed).uniform(-0.6, 0.6, points_shape)
    assert same_bits(shape.distance(points), reference_distance(shape, points))


@settings(max_examples=60, deadline=None)
@given(csg_trees, st.integers(0, 2**32 - 1), st.sampled_from([1e-4, 1e-2, 0.1]))
def test_random_trees_are_1_lipschitz(shape, seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.6, 0.6, size=(1500, 3))
    b = a + rng.normal(scale=scale, size=a.shape)
    gap = np.abs(shape.distance(a) - shape.distance(b))
    assert np.all(gap <= np.linalg.norm(a - b, axis=1) * (1 + 1e-6) + 1e-12)


CATALOG = object_catalog()
MOVED = [
    obj.transformed(quat.from_axis_angle([2.0 - i, 1.0, 0.5 * i], 0.7 + 0.3 * i), [0.05 * i, -0.1, 0.2])
    for i, obj in enumerate(CATALOG)
]
NAMES = [o.name for o in CATALOG] + [f"moved-{o.name}" for o in CATALOG]


@pytest.mark.parametrize("obj", CATALOG + MOVED, ids=NAMES)
def test_point_alone_equals_its_value_in_any_batch(obj):
    rng = np.random.default_rng(17)
    span = obj.bounds_hi - obj.bounds_lo
    points = rng.uniform(obj.bounds_lo - 0.2 * span, obj.bounds_hi + 0.2 * span, size=(2100, 3))
    batch = obj.distance(points)
    assert same_bits(batch, reference_distance(obj.shape, points))
    assert same_bits(obj.distance(points.reshape(3, 700, 3)), batch.reshape(3, 700))
    alone = np.array([obj.distance(p) for p in points])
    assert same_bits(alone, batch)
    # every start of a 1,024-point chunk the batch was cut into, and the points beside it
    for i in range(1000, 1050):
        assert same_bits(obj.distance(points[i:i + 1]), batch[i:i + 1])
        assert same_bits(obj.distance(points[i:]), batch[i:])


def test_opaque_leaf_is_called_through_its_own_distance_in_chunks():
    calls = []

    class Spy(sdf.Sdf):
        def distance(self, points):
            calls.append(np.shape(points))
            return np.linalg.norm(points, axis=-1) - 0.1

    shape = sdf.Union([sdf.Sphere(0.2).translate([0.3, 0.0, 0.0]), Spy().translate([0.0, 0.1, 0.0])])
    points = np.random.default_rng(2).uniform(-0.5, 0.5, size=(2, 1100, 3))
    spy_distance = np.linalg.norm(points - shape.children[1].offset, axis=-1) - 0.1
    expected = np.minimum(reference_distance(shape.children[0], points), spy_distance)
    assert same_bits(shape.distance(points), expected)
    assert calls[-3:] == [(1024, 3), (1024, 3), (152, 3)]


def test_wrapper_on_a_root_counts_alone_and_inside_a_transformed_copy():
    """A counting wrapper on a model root's `distance`, added after the plans
    were built, still counts when the root is evaluated or sits inside a
    transformed copy."""
    obj = get_object("pan")
    moved = obj.transformed(quat.from_axis_angle([0.0, 1.0, 0.0], 0.5), [0.1, 0.0, 0.0])
    points = np.random.default_rng(4).uniform(-0.1, 0.1, size=(40, 3))
    before = obj.distance(points), moved.distance(points)
    counted = []
    evaluate = obj.shape.distance

    def counting(p):
        counted.append(len(p))
        return evaluate(p)

    obj.shape.distance = counting
    assert same_bits(obj.distance(points), before[0]) and counted == [40]
    assert same_bits(moved.distance(points), before[1]) and counted == [40, 40]


def test_catalog_names_match_the_catalog_order():
    assert OBJECT_NAMES == tuple(obj.name for obj in CATALOG)
    for name in OBJECT_NAMES:
        assert get_object(name).to_dict() == CATALOG[OBJECT_NAMES.index(name)].to_dict()
