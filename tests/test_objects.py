import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graspmc import quaternions as quat
from graspmc import sdf
from graspmc.grasping import REACH_SLACK
from graspmc.objects import get_object, object_catalog


def test_catalog_has_nine_objects():
    catalog = object_catalog()
    assert len(catalog) == 9
    assert len({o.name for o in catalog}) == 9


def test_bounding_box_corners_outside():
    for obj in object_catalog():
        corners = np.array(
            [
                [x, y, z]
                for x in (obj.bounds_lo[0], obj.bounds_hi[0])
                for y in (obj.bounds_lo[1], obj.bounds_hi[1])
                for z in (obj.bounds_lo[2], obj.bounds_hi[2])
            ]
        )
        assert np.all(obj.distance(corners) > 0), obj.name


def test_bounds_contain_object():
    rng = np.random.default_rng(0)
    for obj in object_catalog():
        span = obj.bounds_hi - obj.bounds_lo
        pts = rng.uniform(obj.bounds_lo - 0.5 * span, obj.bounds_hi + 0.5 * span, size=(5000, 3))
        inside = pts[obj.distance(pts) < 0]
        if inside.size:
            assert np.all(inside >= obj.bounds_lo - 1e-9), obj.name
            assert np.all(inside <= obj.bounds_hi + 1e-9), obj.name


CATALOG = object_catalog()
MOVED = [
    obj.transformed(
        quat.from_axis_angle([2.0 - i, 1.0, 0.5 * i], 0.2 + 0.6 * i), [-0.3, 0.1 * i, 0.2]
    )
    for i, obj in enumerate(CATALOG)
]



@functools.cache
def farthest_inside(index):
    """For each (axis, side), an inside point of object `index` of
    CATALOG + MOVED that comes closest to that face of its bounds box."""
    obj = (CATALOG + MOVED)[index]
    points = np.random.default_rng(index).uniform(obj.bounds_lo, obj.bounds_hi, (100_000, 3))
    inside = points[obj.distance(points) < 0.0]
    return {
        (axis, side): inside[np.argmax(side * inside[:, axis])]
        for axis in range(3)
        for side in (-1, 1)
    }


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, len(CATALOG + MOVED) - 1),
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
    st.booleans(),
    st.tuples(*[st.sampled_from([-1, 0, 1])] * 3).filter(any),
    st.tuples(*[st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 0.1))] * 3),
)
def test_points_beyond_the_bounds_box_are_outside(index, fractions, near_object, faces, gaps):
    """The evaluation cascade's reach test relies on this: a point more than
    REACH_SLACK outside the bounds box has a positive distance. The point
    is pushed out through the faces from a random point of the box or, to
    find a box that cuts the shape, from the inside point nearest one of
    those faces."""
    obj = (CATALOG + MOVED)[index]
    if near_object:
        axis = next(a for a, face in enumerate(faces) if face)
        point = farthest_inside(index)[axis, faces[axis]].copy()
    else:
        point = obj.bounds_lo + np.array(fractions) * (obj.bounds_hi - obj.bounds_lo)
    for axis, (face, gap) in enumerate(zip(faces, gaps)):
        if face < 0:
            point[axis] = obj.bounds_lo[axis] - gap
        elif face > 0:
            point[axis] = obj.bounds_hi[axis] + gap
    outside = np.maximum(np.maximum(obj.bounds_lo - point, point - obj.bounds_hi), 0.0)
    assume(math.sqrt(float(outside @ outside)) > REACH_SLACK)
    assert obj.distance(point[None, :])[0] > 0.0, (obj.name, point.tolist())


def test_variant_proportions():
    plate, soup = get_object("plate"), get_object("soup_plate")
    plate_size = plate.bounds_hi - plate.bounds_lo
    soup_size = soup.bounds_hi - soup.bounds_lo
    rel = np.abs(soup_size - plate_size) / plate_size
    assert np.all(rel <= 0.30)

    pitcher, tall = get_object("pitcher"), get_object("tall_pitcher")
    h = pitcher.bounds_hi[2] - pitcher.bounds_lo[2]
    h_tall = tall.bounds_hi[2] - tall.bounds_lo[2]
    assert abs(h_tall - h) / h > 0.40


def test_get_object_unknown():
    with pytest.raises(KeyError):
        get_object("teapot")


def test_transformed_object_distances():
    obj = get_object("pan")
    r = quat.from_axis_angle([0.3, 1.0, 0.2], 1.1)
    t = np.array([0.4, -0.2, 0.15])
    moved = obj.transformed(r, t)
    rng = np.random.default_rng(7)
    pts = rng.uniform(obj.bounds_lo, obj.bounds_hi, size=(300, 3))
    moved_pts = pts @ quat.rotation_matrix(r).T + t
    np.testing.assert_allclose(obj.distance(pts), moved.distance(moved_pts), atol=1e-12)
    # transformed bounds contain the moved object
    inside = moved_pts[moved.distance(moved_pts) < 0]
    if inside.size:
        assert np.all(inside >= moved.bounds_lo - 1e-9)
        assert np.all(inside <= moved.bounds_hi + 1e-9)


def test_built_nodes_check_their_parameters():
    for build in (
        lambda: sdf.Sphere(0.0),
        lambda: sdf.Box([1.0, 1.0]),
        lambda: sdf.Cylinder(1.0, -1.0),
        lambda: sdf.CappedTorus(1.0, 0.1, -0.5),
        lambda: sdf.Sphere(1.0).translate([0.0, 0.0, np.inf]),
        lambda: sdf.Sphere(1.0).rotate([1.0, 0.0, 0.0, 0.0, 0.0]),
    ):
        with pytest.raises(ValueError):
            build()


# --------------------------------------------------------------------------
# malformed catalog nodes: checked when the nodes are built


MALFORMED_NODES = [
    lambda: sdf.Box([]),
    lambda: sdf.Box([0.1, 0.0, 0.1]),
    lambda: sdf.Sphere(-1.0),
    lambda: sdf.Sphere(np.inf),
    lambda: sdf.Cylinder(0.05, np.nan),
    lambda: sdf.CappedTorus(0.03, 0.01, 0.0),
    lambda: sdf.CappedTorus(0.03, 0.01, 3.2),
    lambda: sdf.CappedTorus(-0.03, 0.01, 2.0),
    lambda: sdf.Sphere(0.05).translate([0.0, 0.0]),
    lambda: sdf.Sphere(0.05).translate([0.0, np.nan, 0.0]),
    lambda: sdf.Sphere(0.05).rotate([1.0, 0.0, 0.0]),
]


@pytest.mark.parametrize(
    "node", MALFORMED_NODES, ids=[f"node{i}" for i in range(len(MALFORMED_NODES))]
)
def test_catalog_rejects_malformed_node(node):
    with pytest.raises(ValueError):
        node()

