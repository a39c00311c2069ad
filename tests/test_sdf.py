import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc import quaternions as quat
from graspmc import sdf
from graspmc.objects import object_catalog


def test_sphere_distances():
    s = sdf.Sphere(0.5)
    assert s.distance(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5)
    assert s.distance(np.array([0.0, 0.0, 0.0])) == pytest.approx(-0.5)
    assert s.distance(np.array([0.5, 0.0, 0.0])) == pytest.approx(0.0)


def test_box_face_and_corner():
    b = sdf.Box([1.0, 1.0, 1.0])
    assert b.distance(np.array([2.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert b.distance(np.array([2.0, 2.0, 2.0])) == pytest.approx(np.sqrt(3.0))
    assert b.distance(np.array([0.0, 0.0, 0.0])) == pytest.approx(-1.0)


def test_cylinder_side_and_cap():
    c = sdf.Cylinder(0.5, 1.0)
    assert c.distance(np.array([1.5, 0.0, 0.0])) == pytest.approx(1.0)
    assert c.distance(np.array([0.0, 0.0, 2.0])) == pytest.approx(1.0)
    assert c.distance(np.array([0.0, 0.0, 0.0])) == pytest.approx(-0.5)


def test_capped_torus_full_ring_matches_torus():
    # wide cap: points near the retained arc behave like a plain torus
    t = sdf.CappedTorus(1.0, 0.1, np.pi * 0.99)
    assert t.distance(np.array([0.0, 1.0, 0.0])) == pytest.approx(-0.1, abs=1e-9)
    assert t.distance(np.array([0.0, 1.1, 0.0])) == pytest.approx(0.0, abs=1e-9)
    assert t.distance(np.array([1.3, 0.0, 0.0])) == pytest.approx(0.2, abs=1e-9)


def test_capped_torus_cap_region():
    # narrow arc around +y: a point near -y sees the distance to the arc ends
    t = sdf.CappedTorus(1.0, 0.1, 0.5)
    d = t.distance(np.array([0.0, -1.0, 0.0]))
    end = np.array([np.sin(0.5), np.cos(0.5), 0.0])
    assert d == pytest.approx(np.linalg.norm(np.array([0.0, -1.0, 0.0]) - end) - 0.1, abs=1e-9)


def test_translate_rotate():
    s = sdf.Sphere(1.0).translate([2.0, 0.0, 0.0])
    assert s.distance(np.array([2.0, 0.0, 0.0])) == pytest.approx(-1.0)
    from graspmc import quaternions as quat

    b = sdf.Box([2.0, 0.1, 0.1]).rotate(quat.from_axis_angle([0, 0, 1], np.pi / 2))
    # long axis now along y
    assert b.distance(np.array([0.0, 1.9, 0.0])) < 0
    assert b.distance(np.array([1.9, 0.0, 0.0])) > 0


def test_csg_signs():
    ring = sdf.Cylinder(1.0, 0.1).subtract(sdf.Cylinder(0.5, 0.2))
    assert ring.distance(np.array([0.75, 0.0, 0.0])) < 0
    assert ring.distance(np.array([0.0, 0.0, 0.0])) > 0
    both = sdf.Union([sdf.Sphere(0.2), sdf.Sphere(0.2).translate([1.0, 0.0, 0.0])])
    assert both.distance(np.array([1.0, 0.0, 0.0])) < 0
    assert both.distance(np.array([0.5, 0.0, 0.0])) > 0


LIPSCHITZ_SHAPES = [
    sdf.Sphere(0.3),
    sdf.Box([0.2, 0.3, 0.1]),
    sdf.Cylinder(0.25, 0.4),
    sdf.CappedTorus(0.3, 0.05, 2.0),
    sdf.Union([sdf.Sphere(0.2), sdf.Box([0.1, 0.4, 0.1])]),
    sdf.Cylinder(0.3, 0.2).subtract(sdf.Cylinder(0.2, 0.3)),
]


@pytest.mark.parametrize("shape", LIPSCHITZ_SHAPES)
def test_lipschitz_property(shape):
    # |d(a) - d(b)| <= (1 + 1e-6) ||a - b|| + 1e-12 on random pairs, seeded
    # by the shape's place in the list so every run draws the same pairs
    rng = np.random.default_rng(LIPSCHITZ_SHAPES.index(shape))
    a = rng.uniform(-1, 1, size=(2000, 3))
    b = a + rng.normal(scale=0.1, size=(2000, 3))
    gap = np.abs(shape.distance(a) - shape.distance(b))
    assert np.all(gap <= np.linalg.norm(a - b, axis=1) * (1 + 1e-6) + 1e-12)


def test_gradient_unit_norm_near_surface():
    shape = sdf.Union([sdf.Sphere(0.3).translate([0.2, 0, 0]), sdf.Box([0.1, 0.1, 0.4])])
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.6, 0.6, size=(4000, 3))
    d = shape.distance(pts)
    near = pts[np.abs(d) < 0.05][:500]
    norms = np.linalg.norm(shape.gradient(near), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-3)


def test_vectorized_matches_scalar():
    shape = sdf.CappedTorus(0.4, 0.07, 1.8).rotate([1, 1, 0, 0]).translate([0.1, -0.2, 0.3])
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(50, 3))
    batch = shape.distance(pts)
    single = np.array([float(shape.distance(p)) for p in pts])
    np.testing.assert_allclose(batch, single, rtol=0, atol=0)


CATALOG = object_catalog()
# each object also in a frame moved by a general rotation and translation
MOVED = [
    obj.transformed(quat.from_axis_angle([1.0, 2.0, 3.0 + i], 0.3 + 0.4 * i), [0.1, -0.2 + 0.05 * i, 0.3])
    for i, obj in enumerate(CATALOG)
]


def per_axis_gradient(shape, points):
    """The central-difference gradient as two distance calls per axis."""
    h = sdf.GRADIENT_STEP
    points = np.atleast_2d(np.asarray(points, dtype=float))
    grads = np.empty_like(points)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = h
        grads[:, axis] = (shape.distance(points + offset) - shape.distance(points - offset)) / (2 * h)
    return grads


def project_to_surface(obj, points, offsets):
    """Newton steps onto the zero level set, then offsets along the normal."""
    for _ in range(3):
        points = points - obj.distance(points)[:, None] * obj.normal(points)
    return points + offsets[:, None] * obj.normal(points)


@st.composite
def near_surface_points(draw):
    """(object, 1-6 points within about 2 mm of its surface)."""
    obj = draw(st.sampled_from(CATALOG + MOVED))
    count = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    fractions = np.array(draw(st.lists(st.tuples(unit, unit, unit), min_size=count, max_size=count)))
    offsets = np.array(draw(st.lists(st.floats(-2e-3, 2e-3), min_size=count, max_size=count)))
    points = obj.bounds_lo + fractions * (obj.bounds_hi - obj.bounds_lo)
    return obj, project_to_surface(obj, points, offsets)


@settings(max_examples=200, deadline=None)
@given(near_surface_points())
def test_gradient_matches_per_axis_reference_bit_for_bit(case):
    obj, points = case
    assert np.array_equal(obj.shape.gradient(points), per_axis_gradient(obj.shape, points))

