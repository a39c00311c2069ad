import functools
import json
import operator

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from graspmc import quaternions as quat
from graspmc import sdf
from graspmc.errors import InvalidDocument
from graspmc.objects import (
    CATALOG_SCHEMA,
    catalog_from_document,
    catalog_to_document,
    get_object,
    object_catalog,
)


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


def test_catalog_document_round_trip():
    text = catalog_to_document()
    loaded = catalog_from_document(text)
    assert [o.name for o in loaded] == [o.name for o in object_catalog()]
    rng = np.random.default_rng(3)
    for original, clone in zip(object_catalog(), loaded):
        pts = rng.uniform(original.bounds_lo, original.bounds_hi, size=(100, 3))
        np.testing.assert_array_equal(original.distance(pts), clone.distance(pts))
        np.testing.assert_array_equal(original.bounds_lo, clone.bounds_lo)


def test_catalog_document_rejects_bad_schema():
    with pytest.raises(ValueError):
        catalog_from_document('{"schema": "other/9", "objects": []}')


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


# --------------------------------------------------------------------------
# malformed catalog entries: checked when the nodes are built

PLATE = json.loads(catalog_to_document([get_object("plate")]))["objects"][0]
SPHERE = {"type": "sphere", "radius": 0.05}


def read_entry(entry: dict):
    return catalog_from_document(json.dumps({"schema": CATALOG_SCHEMA, "objects": [entry]}))


@pytest.mark.parametrize(
    "node",
    [
        {"type": "box", "half_extents": []},
        {"type": "box", "half_extents": [0.1, 0.0, 0.1]},
        {"type": "sphere", "radius": -1},
        {"type": "sphere", "radius": float("inf")},
        {"type": "cylinder", "radius": 0.05, "half_height": float("nan")},
        {"type": "capped_torus", "major_radius": 0.03, "tube_radius": 0.01, "half_angle": 0.0},
        {"type": "capped_torus", "major_radius": 0.03, "tube_radius": 0.01, "half_angle": 3.2},
        {"type": "capped_torus", "major_radius": -0.03, "tube_radius": 0.01, "half_angle": 2.0},
        {"type": "translate", "offset": [0.0, 0.0], "child": SPHERE},
        {"type": "translate", "offset": [0.0, float("nan"), 0.0], "child": SPHERE},
        {"type": "rotate", "quaternion": [1.0, 0.0, 0.0], "child": SPHERE},
    ],
)
def test_catalog_rejects_malformed_node(node):
    with pytest.raises(InvalidDocument) as caught:
        read_entry(dict(PLATE, sdf=node))
    assert type(caught.value.__cause__) is ValueError


@pytest.mark.parametrize(
    "bounds",
    [
        {"lo": [0.0, 0.0, 0.0], "hi": [0.1, 0.1, -0.1]},
        {"lo": [0.0, 0.0], "hi": [0.1, 0.1]},
        {"lo": [float("nan"), 0.0, 0.0], "hi": [0.1, 0.1, 0.1]},
        {"lo": [0.0, 0.0, 0.0], "hi": [float("inf"), 0.1, 0.1]},
    ],
)
def test_catalog_rejects_malformed_bounds(bounds):
    with pytest.raises(InvalidDocument) as caught:
        read_entry(dict(PLATE, bounds=bounds))
    assert type(caught.value.__cause__) is ValueError


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


def json_paths(value, path=()):
    """The path of every entry below a JSON value, depth first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


ENTRIES = json.loads(catalog_to_document())["objects"]
OTHER_TYPES = [None, "text", True, 1.5, [], {}]


@st.composite
def mutated_entries(draw):
    """A built-in object's catalog entry with one field dropped, given
    another type, made negative, NaN or infinite, or (a list) resized."""
    entry = json.loads(json.dumps(draw(st.sampled_from(ENTRIES))))
    *head, key = draw(st.sampled_from(list(json_paths(entry))))
    parent = functools.reduce(operator.getitem, head, entry)
    value = parent[key]
    kinds = ["type"] + (["drop"] if isinstance(parent, dict) else [])
    if type(value) in (int, float):
        kinds += ["negative", "nan", "inf"]
    if isinstance(value, list):
        kinds += ["length"]
    kind = draw(st.sampled_from(kinds))
    event(kind)
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif kind == "negative":
        parent[key] = -(abs(value) or 1.0)
    elif kind == "nan":
        parent[key] = float("nan")
    elif kind == "inf":
        parent[key] = draw(st.sampled_from([np.inf, -np.inf]))
    else:
        parent[key] = value[:-1] if draw(st.booleans()) else value + value[-1:]
    return entry


@settings(max_examples=300, deadline=None)
@given(mutated_entries())
def test_mutated_catalog_entry_loads_finite_or_raises_invalid_document(entry):
    try:
        (obj,) = read_entry(entry)
    except InvalidDocument:
        return
    points = np.random.default_rng(0).uniform(obj.bounds_lo, obj.bounds_hi, size=(16, 3))
    assert np.all(np.isfinite(obj.distance(points)))
