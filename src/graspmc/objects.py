"""Desk-scale object models and the nine-object catalog.

Three base objects (pitcher, pan, plate) plus two size/proportion variants
each. All dimensions in meters, canonical pose: base resting on z = 0,
axis of symmetry along z. The catalog serializes to a versioned JSON
document (see catalog_to_document) so objects can be added without code
changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from . import sdf

CATALOG_SCHEMA = "graspmc.objects/1"


@dataclass(frozen=True)
class ObjectModel:
    name: str
    shape: sdf.Sdf
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray

    def distance(self, points: np.ndarray) -> np.ndarray:
        return self.shape.distance(points)

    def normal(self, points: np.ndarray, h: float = 1e-5) -> np.ndarray:
        return self.shape.normal(points, h)

    def bounds_center(self) -> np.ndarray:
        return 0.5 * (self.bounds_lo + self.bounds_hi)

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> "ObjectModel":
        """The same object expressed in a rigidly moved canonical frame."""
        rotation = quat.canonicalize(rotation)
        translation = np.asarray(translation, dtype=float)
        moved = sdf.Translate(sdf.Rotate(self.shape, rotation), translation)
        corners = np.array(
            [
                [x, y, z]
                for x in (self.bounds_lo[0], self.bounds_hi[0])
                for y in (self.bounds_lo[1], self.bounds_hi[1])
                for z in (self.bounds_lo[2], self.bounds_hi[2])
            ]
        )
        moved_corners = corners @ quat.rotation_matrix(rotation).T + translation
        return ObjectModel(
            self.name,
            moved,
            moved_corners.min(axis=0),
            moved_corners.max(axis=0),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bounds": {"lo": self.bounds_lo.tolist(), "hi": self.bounds_hi.tolist()},
            "sdf": self.shape.to_dict(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "ObjectModel":
        return ObjectModel(
            doc["name"],
            sdf.from_dict(doc["sdf"]),
            np.asarray(doc["bounds"]["lo"], dtype=float),
            np.asarray(doc["bounds"]["hi"], dtype=float),
        )


def _plate_like(name, base_r, base_top, rim_outer, rim_inner, rim_lo, rim_hi):
    base = sdf.Cylinder(base_r, 0.5 * base_top).translate([0, 0, 0.5 * base_top])
    rim_mid = 0.5 * (rim_lo + rim_hi)
    ring = sdf.Cylinder(rim_outer, 0.5 * (rim_hi - rim_lo)).translate([0, 0, rim_mid]).subtract(
        sdf.Cylinder(rim_inner, rim_hi - rim_lo).translate([0, 0, rim_mid])
    )
    shape = base.union(ring)
    top = max(base_top, rim_hi)
    return ObjectModel(
        name,
        shape,
        np.array([-rim_outer, -rim_outer, 0.0]),
        np.array([rim_outer, rim_outer, top]),
    )


def _pan_like(name, outer_r, wall, height, bottom, handle_half_len, handle_half_w, handle_half_t):
    body = sdf.Cylinder(outer_r, 0.5 * height).translate([0, 0, 0.5 * height]).subtract(
        sdf.Cylinder(outer_r - wall, 0.5 * height).translate([0, 0, bottom + 0.5 * height])
    )
    handle_z = height - handle_half_t
    handle_cx = outer_r + handle_half_len - 0.005  # overlap the wall so the union is connected
    handle = sdf.Box([handle_half_len, handle_half_w, handle_half_t]).translate(
        [handle_cx, 0, handle_z]
    )
    shape = body.union(handle)
    return ObjectModel(
        name,
        shape,
        np.array([-outer_r, -outer_r, 0.0]),
        np.array([handle_cx + handle_half_len, outer_r, height]),
    )


# maps the capped torus from its canonical xy-plane (opening about +y) into a
# vertical plane: bulge along +x, torus normal along y
_HANDLE_FRAME = quat.from_axis_angle([1.0, 1.0, 1.0], -2.0 * np.pi / 3.0)


def _pitcher_like(name, outer_r, wall, height, handle_major, handle_tube, handle_z):
    body = sdf.Cylinder(outer_r, 0.5 * height).translate([0, 0, 0.5 * height]).subtract(
        sdf.Cylinder(outer_r - wall, 0.5 * height).translate([0, 0, wall + 0.5 * height])
    )
    arc = sdf.CappedTorus(handle_major, handle_tube, 2.2)
    gap_offset = -handle_major * np.cos(2.2)  # arc ends sit this far behind the center
    handle = arc.rotate(_HANDLE_FRAME).translate([outer_r + gap_offset - 0.002, 0, handle_z])
    shape = body.union(handle)
    reach = outer_r + gap_offset - 0.002 + handle_major + handle_tube
    return ObjectModel(
        name,
        shape,
        np.array([-outer_r, -outer_r, 0.0]),
        np.array([reach, outer_r, height]),
    )


# the function that builds each catalog object, and its dimensions, in catalog order
_CATALOG = {
    "pitcher": (_pitcher_like, (0.045, 0.008, 0.14, 0.035, 0.009, 0.080)),
    "tall_pitcher": (_pitcher_like, (0.040, 0.008, 0.21, 0.035, 0.009, 0.130)),
    "stout_pitcher": (_pitcher_like, (0.058, 0.009, 0.10, 0.030, 0.009, 0.055)),
    "pan": (_pan_like, (0.085, 0.012, 0.050, 0.012, 0.050, 0.011, 0.006)),
    "small_pan": (_pan_like, (0.070, 0.011, 0.042, 0.011, 0.042, 0.010, 0.005)),
    "deep_pan": (_pan_like, (0.085, 0.012, 0.075, 0.012, 0.050, 0.011, 0.006)),
    "plate": (_plate_like, (0.050, 0.020, 0.100, 0.050, 0.010, 0.030)),
    "soup_plate": (_plate_like, (0.045, 0.018, 0.095, 0.045, 0.017, 0.037)),
    "saucer": (_plate_like, (0.030, 0.012, 0.070, 0.030, 0.008, 0.022)),
}
OBJECT_NAMES = tuple(_CATALOG)


def object_catalog() -> list[ObjectModel]:
    """Nine parametric objects: three learnable bases plus six variants."""
    return [get_object(name) for name in OBJECT_NAMES]


def get_object(name: str) -> ObjectModel:
    if name not in _CATALOG:
        raise KeyError(f"unknown object {name!r}")
    build, dimensions = _CATALOG[name]
    return build(name, *dimensions)


def catalog_to_document(objects: list[ObjectModel] | None = None) -> str:
    objects = object_catalog() if objects is None else objects
    doc = {"schema": CATALOG_SCHEMA, "objects": [o.to_dict() for o in objects]}
    return json.dumps(doc, indent=2)


def catalog_from_document(text: str) -> list[ObjectModel]:
    doc = json.loads(text)
    if doc.get("schema") != CATALOG_SCHEMA:
        raise ValueError(f"unsupported catalog schema {doc.get('schema')!r}")
    return [ObjectModel.from_dict(entry) for entry in doc["objects"]]
