"""Parallel-jaw gripper model and its gripper-frame geometry.

Gripper frame convention (fixed): the origin is the tool center point,
centered between the jaws at half finger depth. Jaws close along +/-x
(closing axis), fingers extend toward +z (approach axis), so the palm sits
behind the fingers at negative z. At full opening the finger inner faces
lie at x = +/- jaw_span / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CLOSING_AXIS = np.array([1.0, 0.0, 0.0])
APPROACH_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class GripperModel:
    jaw_span: float  # max opening between finger inner faces, m
    finger_length: float
    finger_width: float  # finger cross-section side, m
    palm_depth: float

    def __post_init__(self) -> None:
        for name in ("jaw_span", "finger_length", "finger_width", "palm_depth"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, not {value!r}")

    def body_boxes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(center, half_extents) of palm and both fingers, gripper frame."""
        half_len = 0.5 * self.finger_length
        half_w = 0.5 * self.finger_width
        finger_x = 0.5 * self.jaw_span + half_w
        palm_half_x = 0.5 * self.jaw_span + self.finger_width
        return [
            (np.array([0.0, 0.0, -half_len - 0.5 * self.palm_depth]),
             np.array([palm_half_x, half_w, 0.5 * self.palm_depth])),
            (np.array([finger_x, 0.0, 0.0]), np.array([half_w, half_w, half_len])),
            (np.array([-finger_x, 0.0, 0.0]), np.array([half_w, half_w, half_len])),
        ]


@lru_cache(maxsize=8)
def _probe_lattice(gripper: GripperModel, pitch: float) -> np.ndarray:
    points = []
    for center, half in gripper.body_boxes():
        axes = []
        for axis in range(3):
            count = max(2, int(np.ceil(2.0 * half[axis] / pitch)) + 1)
            axes.append(np.linspace(center[axis] - half[axis], center[axis] + half[axis], count))
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        points.append(grid)
    lattice = np.concatenate(points, axis=0)
    lattice.flags.writeable = False  # the cache hands this one array to every caller
    return lattice


def probe_points(gripper: GripperModel, pitch: float = 0.005) -> np.ndarray:
    """Deterministic collision-probe lattice over the gripper body."""
    return _probe_lattice(gripper, pitch)


def default_gripper() -> GripperModel:
    return GripperModel(jaw_span=0.06, finger_length=0.04, finger_width=0.012, palm_depth=0.025)
