"""Unit-quaternion algebra on plain (4,) arrays in (w, x, y, z) order.

Quaternions are kept in canonical form everywhere: unit norm and w >= 0,
with the q / -q double cover resolved by a sign flip (if w == 0, the first
nonzero component is made positive). Canonical form matters because the
samplers measure Euclidean distances between quaternion blocks.
`canonicalize` is idempotent bit for bit: a quaternion already unit to
within UNIT_SLACK keeps its components, up to the sign flip, and every
quaternion it returns is that close to unit. So a canonical state is
evaluated exactly as recorded.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ZeroQuaternion

MIN_NORM = 1e-12  # a quaternion of this norm or less has no direction to normalize
# |q.q - 1| up to which q counts as unit. The q.q of a normalized 4-vector
# is within 6 eps of 1: 2 from the first dot, 1 each from the square root
# and the division, 2 from the second dot.
UNIT_SLACK = 8 * sys.float_info.epsilon


def canonicalize(q: np.ndarray) -> np.ndarray:
    """Normalize a 4-vector and resolve the double-cover sign, in a new array.

    A 4-vector already unit to within UNIT_SLACK keeps its components, up
    to the sign flip, so canonicalize(canonicalize(q)) is canonicalize(q).
    One whose q.q overflows is first divided by its largest |component|.
    Raises ZeroQuaternion if the norm is at or below MIN_NORM.
    """
    # a new contiguous array: np.linalg.norm(q) is sqrt(q.dot(q)) on one,
    # and a strided dot may sum in another order
    q = np.array(q, dtype=float)
    squared = float(q.dot(q))
    if not math.isfinite(squared):  # q.q overflows past components of about 1e154
        q /= np.max(np.abs(q))
        squared = float(q.dot(q))
    if not abs(squared - 1.0) <= UNIT_SLACK:
        norm = math.sqrt(squared)
        if norm <= MIN_NORM:
            raise ZeroQuaternion(f"quaternion norm {norm:g} too small")
        q /= norm
    for component in q:  # the first nonzero one: w, unless w == 0
        if component != 0.0:
            if component < 0.0:
                q = -q
            break
    return q


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b (no normalization)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def from_rotation_matrix(m: np.ndarray) -> np.ndarray:
    """Canonical unit quaternion of a rotation matrix (Shepperd's method)."""
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    return canonicalize(q)


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return canonicalize(np.concatenate(([np.cos(half)], np.sin(half) * axis)))


def rotate_vector(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return rotation_matrix(q) @ np.asarray(v, dtype=float)


def random_uniform(rng: np.random.Generator) -> np.ndarray:
    """Canonical quaternion drawn uniformly on S^3 (normalized 4D Gaussian)."""
    while True:
        raw = rng.standard_normal(4)
        if np.linalg.norm(raw) > MIN_NORM:
            return canonicalize(raw)
