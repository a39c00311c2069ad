"""Grasp states, outcome classification, target density, demonstrations.

A grasp is the 7-vector (x, y, z, qw, qx, qy, qz): tool-center-point
position in the object's canonical frame plus the gripper orientation as a
canonical unit quaternion. Evaluation runs a deterministic cascade:
workspace cull, body-collision probe, jaw contact march, then an
antipodality x friction-margin quality proxy standing in for a full
wrench-space score. The proxy keeps what the samplers need: nonnegative,
zero on failure, smooth near good grasps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .errors import DemonstrationFailure
from .gripper import APPROACH_AXIS, CLOSING_AXIS, GripperModel, probe_points
from .objects import ObjectModel
from .targets import TargetFn, TargetValue
from .vmf import VonMisesFisher, sample_vmf

SUCCESS = "success"
SLIPPED = "slipped"
COLLISION = "collision"
MISS = "miss"
OUTCOME_KINDS = (SUCCESS, SLIPPED, COLLISION, MISS)


@dataclass(frozen=True)
class GraspOutcome:
    kind: str
    quality: float

    def __post_init__(self) -> None:
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if (self.quality > 0.0) != (self.kind == SUCCESS):
            raise ValueError("positive quality iff success")


@dataclass(frozen=True)
class Grasp:
    position: np.ndarray
    orientation: np.ndarray  # canonical unit quaternion (w, x, y, z)

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=float)
        if position.shape != (3,) or not np.all(np.isfinite(position)):
            raise ValueError("position must be a finite 3-vector")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "orientation", quat.canonicalize(self.orientation))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.orientation])

    @staticmethod
    def from_vector(v: np.ndarray) -> "Grasp":
        v = np.asarray(v, dtype=float)
        if v.shape != (7,):
            raise ValueError(f"grasp vector must have 7 components, got shape {v.shape}")
        return Grasp(v[:3], v[3:])

    def closing_axis_world(self) -> np.ndarray:
        return quat.rotate_vector(self.orientation, CLOSING_AXIS)

    def approach_axis_world(self) -> np.ndarray:
        return quat.rotate_vector(self.orientation, APPROACH_AXIS)


def canonicalize_grasp_vector(v: np.ndarray) -> np.ndarray:
    """Renormalize and canonicalize the quaternion block of a 7-vector."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([v[:3], quat.canonicalize(v[3:7])])


@dataclass(frozen=True)
class EvaluationConfig:
    friction_coefficient: float = 0.5
    quality_threshold: float = 0.05
    collision_tolerance: float = 1e-4  # penetration depth that counts as collision, m
    contact_tolerance: float = 1e-5  # jaw-march bisection tolerance, m
    probe_pitch: float = 0.005
    gradient_step: float = 1e-5
    workspace_margin_factor: float = 2.0


DEFAULT_EVALUATION = EvaluationConfig()


def workspace_bounds(
    obj: ObjectModel, gripper: GripperModel, config: EvaluationConfig = DEFAULT_EVALUATION
) -> tuple[np.ndarray, np.ndarray]:
    """Object bounds inflated enough that nothing outside is reachable."""
    margin = config.workspace_margin_factor * (gripper.jaw_span + gripper.finger_length)
    return obj.bounds_lo - margin, obj.bounds_hi + margin


BISECTION_LEVELS = 8  # most bisection steps of one line resolved per distance call


def _bisect(
    obj: ObjectModel,
    starts: np.ndarray,
    directions: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Bisect each line's bracket [lo, hi] on its surface crossing to width tol.

    Equal to running `while hi - lo > tol: mid = 0.5 * (lo + hi)`, keeping
    the half whose end is inside, on every line, but with one distance call
    per BISECTION_LEVELS steps: the call evaluates every midpoint the
    bisections could visit, built by the same recurrence, and the steps are
    then replayed on the midpoints' signs.
    """
    lo, hi = lo.copy(), hi.copy()
    while np.any(hi - lo > tol):
        lines = np.nonzero(hi - lo > tol)[0]
        level_lo, level_hi = lo[lines, None], hi[lines, None]
        mids = []
        while len(mids) < BISECTION_LEVELS and np.any(level_hi - level_lo > tol):
            mid = 0.5 * (level_lo + level_hi)
            mids.append(mid)
            # children of node j at the next level: 2j = (lo, mid), 2j + 1 = (mid, hi)
            level_lo = np.stack([level_lo, mid], axis=-1).reshape(len(lines), -1)
            level_hi = np.stack([mid, level_hi], axis=-1).reshape(len(lines), -1)
        ts = np.concatenate(mids, axis=1)
        points = starts[lines, None, :] + ts[:, :, None] * directions[lines, None, :]
        inside = obj.distance(points.reshape(-1, 3)).reshape(ts.shape) <= 0.0
        for row, line in enumerate(lines):
            node = 0
            for level in range(len(mids)):
                if not hi[line] - lo[line] > tol:
                    break
                index = 2**level - 1 + node
                if inside[row, index]:
                    hi[line] = ts[row, index]
                    node = 2 * node
                else:
                    lo[line] = ts[row, index]
                    node = 2 * node + 1
    return starts + (0.5 * (lo + hi))[:, None] * directions


def _jaw_contacts(
    obj: ObjectModel, starts: np.ndarray, directions: np.ndarray, span: float, tol: float
) -> np.ndarray | None:
    """First surface crossing on each line from starts[i] along directions[i],
    or None when some line has none within span.

    One distance call samples every line at 129 points; a line whose first
    sample is inside contacts there, the others bisect their first
    crossing's bracket to width tol.
    """
    steps = 128
    ts = np.linspace(0.0, span, steps + 1)
    points = starts[:, None, :] + ts[None, :, None] * directions[:, None, :]
    inside = obj.distance(points.reshape(-1, 3)).reshape(len(starts), -1) <= 0.0
    if not np.all(np.any(inside, axis=1)):
        return None
    first = np.argmax(inside, axis=1)
    contacts = points[np.arange(len(starts)), first]
    lines = np.nonzero(first > 0)[0]
    if lines.size:
        contacts[lines] = _bisect(
            obj, starts[lines], directions[lines], ts[first[lines] - 1], ts[first[lines]], tol
        )
    return contacts


def evaluate_grasp(
    grasp: Grasp,
    obj: ObjectModel,
    gripper: GripperModel,
    config: EvaluationConfig = DEFAULT_EVALUATION,
) -> GraspOutcome:
    """Deterministic outcome cascade: collision, miss, then quality.

    1. positions outside the inflated workspace box are a Miss (unreachable);
    2. any body probe penetrating deeper than the collision tolerance is a
       Collision;
    3. each jaw point marches along the closing axis; no crossing within the
       jaw span is a Miss;
    4. contact normals come from central-difference SDF gradients; quality
       is antipodality times the worse of the two friction-cone margins,
       normalized so a perfect antipodal aligned grasp scores 1;
    5. at or below the quality threshold the grasp Slipped, else Success.
    """
    lo, hi = workspace_bounds(obj, gripper, config)
    if np.any(grasp.position < lo) or np.any(grasp.position > hi):
        return GraspOutcome(MISS, 0.0)

    rotation = quat.rotation_matrix(grasp.orientation)
    probes = probe_points(gripper, config.probe_pitch) @ rotation.T + grasp.position
    if float(np.min(obj.distance(probes))) < -config.collision_tolerance:
        return GraspOutcome(COLLISION, 0.0)

    closing = rotation @ CLOSING_AXIS
    half_span = 0.5 * gripper.jaw_span
    sides = np.array([[1.0], [-1.0]])
    contacts = _jaw_contacts(
        obj,
        grasp.position + sides * half_span * closing,
        -sides * closing,
        gripper.jaw_span,
        config.contact_tolerance,
    )
    if contacts is None:
        return GraspOutcome(MISS, 0.0)

    normals = obj.normal(contacts, h=config.gradient_step)
    n1, n2 = normals[0], normals[1]
    antipodality = max(0.0, -float(n1 @ n2))
    cos_friction = 1.0 / np.sqrt(1.0 + config.friction_coefficient**2)
    margins = [
        max(0.0, abs(float(n @ closing)) - cos_friction) / (1.0 - cos_friction)
        for n in (n1, n2)
    ]
    quality = antipodality * min(margins)
    if quality <= config.quality_threshold:
        return GraspOutcome(SLIPPED, 0.0)
    return GraspOutcome(SUCCESS, float(quality))


def make_target(
    obj: ObjectModel,
    gripper: GripperModel,
    config: EvaluationConfig = DEFAULT_EVALUATION,
) -> TargetFn:
    """Unnormalized grasp density: the quality proxy, zero on any failure."""

    def density(state: np.ndarray) -> TargetValue:
        state = np.asarray(state, dtype=float)
        if not np.all(np.isfinite(state)):
            return TargetValue(0.0, MISS)
        outcome = evaluate_grasp(Grasp.from_vector(state), obj, gripper, config)
        return TargetValue(outcome.quality, outcome.kind)

    return density


def _orthonormal_to(n: np.ndarray) -> np.ndarray:
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t = np.cross(n, helper)
    return t / np.linalg.norm(t)


def _frame_orientation(closing: np.ndarray, approach: np.ndarray) -> np.ndarray:
    y = np.cross(approach, closing)
    y /= np.linalg.norm(y)
    approach = np.cross(closing, y)
    return quat.from_rotation_matrix(np.column_stack([closing, y, approach]))


def _heuristic_orientation(
    point: np.ndarray, normal: np.ndarray, obj: ObjectModel, rng: np.random.Generator
) -> np.ndarray:
    """Closing axis along the surface normal, approach rolled about it."""
    closing = normal / np.linalg.norm(normal)
    inward = obj.bounds_center() - point
    inward -= closing * float(inward @ closing)
    norm = float(np.linalg.norm(inward))
    approach = inward / norm if norm > 1e-9 else _orthonormal_to(closing)
    roll = rng.uniform(-np.pi, np.pi)
    tangent = np.cross(closing, approach)
    approach = np.cos(roll) * approach + np.sin(roll) * tangent
    return _frame_orientation(closing, approach)


def _material_thickness(
    obj: ObjectModel, point: np.ndarray, normal: np.ndarray, max_depth: float
) -> float | None:
    """Depth of material behind a surface point along the inward normal."""
    ts = np.linspace(2e-4, max_depth, 96)
    d = obj.distance(point[None, :] - ts[:, None] * normal[None, :])
    if d[0] > 0.0:
        return None
    exits = np.nonzero(d >= 0.0)[0]
    return float(ts[int(exits[0])]) if exits.size else float(max_depth)


def sample_surface_point(
    obj: ObjectModel, rng: np.random.Generator, shell: float = 1e-3, batch: int = 512
) -> np.ndarray:
    """Rejection-sample a point on the SDF shell |d| < shell inside the bounds."""
    while True:
        points = rng.uniform(obj.bounds_lo, obj.bounds_hi, size=(batch, 3))
        d = np.abs(obj.distance(points))
        hits = np.nonzero(d < shell)[0]
        if hits.size:
            return points[int(hits[0])]


def demonstrate_grasps(
    obj: ObjectModel,
    gripper: GripperModel,
    count: int,
    rng: np.random.Generator,
    config: EvaluationConfig = DEFAULT_EVALUATION,
    *,
    max_attempts: int = 10_000,
    trials_per_point: int = 200,
    restart_every: int = 25,
    perturbation_kappa: float = 150.0,
) -> list[tuple[Grasp, float]]:
    """Surface-point sampling plus keep-best orientation search.

    Each attempt picks a surface point and offsets the tool center point
    along the outward normal: half the local material thickness inward
    when the feature fits between the jaws (centering it), a millimeter
    outward otherwise. The orientation then hill-climbs: restarts from the
    normal-aligned heuristic frame (random roll) every `restart_every`
    trials, vMF perturbations of the incumbent in between. Attempts whose
    best outcome is not a Success are discarded. Raises
    DemonstrationFailure when max_attempts run out first.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    found: list[tuple[Grasp, float]] = []
    attempts = 0
    while len(found) < count:
        if attempts >= max_attempts:
            raise DemonstrationFailure(
                f"{attempts} attempts produced {len(found)}/{count} demonstrations"
            )
        attempts += 1
        point = sample_surface_point(obj, rng)
        normal = obj.normal(point[None, :])[0]
        thickness = _material_thickness(obj, point, normal, gripper.jaw_span)
        if thickness is not None and thickness < gripper.jaw_span:
            position = point - 0.5 * thickness * normal
        else:
            position = point + 1e-3 * normal
        best_q: np.ndarray | None = None
        best_quality = -1.0
        incumbent: np.ndarray | None = None
        for trial in range(trials_per_point):
            if trial % restart_every == 0 or incumbent is None:
                candidate = _heuristic_orientation(point, normal, obj, rng)
            else:
                candidate = quat.canonicalize(
                    sample_vmf(VonMisesFisher(incumbent, perturbation_kappa), rng)
                )
            outcome = evaluate_grasp(Grasp(position, candidate), obj, gripper, config)
            if outcome.quality > best_quality:
                best_quality, best_q = outcome.quality, candidate
                incumbent = candidate
        if best_q is not None and best_quality > 0.0:
            found.append((Grasp(position, best_q), best_quality))
    return found
