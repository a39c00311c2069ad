"""Grasp states, outcome classification, target density, demonstrations.

A grasp is the 7-vector (x, y, z, qw, qx, qy, qz): tool-center-point
position in the object's canonical frame plus the gripper orientation as a
canonical unit quaternion. Evaluation runs a deterministic cascade:
workspace cull, reach test, body-collision probe, jaw contact march, then an
antipodality x friction-margin quality proxy standing in for a full
wrench-space score. The proxy keeps what the samplers need: nonnegative,
zero on failure, smooth near good grasps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quaternions as quat
from .errors import DemonstrationFailure
from .gripper import APPROACH_AXIS, CLOSING_AXIS, GripperModel, probe_points
from .objects import ObjectModel
from .targets import TargetFn, TargetValue
from .vmf import VonMisesFisher, draw_vmf, orient_vmf

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


GRASP_DIM = 7  # position, then quaternion


@dataclass(frozen=True)
class Grasp:
    position: np.ndarray
    orientation: np.ndarray  # canonical unit quaternion (w, x, y, z)

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=float)
        if position.shape != (3,) or not np.all(np.isfinite(position)):
            raise ValueError("position must be a finite 3-vector")
        orientation = np.asarray(self.orientation, dtype=float)
        if orientation.shape != (4,) or not np.all(np.isfinite(orientation)):
            raise ValueError("orientation must be a finite 4-vector")
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "orientation", quat.canonicalize(orientation))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.orientation])

    @staticmethod
    def from_vector(v: np.ndarray) -> "Grasp":
        v = np.asarray(v, dtype=float)
        if v.shape != (GRASP_DIM,):
            raise ValueError(f"grasp vector must have {GRASP_DIM} components, got shape {v.shape}")
        return Grasp(v[:3], v[3:])

    def closing_axis_world(self) -> np.ndarray:
        return quat.rotate_vector(self.orientation, CLOSING_AXIS)

    def approach_axis_world(self) -> np.ndarray:
        return quat.rotate_vector(self.orientation, APPROACH_AXIS)


def canonicalize_grasp_vector(v: np.ndarray) -> np.ndarray:
    """Renormalize and canonicalize the quaternion block of a 7-vector."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([v[:3], quat.canonicalize(v[3:7])])


FRICTION_COEFFICIENT = 0.5  # Coulomb friction at both jaw contacts
QUALITY_THRESHOLD = 0.05  # a quality at or below this Slipped
COLLISION_TOLERANCE = 1e-4  # penetration depth that counts as collision, m
CONTACT_TOLERANCE = 1e-5  # jaw-march bisection tolerance, m


@dataclass(frozen=True)
class EvaluationConfig:
    workspace_margin_factor: float = 2.0


DEFAULT_EVALUATION = EvaluationConfig()


def workspace_bounds(
    obj: ObjectModel, gripper: GripperModel, config: EvaluationConfig = DEFAULT_EVALUATION
) -> tuple[np.ndarray, np.ndarray]:
    """Object bounds inflated enough that nothing outside is reachable."""
    margin = config.workspace_margin_factor * (gripper.jaw_span + gripper.finger_length)
    return obj.bounds_lo - margin, obj.bounds_hi + margin


BISECTION_LEVELS = 8  # most bisection steps of one line resolved per distance call


@lru_cache(maxsize=1024)
def _midpoints(lo: float, hi: float, tol: float) -> np.ndarray:
    """Every midpoint the bisection of [lo, hi] to width tol can visit in its
    next BISECTION_LEVELS steps, level by level: node j of level l is entry
    2**l - 1 + j, and its children are nodes 2j and 2j + 1 of level l + 1.
    The levels stop early at the first one whose brackets are all no wider
    than tol. A march bracket recurs on every line that crosses there, so
    its midpoints are built once.
    """
    # every bracket end and midpoint in order along the line: the brackets
    # of level l are consecutive runs of 2**(BISECTION_LEVELS - l)
    cuts = np.empty(2**BISECTION_LEVELS + 1)
    cuts[0], cuts[-1] = lo, hi
    mids = []
    while len(mids) < BISECTION_LEVELS:
        run = 2 ** (BISECTION_LEVELS - len(mids))
        lower, upper = cuts[:-1:run], cuts[run::run]
        if not (upper - lower > tol).any():
            break
        mids.append(0.5 * (lower + upper))
        cuts[run // 2::run] = mids[-1]
    ts = np.concatenate(mids)
    ts.flags.writeable = False  # the cache hands this one array to every caller
    return ts


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
    bisections could visit (`_midpoints`), and the steps are then replayed
    on the midpoints' signs, in Python floats.
    """
    lo, hi = lo.tolist(), hi.tolist()
    while lines := [i for i in range(len(lo)) if hi[i] - lo[i] > tol]:
        mids = [_midpoints(lo[i], hi[i], tol) for i in lines]
        sizes = [len(m) for m in mids]
        ts = np.concatenate(mids)
        points = np.repeat(starts[lines], sizes, axis=0) + ts[:, None] * np.repeat(
            directions[lines], sizes, axis=0
        )
        inside = (obj.distance(points) <= 0.0).tolist()
        ts = ts.tolist()
        first = 0
        for line, size in zip(lines, sizes):
            node = 0
            for level in range(size.bit_length()):  # size is 2**levels - 1
                if not hi[line] - lo[line] > tol:
                    break
                index = first + 2**level - 1 + node
                if inside[index]:
                    hi[line] = ts[index]
                    node = 2 * node
                else:
                    lo[line] = ts[index]
                    node = 2 * node + 1
            first += size
    return starts + (0.5 * (np.array(lo) + np.array(hi)))[:, None] * directions


MARCH_STEPS = 128  # a jaw line is sampled at MARCH_STEPS + 1 evenly spaced points


@lru_cache(maxsize=8)
def _march_ts(span: float) -> np.ndarray:
    ts = np.linspace(0.0, span, MARCH_STEPS + 1)
    ts.flags.writeable = False  # the cache hands this one array to every caller
    return ts


def _jaw_contacts(
    obj: ObjectModel, starts: np.ndarray, directions: np.ndarray, span: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """First surface crossings on pairs of lines: line j of pair k runs from
    starts[k, j] along directions[k, j]. Returns the indices of the pairs
    whose two lines both cross within span, and those pairs' crossings.

    One distance call samples every line at MARCH_STEPS + 1 points; a line
    whose first sample is inside contacts there, the others of the pairs
    that cross bisect their first crossing's bracket to width tol.
    """
    ts = _march_ts(span)
    points = starts[..., None, :] + ts[:, None] * directions[..., None, :]
    inside = obj.distance(points.reshape(-1, 3)).reshape(points.shape[:-1]) <= 0.0
    pairs = np.flatnonzero(np.all(np.any(inside, axis=2), axis=1))
    first = np.argmax(inside[pairs], axis=2).ravel()
    points = points[pairs].reshape(-1, len(ts), 3)
    contacts = points[np.arange(len(points)), first]
    lines = np.flatnonzero(first > 0)
    if lines.size:
        starts, directions = starts[pairs].reshape(-1, 3), directions[pairs].reshape(-1, 3)
        contacts[lines] = _bisect(
            obj, starts[lines], directions[lines], ts[first[lines] - 1], ts[first[lines]], tol
        )
    return pairs, contacts.reshape(-1, 2, 3)


REACH_SLACK = 1e-9  # rounding allowance of the reach test, m


@lru_cache(maxsize=8)
def _reach(gripper: GripperModel) -> float:
    """Farthest a probe point or a jaw-march sample lies from the tool centre point."""
    radius = float(np.max(np.linalg.norm(probe_points(gripper), axis=1)))
    return max(radius, 0.5 * gripper.jaw_span)


_MISS = GraspOutcome(MISS, 0.0)
_COLLISION = GraspOutcome(COLLISION, 0.0)
COARSE_STRIDE = 20  # a collision screen of several poses first probes every 20th lattice point


def evaluate_grasp(grasp: Grasp, obj: ObjectModel, gripper: GripperModel) -> GraspOutcome:
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

    Stages 2 and 3 only look at points within `_reach(gripper)` of the tool
    centre point, and stage 3 only within half the jaw span. The object's
    bounds box contains it, so a point more than REACH_SLACK outside the
    box has a positive distance: it neither collides nor makes a contact.
    Hence a pose whose clearance from the box, less REACH_SLACK, exceeds
    the reach is a Miss with no SDF call, and one whose clearance exceeds
    half the jaw span is a Miss without the march unless it collides. Both
    verdicts are the full cascade's. The cascade is `_outcomes` for one
    orientation.
    """
    return _outcomes(grasp.position, [grasp.orientation], obj, gripper)[0]


def _outcomes(
    position: np.ndarray, orientations: list[np.ndarray], obj: ObjectModel, gripper: GripperModel
) -> list[GraspOutcome]:
    """evaluate_grasp's outcome for each pose at `position` with one of the
    K unit quaternions `orientations`, stage by stage for all K at once.

    The workspace cull and the reach test decide all K before any rotation
    is built. The collision stage makes one distance call over every probe
    when K = 1. For K > 1 it first probes every COARSE_STRIDE-th point of
    every pose, then the other points of the poses not yet found
    penetrating; each form is the faster one on its own side (measured in
    README, "SDF call budget per evaluation"). The half-span test follows,
    then `_grips` on the poses that do not collide. A point's distance does
    not depend on the batch it is evaluated in, the batched product builds
    each pose's probes bit for bit, and a pose whose coarse probes are all
    at or above -COLLISION_TOLERANCE collides exactly when one of its other
    probes is below, so each outcome is the one the pose gets alone.
    """
    lo, hi = workspace_bounds(obj, gripper)
    if (position < lo).any() or (position > hi).any():
        return [_MISS] * len(orientations)
    gap = np.maximum(np.maximum(obj.bounds_lo - position, position - obj.bounds_hi), 0.0)
    clearance = math.sqrt(float(gap.dot(gap))) - REACH_SLACK
    if clearance > _reach(gripper):
        return [_MISS] * len(orientations)

    rotations = np.array([quat.rotation_matrix(q) for q in orientations])
    probes = probe_points(gripper) @ rotations.transpose(0, 2, 1) + position
    stride = COARSE_STRIDE if len(rotations) > 1 else 1
    hit = obj.distance(probes[:, ::stride]).min(axis=1) < -COLLISION_TOLERANCE
    if stride > 1 and not hit.all():
        undecided = np.flatnonzero(~hit)
        rest = np.ones(probes.shape[1], dtype=bool)
        rest[::stride] = False
        fine = obj.distance(probes[np.ix_(undecided, rest)]).min(axis=1)
        hit[undecided] = fine < -COLLISION_TOLERANCE
    hits = hit.tolist()
    outcomes = [_COLLISION if h else _MISS for h in hits]
    clear = [k for k, h in enumerate(hits) if not h]
    if clearance > 0.5 * gripper.jaw_span or not clear:
        return outcomes
    for k, outcome in zip(clear, _grips(position, rotations[clear], obj, gripper)):
        outcomes[k] = outcome
    return outcomes


def _grips(
    position: np.ndarray, rotations: np.ndarray, obj: ObjectModel, gripper: GripperModel
) -> list[GraspOutcome]:
    """Stages 3-5 of the cascade for the poses at `position` in the
    (K, 3, 3) `rotations`, whose bodies do not collide: one march call, at
    most one bisection call and one normal call for all K. A point's
    distance does not depend on the batch it is evaluated in, so each
    outcome is the one the pose gets alone."""
    closings = rotations @ CLOSING_AXIS
    half_span = 0.5 * gripper.jaw_span
    sides = np.array([[1.0], [-1.0]])
    pairs, contacts = _jaw_contacts(
        obj,
        position + sides * half_span * closings[:, None, :],
        -sides * closings[:, None, :],
        gripper.jaw_span,
        CONTACT_TOLERANCE,
    )
    outcomes = [_MISS] * len(rotations)
    if not pairs.size:
        return outcomes
    normals = obj.normal(contacts.reshape(-1, 3)).reshape(-1, 2, 3)
    cos_friction = 1.0 / np.sqrt(1.0 + FRICTION_COEFFICIENT**2)
    for k, (n1, n2) in zip(pairs.tolist(), normals):
        closing = closings[k]
        antipodality = max(0.0, -float(n1 @ n2))
        margins = [
            max(0.0, abs(float(n @ closing)) - cos_friction) / (1.0 - cos_friction)
            for n in (n1, n2)
        ]
        quality = antipodality * min(margins)
        outcomes[k] = (
            GraspOutcome(SLIPPED, 0.0) if quality <= QUALITY_THRESHOLD
            else GraspOutcome(SUCCESS, float(quality))
        )
    return outcomes


TARGET_MEMO_SIZE = 256  # most recent states whose values a target remembers


def make_target(obj: ObjectModel, gripper: GripperModel) -> TargetFn:
    """Unnormalized grasp density: the quality proxy, zero on any failure.

    The target remembers the values of the last TARGET_MEMO_SIZE finite
    states it evaluated, keyed by their shape and bytes, and gives a
    repeated state its stored value without evaluating it again. A chain's
    darting jumps propose the same mode states over and over.
    evaluate_grasp is deterministic, so the stored value is the value.
    """

    @lru_cache(maxsize=TARGET_MEMO_SIZE)
    def evaluate(shape: tuple[int, ...], data: bytes) -> TargetValue:
        state = np.frombuffer(data).reshape(shape)
        outcome = evaluate_grasp(Grasp.from_vector(state), obj, gripper)
        return TargetValue(outcome.quality, outcome.kind)

    def density(state: np.ndarray) -> TargetValue:
        state = np.asarray(state, dtype=float)
        if not np.all(np.isfinite(state)):
            return TargetValue(0.0, MISS)
        return evaluate(state.shape, state.tobytes())

    return density


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit: the same products and differences."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _orthonormal_to(n: np.ndarray) -> np.ndarray:
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t = _cross(n, helper)
    return t / math.sqrt(float(t.dot(t)))


def _frame_orientation(closing: np.ndarray, approach: np.ndarray) -> np.ndarray:
    y = _cross(approach, closing)
    y /= math.sqrt(float(y.dot(y)))
    approach = _cross(closing, y)
    return quat.from_rotation_matrix(np.column_stack([closing, y, approach]))


def _heuristic_orientation(
    point: np.ndarray, normal: np.ndarray, obj: ObjectModel, roll: float
) -> np.ndarray:
    """Closing axis along the surface normal, approach rolled by `roll` about it."""
    closing = normal / math.sqrt(float(normal.dot(normal)))
    inward = obj.bounds_center() - point
    inward -= closing * float(inward @ closing)
    norm = math.sqrt(float(inward.dot(inward)))
    approach = inward / norm if norm > 1e-9 else _orthonormal_to(closing)
    tangent = _cross(closing, approach)
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


SURFACE_SHELL = 1e-3  # surface points are drawn from |d| < SURFACE_SHELL
SURFACE_BATCH = 512  # uniform draws per rejection round


def sample_surface_point(obj: ObjectModel, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample a point on the SDF shell |d| < SURFACE_SHELL inside the bounds."""
    while True:
        points = rng.uniform(obj.bounds_lo, obj.bounds_hi, size=(SURFACE_BATCH, 3))
        d = np.abs(obj.distance(points))
        hits = np.nonzero(d < SURFACE_SHELL)[0]
        if hits.size:
            return points[int(hits[0])]


DEMONSTRATION_ATTEMPTS = 10_000  # surface points a search tries before it gives up
TRIALS_PER_POINT = 200  # orientation trials at one surface point
RESTART_EVERY = 25  # trials from one heuristic-frame restart to the next
PERTURBATION_KAPPA = 150.0  # vMF concentration of a perturbation of the incumbent


def _climb(
    obj: ObjectModel,
    gripper: GripperModel,
    position: np.ndarray,
    restarts: list[np.ndarray],
    qualities: list[float],
    draws: list,
) -> tuple[np.ndarray, float]:
    """Keep-best orientation search at one position: (best orientation,
    best quality) over one trial per entry of `draws`.

    Trial t is the restart frame `restarts[t // RESTART_EVERY]`, of known
    quality, when t is a multiple of RESTART_EVERY, and otherwise the vMF
    perturbation of the incumbent that the draw `draws[t]` orients. The
    result is that of evaluating the trials one by one with evaluate_grasp:
    the perturbations up to the next restart are built from the current
    incumbent and evaluated together (`_outcomes`). They are then walked in
    order, and the batch is rebuilt after the first one that improves.
    """
    best_q, best_quality = restarts[0], qualities[0]
    for start, restart, quality in zip(range(0, len(draws), RESTART_EVERY), restarts, qualities):
        if quality > best_quality:
            best_q, best_quality = restart, quality
        trial, end = start + 1, min(len(draws), start + RESTART_EVERY)
        while trial < end:
            mean = VonMisesFisher(best_q, PERTURBATION_KAPPA)
            candidates = [quat.canonicalize(orient_vmf(mean, draws[t])) for t in range(trial, end)]
            outcomes = _outcomes(position, candidates, obj, gripper)
            for candidate, outcome in zip(candidates, outcomes):
                trial += 1
                if outcome.quality > best_quality:
                    best_q, best_quality = candidate, outcome.quality
                    break
    return best_q, best_quality


def demonstrate_grasps(
    obj: ObjectModel, gripper: GripperModel, count: int, rng: np.random.Generator
) -> list[tuple[Grasp, float]]:
    """Surface-point sampling plus keep-best orientation search.

    Each attempt picks a surface point and offsets the tool center point
    along the outward normal: half the local material thickness inward
    when the feature fits between the jaws (centering it), a millimeter
    outward otherwise. The orientation then hill-climbs over
    TRIALS_PER_POINT trials: restarts from the normal-aligned heuristic
    frame (random roll) every RESTART_EVERY trials, vMF perturbations of
    concentration PERTURBATION_KAPPA around the incumbent in between.
    Attempts whose best outcome is not a Success are discarded. Raises
    DemonstrationFailure when DEMONSTRATION_ATTEMPTS run out first, and
    ValueError on a count below 1 before drawing anything.

    An attempt makes every trial's random draws first, in trial order (a
    restart's roll, a perturbation's `draw_vmf`), since none depends on an
    outcome. The attempt then evaluates its restart frames in one batch
    (`_outcomes`) and is abandoned when all of them collide: such an
    attempt rarely succeeds, and making its draws anyway leaves every later
    attempt the generator stream it would have had. The climb (see
    `_climb`) then evaluates its other trials in batches. Apart from the
    abandoned attempts, the grasps, qualities and generator state are those
    of evaluating each trial in turn with evaluate_grasp.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    found: list[tuple[Grasp, float]] = []
    attempts = 0
    while len(found) < count:
        if attempts >= DEMONSTRATION_ATTEMPTS:
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
        draws = [
            rng.uniform(-np.pi, np.pi) if trial % RESTART_EVERY == 0
            else draw_vmf(PERTURBATION_KAPPA, 4, rng)
            for trial in range(TRIALS_PER_POINT)
        ]
        restarts = [
            _heuristic_orientation(point, normal, obj, draws[t])
            for t in range(0, TRIALS_PER_POINT, RESTART_EVERY)
        ]
        outcomes = _outcomes(position, restarts, obj, gripper)
        if all(outcome.kind == COLLISION for outcome in outcomes):
            continue
        qualities = [outcome.quality for outcome in outcomes]
        best_q, best_quality = _climb(obj, gripper, position, restarts, qualities, draws)
        if best_quality > 0.0:
            found.append((Grasp(position, best_q), best_quality))
    return found
