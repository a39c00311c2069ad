import contextlib
import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from graspmc import grasping
from graspmc import quaternions as quat
from graspmc import sdf
from graspmc.errors import DemonstrationFailure
from graspmc.grasping import (
    CLOSING_AXIS,
    COLLISION,
    COLLISION_TOLERANCE,
    CONTACT_TOLERANCE,
    DEFAULT_EVALUATION,
    FRICTION_COEFFICIENT,
    MISS,
    OUTCOME_KINDS,
    QUALITY_THRESHOLD,
    REACH_SLACK,
    SLIPPED,
    SUCCESS,
    TARGET_MEMO_SIZE,
    EvaluationConfig,
    Grasp,
    GraspOutcome,
    canonicalize_grasp_vector,
    demonstrate_grasps,
    evaluate_grasp,
    make_target,
    sample_surface_point,
    _cross,
    _grips,
    _heuristic_orientation,
    _jaw_contacts,
    _material_thickness,
    _outcomes,
    _reach,
    workspace_bounds,
)
from graspmc.gripper import GripperModel, default_gripper, probe_points
from graspmc.objects import ObjectModel, get_object, object_catalog
from graspmc.targets import TargetValue
from graspmc.vmf import VonMisesFisher, sample_vmf

GRIPPER = default_gripper()


def rim_pinch_grasp(radius=0.085, height=0.02, azimuth=0.0):
    """Plate-rim pinch: closing axis vertical, approach radially inward."""
    closing = np.array([0.0, 0.0, 1.0])
    approach = -np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    y = np.cross(approach, closing)
    q = quat.from_rotation_matrix(np.column_stack([closing, y, approach]))
    position = np.array([radius * np.cos(azimuth), radius * np.sin(azimuth), height])
    return Grasp(position, q)


def sphere_object(radius=0.05):
    return ObjectModel(
        "ball",
        sdf.Sphere(radius),
        np.array([-radius, -radius, -radius]),
        np.array([radius, radius, radius]),
    )


class TestOutcomeTypes:
    def test_quality_iff_success(self):
        with pytest.raises(ValueError):
            GraspOutcome(SLIPPED, 0.5)
        with pytest.raises(ValueError):
            GraspOutcome(SUCCESS, 0.0)
        GraspOutcome(SUCCESS, 0.3)
        GraspOutcome(MISS, 0.0)

    def test_grasp_canonicalizes(self):
        g = Grasp(np.zeros(3), np.array([-2.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(g.orientation, [1, 0, 0, 0])

    def test_grasp_vector_round_trip(self):
        g = rim_pinch_grasp()
        clone = Grasp.from_vector(g.to_vector())
        assert clone.to_vector().tobytes() == g.to_vector().tobytes()

    def test_rejects_nonfinite_position(self):
        with pytest.raises(ValueError):
            Grasp(np.array([np.nan, 0, 0]), np.array([1.0, 0, 0, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_orientation(self, bad):
        with pytest.raises(ValueError, match="orientation"):
            Grasp(np.zeros(3), np.array([bad, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="orientation"):
            Grasp.from_vector(np.array([0.0, 0.0, 0.0, 1.0, 0.0, bad, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.01])
@pytest.mark.parametrize("name", ["jaw_span", "finger_length", "finger_width", "palm_depth"])
def test_gripper_refuses_a_nonpositive_or_nonfinite_dimension(name, bad):
    dimensions = dataclasses.asdict(GRIPPER) | {name: bad}
    with pytest.raises(ValueError, match=name):
        GripperModel(**dimensions)


class TestEvaluateGrasp:
    def test_plate_rim_pinch_is_high_quality(self):
        out = evaluate_grasp(rim_pinch_grasp(), get_object("plate"), GRIPPER)
        assert out.kind == SUCCESS
        assert out.quality >= 0.9

    def test_palm_deep_inside_collides(self):
        ball = sphere_object(0.05)
        assert ball.distance(np.zeros((1, 3)))[0] < -GRIPPER.finger_length + 0.02
        out = evaluate_grasp(Grasp(np.zeros(3), np.array([1.0, 0, 0, 0])), ball, GRIPPER)
        assert out.kind == COLLISION

    def test_far_position_misses(self):
        plate = get_object("plate")
        far = plate.bounds_hi + GRIPPER.jaw_span + GRIPPER.finger_length + 0.02
        out = evaluate_grasp(Grasp(far, np.array([1.0, 0, 0, 0])), plate, GRIPPER)
        assert out.kind == MISS

    def test_outside_workspace_is_miss(self):
        plate = get_object("plate")
        lo, hi = workspace_bounds(plate, GRIPPER)
        out = evaluate_grasp(Grasp(hi + 0.01, np.array([1.0, 0, 0, 0])), plate, GRIPPER)
        assert out.kind == MISS

    def test_deterministic(self):
        plate = get_object("plate")
        g = rim_pinch_grasp(azimuth=0.7)
        a = evaluate_grasp(g, plate, GRIPPER)
        b = evaluate_grasp(g, plate, GRIPPER)
        assert a == b

    def test_outcome_partition(self):
        plate = get_object("plate")
        rng = np.random.default_rng(2)
        lo, hi = workspace_bounds(plate, GRIPPER)
        for _ in range(300):
            g = Grasp(rng.uniform(lo, hi), quat.random_uniform(rng))
            out = evaluate_grasp(g, plate, GRIPPER)
            assert out.kind in OUTCOME_KINDS

    def test_probe_lattice_floor(self):
        assert len(probe_points(GRIPPER)) >= 200

    def test_probe_lattice_is_shared_and_read_only(self):
        points = probe_points(GRIPPER)
        assert probe_points(GRIPPER) is points
        with pytest.raises(ValueError):
            points[0, 0] = 1.0


class TestTargetDensity:
    def test_collision_gives_zero(self):
        ball = sphere_object(0.05)
        target = make_target(ball, GRIPPER)
        value = target(np.array([0, 0, 0, 1.0, 0, 0, 0]))
        assert value.density == 0.0
        assert value.outcome == COLLISION

    def test_success_density_in_unit_interval(self):
        target = make_target(get_object("plate"), GRIPPER)
        value = target(rim_pinch_grasp().to_vector())
        assert 0.0 < value.density <= 1.0
        assert value.outcome == SUCCESS

    def test_rim_grasp_density_high(self):
        target = make_target(get_object("plate"), GRIPPER)
        assert target(rim_pinch_grasp().to_vector()).density >= 0.9

    def test_nonfinite_state_zero(self):
        target = make_target(get_object("plate"), GRIPPER)
        bad = np.array([np.inf, 0, 0, 1, 0, 0, 0])
        assert target(bad).density == 0.0

    def test_nonnegative_everywhere(self):
        plate = get_object("plate")
        target = make_target(plate, GRIPPER)
        rng = np.random.default_rng(4)
        lo, hi = workspace_bounds(plate, GRIPPER)
        for _ in range(200):
            state = np.concatenate([rng.uniform(lo, hi), quat.random_uniform(rng)])
            assert target(state).density >= 0.0


class TestFrameInvariance:
    @pytest.mark.parametrize("object_name", ["plate", "pan", "pitcher"])
    def test_rigidly_moved_frame_preserves_outcomes(self, object_name):
        obj = get_object(object_name)
        rng = np.random.default_rng(11)
        rotation = quat.from_axis_angle(rng.standard_normal(3), rng.uniform(0.2, 2.0))
        translation = rng.uniform(-0.3, 0.3, size=3)
        moved = obj.transformed(rotation, translation)
        matrix = quat.rotation_matrix(rotation)
        lo, hi = obj.bounds_lo - 0.05, obj.bounds_hi + 0.05
        checked = 0
        for _ in range(120):
            g = Grasp(rng.uniform(lo, hi), quat.random_uniform(rng))
            out = evaluate_grasp(g, obj, GRIPPER)
            g_moved = Grasp(
                matrix @ g.position + translation,
                quat.multiply(rotation, g.orientation),
            )
            out_moved = evaluate_grasp(g_moved, moved, GRIPPER)
            assert out_moved.kind == out.kind
            assert out_moved.quality == pytest.approx(out.quality, abs=1e-6)
            checked += 1
        assert checked == 120


class TestSurfaceSampling:
    def test_samples_lie_on_shell(self):
        plate = get_object("plate")
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = sample_surface_point(plate, rng)
            assert abs(plate.distance(p[None, :])[0]) < 1e-3

    def test_normals_unit(self):
        for name in ("plate", "pan", "pitcher"):
            obj = get_object(name)
            rng = np.random.default_rng(13)
            pts = np.array([sample_surface_point(obj, rng) for _ in range(100)])
            norms = np.linalg.norm(obj.normal(pts), axis=1)
            assert np.all(np.abs(norms - 1.0) < 1e-3)


class TestDemonstrations:
    def test_five_on_plate(self):
        demos = demonstrate_grasps(get_object("plate"), GRIPPER, 5, np.random.default_rng(0))
        assert len(demos) == 5
        assert all(q > 0.0 for _, q in demos)

    def test_small_sphere_always_graspable(self):
        ball = sphere_object(0.02)  # diameter under the jaw span
        demos = demonstrate_grasps(ball, GRIPPER, 1, np.random.default_rng(1))
        assert demos[0][1] > 0.0

    def test_giant_box_fails(self):
        side = 10.0 * GRIPPER.jaw_span
        box = ObjectModel(
            "slab",
            sdf.Box([side, side, side]),
            -side * np.ones(3),
            side * np.ones(3),
        )
        with mock.patch.object(grasping, "DEMONSTRATION_ATTEMPTS", 15):
            with pytest.raises(DemonstrationFailure):
                demonstrate_grasps(box, GRIPPER, 1, np.random.default_rng(2))

    def test_deterministic_given_seed(self):
        a = demonstrate_grasps(get_object("pan"), GRIPPER, 2, np.random.default_rng(3))
        b = demonstrate_grasps(get_object("pan"), GRIPPER, 2, np.random.default_rng(3))
        for (ga, qa), (gb, qb) in zip(a, b):
            assert np.array_equal(ga.to_vector(), gb.to_vector())
            assert qa == qb


def test_canonicalize_grasp_vector_touches_only_quaternion():
    v = np.array([0.1, -0.2, 0.3, -2.0, 0.0, 0.0, 0.0])
    out = canonicalize_grasp_vector(v)
    np.testing.assert_array_equal(out[:3], v[:3])
    np.testing.assert_allclose(out[3:], [1, 0, 0, 0])


# --------------------------------------------------------------------------
# the batched cascade against the one-point-per-call cascade it replaces

CATALOG = object_catalog()
MOVED = [
    obj.transformed(quat.from_axis_angle([1.0, 2.0, 3.0 + i], 0.3 + 0.4 * i), [0.1, -0.2 + 0.05 * i, 0.3])
    for i, obj in enumerate(CATALOG)
]


class CountingSdf(sdf.Sdf):
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def distance(self, points):
        self.calls += 1
        return self.inner.distance(points)


def counting(obj):
    return ObjectModel(obj.name, CountingSdf(obj.shape), obj.bounds_lo, obj.bounds_hi)


def scalar_march_contact(obj, start, direction, span, tol):
    """March then bisect one jaw line, one distance call per bisection step."""
    ts = np.linspace(0.0, span, 129)
    points = start[None, :] + ts[:, None] * direction[None, :]
    d = obj.distance(points)
    if d[0] <= 0.0:
        return points[0]
    crossing = np.nonzero(d <= 0.0)[0]
    if crossing.size == 0:
        return None
    lo, hi = ts[crossing[0] - 1], ts[crossing[0]]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(obj.distance(start + mid * direction)) <= 0.0:
            hi = mid
        else:
            lo = mid
    return start + 0.5 * (lo + hi) * direction


def per_axis_normals(obj, points, h):
    grads = np.empty_like(points)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = h
        grads[:, axis] = (obj.distance(points + offset) - obj.distance(points - offset)) / (2 * h)
    return grads / np.maximum(np.linalg.norm(grads, axis=-1, keepdims=True), 1e-12)


def reference_evaluate(grasp, obj, gripper=GRIPPER):
    """The cascade with one jaw at a time, scalar bisection and per-axis
    normals: 21 distance calls for a success."""
    lo, hi = workspace_bounds(obj, gripper)
    if np.any(grasp.position < lo) or np.any(grasp.position > hi):
        return GraspOutcome(MISS, 0.0)
    rotation = quat.rotation_matrix(grasp.orientation)
    probes = probe_points(gripper) @ rotation.T + grasp.position
    if float(np.min(obj.distance(probes))) < -COLLISION_TOLERANCE:
        return GraspOutcome(COLLISION, 0.0)
    closing = rotation @ CLOSING_AXIS
    half_span = 0.5 * gripper.jaw_span
    contacts = []
    for side in (1.0, -1.0):
        start = grasp.position + side * half_span * closing
        contact = scalar_march_contact(
            obj, start, -side * closing, gripper.jaw_span, CONTACT_TOLERANCE
        )
        if contact is None:
            return GraspOutcome(MISS, 0.0)
        contacts.append(contact)
    n1, n2 = per_axis_normals(obj, np.asarray(contacts), sdf.GRADIENT_STEP)
    antipodality = max(0.0, -float(n1 @ n2))
    cos_friction = 1.0 / np.sqrt(1.0 + FRICTION_COEFFICIENT**2)
    margins = [
        max(0.0, abs(float(n @ closing)) - cos_friction) / (1.0 - cos_friction) for n in (n1, n2)
    ]
    quality = antipodality * min(margins)
    if quality <= QUALITY_THRESHOLD:
        return GraspOutcome(SLIPPED, 0.0)
    return GraspOutcome(SUCCESS, float(quality))


def surface_frame(obj, fractions, offset):
    """A point about `offset` off the surface near bounds_lo + fractions *
    extent, and the outward normal there."""
    point = obj.bounds_lo + np.asarray(fractions) * (obj.bounds_hi - obj.bounds_lo)
    for _ in range(3):
        point = point - obj.distance(point[None, :])[0] * obj.normal(point[None, :])[0]
    normal = obj.normal(point[None, :])[0]
    return point + offset * normal, normal


def unit_vector(components):
    v = np.asarray(components, dtype=float)
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0])


unit = st.floats(0.0, 1.0)
signed = st.floats(-1.0, 1.0)
shapes = st.sampled_from(CATALOG + MOVED)


@settings(max_examples=200, deadline=None)
@given(
    shapes,
    st.tuples(unit, unit, unit),
    st.floats(-0.03, 0.03),
    st.tuples(signed, signed, signed),
    st.sampled_from([1e-5, 1e-7, 2e-4, 1e-3]),
)
def test_jaw_contacts_match_scalar_bisection(obj, fractions, offset, axis, tol):
    center, _ = surface_frame(obj, fractions, offset)
    closing = unit_vector(axis)
    span = GRIPPER.jaw_span
    sides = np.array([[1.0], [-1.0]])
    starts, directions = center + sides * (0.5 * span) * closing, -sides * closing
    expected = [scalar_march_contact(obj, s, d, span, tol) for s, d in zip(starts, directions)]
    pairs, contacts = _jaw_contacts(obj, starts[None], directions[None], span, tol)
    if any(e is None for e in expected):
        assert pairs.size == 0 and contacts.shape == (0, 2, 3)
    else:
        assert pairs.tolist() == [0]
        assert np.array_equal(contacts[0], np.array(expected))


@st.composite
def grip_poses(draw):
    """(object, grasp) on a surface point: the tool centre halfway through
    the material behind it (or just outside, when that is wider than the
    jaws) plus a jitter, the closing axis the outward normal tilted, the
    approach axis rolled about it from the one facing the object's centre."""
    obj = draw(shapes)
    point, normal = surface_frame(obj, draw(st.tuples(unit, unit, unit)), 0.0)
    thickness = _material_thickness(obj, point, normal, GRIPPER.jaw_span)
    depth = -0.5 * thickness if thickness is not None and thickness < GRIPPER.jaw_span else 1e-3
    position = point + (depth + draw(st.floats(-0.01, 0.01))) * normal
    closing = unit_vector(normal + draw(st.floats(0.0, 0.5)) * np.array(draw(st.tuples(signed, signed, signed))))
    inward = obj.bounds_center() - point
    inward = unit_vector(inward - closing * float(inward @ closing))
    roll = draw(st.floats(-np.pi, np.pi)) * draw(st.sampled_from([0.1, 1.0]))
    approach = np.cos(roll) * inward + np.sin(roll) * np.cross(closing, inward)
    approach = unit_vector(approach - closing * float(approach @ closing))
    frame = np.column_stack([closing, np.cross(approach, closing), approach])
    return obj, Grasp(position, quat.from_rotation_matrix(frame))


@settings(max_examples=600, deadline=None)
@given(grip_poses())
def test_evaluate_grasp_matches_reference_with_no_more_sdf_calls(case):
    obj, grasp = case
    ours, theirs = counting(obj), counting(obj)
    outcome = evaluate_grasp(grasp, ours, GRIPPER)
    event(outcome.kind)
    assert outcome == reference_evaluate(grasp, theirs)
    assert ours.shape.calls <= theirs.shape.calls
    if outcome.kind in (SUCCESS, SLIPPED):
        assert ours.shape.calls <= 4


def test_grips_make_three_sdf_calls_for_a_batch():
    plate = counting(get_object("plate"))
    grasps = [rim_pinch_grasp(azimuth=a) for a in np.linspace(0.0, 3.0, 12)]
    rotations = np.array([quat.rotation_matrix(g.orientation) for g in grasps])
    outcomes = _grips(grasps[0].position, rotations, plate, GRIPPER)
    assert outcomes[0].kind == SUCCESS
    assert plate.shape.calls == 3


finite_3 = st.tuples(*[
    st.one_of(
        st.just(0.0), st.just(-0.0),
        st.builds(lambda m, neg: -m if neg else m, st.floats(1e-5, 1e5), st.booleans()),
    )
] * 3)


@settings(max_examples=2000, deadline=None)
@given(finite_3, finite_3)
def test_cross_is_numpy_cross_bit_for_bit(a, b):
    a, b = np.array(a), np.array(b)
    assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()


def test_success_makes_four_sdf_calls():
    plate = counting(get_object("plate"))
    outcome = evaluate_grasp(rim_pinch_grasp(), plate, GRIPPER)
    assert outcome.kind == SUCCESS
    assert plate.shape.calls == 4


def test_pose_beyond_reach_makes_no_sdf_call():
    plate = counting(get_object("plate"))
    grasp = rim_pinch_grasp(radius=0.1 + 0.1)  # 0.1 m off the rim, inside the workspace
    assert evaluate_grasp(grasp, plate, GRIPPER) == GraspOutcome(MISS, 0.0)
    assert plate.shape.calls == 0
    assert reference_evaluate(grasp, get_object("plate")) == GraspOutcome(MISS, 0.0)


def test_pose_beyond_the_jaws_makes_one_sdf_call():
    # 0.035 m off the rim, palm facing away: past half the jaw span, within
    # the palm's reach, and no probe collides
    plate = counting(get_object("plate"))
    grasp = rim_pinch_grasp(radius=0.1 + 0.035)
    assert 0.5 * GRIPPER.jaw_span < 0.035 < _reach(GRIPPER)
    assert evaluate_grasp(grasp, plate, GRIPPER) == GraspOutcome(MISS, 0.0)
    assert plate.shape.calls == 1
    assert reference_evaluate(grasp, get_object("plate")) == GraspOutcome(MISS, 0.0)


@st.composite
def workspace_poses(draw):
    """(object, grasp) up to 0.12 m from a point of the object's bounds box,
    in any orientation; often about as far as the palm reaches."""
    obj = draw(shapes)
    fractions = np.array(draw(st.tuples(unit, unit, unit)))
    inside = obj.bounds_lo + fractions * (obj.bounds_hi - obj.bounds_lo)
    reach = st.floats(0.5 * GRIPPER.jaw_span, _reach(GRIPPER) + 0.005)  # the palm's zone
    length = draw(st.one_of(st.floats(0.0, 0.12), reach))
    offset = length * unit_vector(draw(st.tuples(signed, signed, signed)))
    q = np.array(draw(st.tuples(signed, signed, signed, signed)))
    return obj, Grasp(inside + offset, q if q @ q > 1e-3 else [1.0, 0.0, 0.0, 0.0])


@settings(max_examples=400, deadline=None)
@given(workspace_poses())
def test_reach_test_agrees_with_the_full_cascade(case):
    obj, grasp = case
    ours, theirs = counting(obj), counting(obj)
    outcome = evaluate_grasp(grasp, ours, GRIPPER)
    assert outcome == reference_evaluate(grasp, theirs)
    position = grasp.position
    outside = np.maximum(np.maximum(obj.bounds_lo - position, position - obj.bounds_hi), 0.0)
    clearance = float(np.linalg.norm(outside)) - REACH_SLACK
    if clearance > _reach(GRIPPER):
        event("beyond reach")
        assert ours.shape.calls == 0
    elif clearance > 0.5 * GRIPPER.jaw_span:
        event("beyond the jaws")
        assert ours.shape.calls == 1
    else:
        event(outcome.kind)
        assert ours.shape.calls <= theirs.shape.calls


# a workspace box equal to the object's bounds, so positions a millimetre
# off a bounding face are culled
TIGHT = EvaluationConfig(workspace_margin_factor=0.0)


@contextlib.contextmanager
def search_settings(config=DEFAULT_EVALUATION, **constants):
    """The cascade and both searches with the workspace box of `config` and
    the search constants `constants`, e.g. RESTART_EVERY=3."""
    bounds = functools.partial(workspace_bounds, config=config)
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(grasping, "workspace_bounds", bounds))
        for name, value in constants.items():
            stack.enter_context(mock.patch.object(grasping, name, value))
        yield


@settings(max_examples=300, deadline=None)
@given(
    grip_poses() | workspace_poses(),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
    st.sampled_from([DEFAULT_EVALUATION, TIGHT]),
)
def test_outcomes_of_k_orientations_equal_k_evaluations(case, k, seed, config):
    """The cascade on K orientations at one position gives each pose the
    outcome evaluate_grasp gives it alone, quality bytes included: the
    pose's orientation perturbed by vMF draws around it, and some
    uniformly random ones. The tight workspace culls the positions off the
    object's bounds box that the default one keeps."""
    obj, grasp = case
    position = grasp.position
    rng = np.random.default_rng(seed)
    grasps = [
        Grasp(position, sample_vmf(VonMisesFisher(grasp.orientation, kappa), rng))
        for kappa in rng.choice([0.0, 20.0, 150.0, 1e4], size=k)
    ]
    with search_settings(config):
        together = _outcomes(position, [g.orientation for g in grasps], obj, GRIPPER)
        alone = [evaluate_grasp(g, obj, GRIPPER) for g in grasps]
        lo, hi = grasping.workspace_bounds(obj, GRIPPER)
    outside = np.maximum(np.maximum(obj.bounds_lo - position, position - obj.bounds_hi), 0.0)
    clearance = float(np.linalg.norm(outside)) - REACH_SLACK
    if np.any(position < lo) or np.any(position > hi):
        event("culled")
    elif clearance > _reach(GRIPPER):
        event("beyond reach")
    elif clearance > 0.5 * GRIPPER.jaw_span:
        event("beyond the jaws")
    for outcome in together:
        event(outcome.kind)
    assert [o.kind for o in together] == [o.kind for o in alone]
    qualities = [np.array([o.quality for o in outcomes]).tobytes() for outcomes in (together, alone)]
    assert qualities[0] == qualities[1]



# --------------------------------------------------------------------------
# the batched demonstration search against one evaluate_grasp call per trial


def reference_search(obj, gripper, count, rng):
    """demonstrate_grasps as a sequential hill climb: each trial draws its
    random numbers and is evaluated by evaluate_grasp before the next. An
    attempt whose restart trials all collide is dropped after all its
    trials. The search constants are read from `grasping` on each call, so
    patching one sets it for both searches."""
    restart_every, kappa = grasping.RESTART_EVERY, grasping.PERTURBATION_KAPPA
    found = []
    attempts = 0
    while len(found) < count:
        if attempts >= grasping.DEMONSTRATION_ATTEMPTS:
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
        best_q = None
        best_quality = -1.0
        incumbent = None
        restart_kinds = []
        for trial in range(grasping.TRIALS_PER_POINT):
            if trial % restart_every == 0 or incumbent is None:
                roll = rng.uniform(-np.pi, np.pi)
                candidate = _heuristic_orientation(point, normal, obj, roll)
            else:
                candidate = quat.canonicalize(
                    sample_vmf(VonMisesFisher(incumbent, kappa), rng)
                )
            outcome = evaluate_grasp(Grasp(position, candidate), obj, gripper)
            if trial % restart_every == 0:
                restart_kinds.append(outcome.kind)
            if outcome.quality > best_quality:
                best_quality, best_q = outcome.quality, candidate
                incumbent = candidate
        # all draws made, an attempt whose restart frames all collide is abandoned
        if all(kind == COLLISION for kind in restart_kinds):
            continue
        if best_q is not None and best_quality > 0.0:
            found.append((Grasp(position, best_q), best_quality))
    return found


def search_result(search, obj, count, *, seed):
    """(found or the failure's message, the generator's state after)."""
    rng = np.random.default_rng(seed)
    try:
        found = search(obj, GRIPPER, count, rng)
        result = [(g.to_vector().tobytes(), q) for g, q in found]
    except DemonstrationFailure as failure:
        result = str(failure)
    return result, rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CATALOG[:7:3] + MOVED[:7:3] + [sphere_object(0.02)]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.integers(1, 8),
    st.integers(1, 120),
    st.sampled_from([1, 3, 25, 1000]),
    st.sampled_from([0.0, 150.0]),
    st.sampled_from([DEFAULT_EVALUATION, TIGHT]),
)
def test_batched_search_matches_sequential_search(
    obj, seed, count, attempts, trials, restart_every, kappa, config
):
    with search_settings(
        config,
        DEMONSTRATION_ATTEMPTS=attempts,
        TRIALS_PER_POINT=trials,
        RESTART_EVERY=restart_every,
        PERTURBATION_KAPPA=kappa,
    ):
        expected = search_result(reference_search, obj, count, seed=seed)
        event("found" if isinstance(expected[0], list) else "failed")
        assert search_result(demonstrate_grasps, obj, count, seed=seed) == expected


def test_batched_search_matches_sequential_search_at_defaults():
    for name in ("pitcher", "plate"):
        expected = search_result(reference_search, get_object(name), 2, seed=3)
        assert search_result(demonstrate_grasps, get_object(name), 2, seed=3) == expected


def test_culled_position_draws_every_trial_and_calls_no_sdf(monkeypatch):
    """On a wide box every position sits a millimetre outside a face, so the
    tight workspace culls every attempt: it grips nothing, and its restart
    screen and climb make no distance call."""
    side = 10.0 * GRIPPER.jaw_span
    box = counting(ObjectModel("slab", sdf.Box([side] * 3), -side * np.ones(3), side * np.ones(3)))
    calls = []
    outcomes = grasping._outcomes

    def counted(position, orientations, obj, gripper):
        before = obj.shape.calls
        result = outcomes(position, orientations, obj, gripper)
        calls.append(obj.shape.calls - before)
        return result

    def never(*args):
        raise AssertionError("a culled attempt gripped a pose")

    with search_settings(TIGHT, DEMONSTRATION_ATTEMPTS=3, TRIALS_PER_POINT=30):
        expected = search_result(reference_search, box, 1, seed=4)
        assert expected[0] == "3 attempts produced 0/1 demonstrations"
        monkeypatch.setattr(grasping, "_outcomes", counted)
        monkeypatch.setattr(grasping, "_grips", never)
        assert search_result(demonstrate_grasps, box, 1, seed=4) == expected
    assert calls and not any(calls)


def test_colliding_restarts_draw_every_trial_and_grip_nothing(monkeypatch):
    """On a box far wider than the jaws every position sits a millimetre
    off a face, and every heuristic frame closes the jaws along the face's
    normal, so one finger is inside: each attempt makes its draws,
    evaluates its restart frames in one call and is abandoned."""
    side = 10.0 * GRIPPER.jaw_span
    box = ObjectModel("slab", sdf.Box([side] * 3), -side * np.ones(3), side * np.ones(3))
    evaluations = []
    outcomes = grasping._outcomes

    def recorded(*args):
        result = outcomes(*args)
        evaluations.append([outcome.kind for outcome in result])
        return result

    def never(*args):
        raise AssertionError("an abandoned attempt gripped a pose")

    with search_settings(DEMONSTRATION_ATTEMPTS=3):
        expected = search_result(reference_search, box, 1, seed=4)
        assert expected[0] == "3 attempts produced 0/1 demonstrations"
        monkeypatch.setattr(grasping, "_outcomes", recorded)
        monkeypatch.setattr(grasping, "_grips", never)
        assert search_result(demonstrate_grasps, box, 1, seed=4) == expected
    restarts = grasping.TRIALS_PER_POINT // grasping.RESTART_EVERY
    assert evaluations == [[COLLISION] * restarts] * 3


@pytest.mark.parametrize("bad", [{"count": 0}])
def test_search_arguments_are_checked_before_any_draw(bad):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        demonstrate_grasps(get_object("plate"), GRIPPER, bad["count"], rng)
    assert rng.bit_generator.state == before


# --------------------------------------------------------------------------
# the target's memo


@pytest.fixture
def evaluations(monkeypatch):
    """The states evaluate_grasp is called on, as 7-vectors."""
    calls = []
    evaluate = grasping.evaluate_grasp

    def counted(grasp, *args, **kwargs):
        calls.append(grasp.to_vector())
        return evaluate(grasp, *args, **kwargs)

    monkeypatch.setattr(grasping, "evaluate_grasp", counted)
    return calls


def culled_state(i):
    """A distinct state far outside plate's workspace: a cheap Miss."""
    return np.array([10.0 + i, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


class TestTargetMemo:
    def test_repeated_state_is_evaluated_once(self, evaluations):
        plate = get_object("plate")
        target = make_target(plate, GRIPPER)
        state = rim_pinch_grasp().to_vector()
        first = target(state)
        assert target(state.copy()) == first
        assert target(list(state)) == first
        assert len(evaluations) == 1
        outcome = evaluate_grasp(rim_pinch_grasp(), plate, GRIPPER)
        assert first == TargetValue(outcome.quality, outcome.kind)

    def test_nonfinite_state_is_a_miss_without_evaluation(self, evaluations):
        target = make_target(get_object("plate"), GRIPPER)
        for bad in ([np.nan, 0, 0, 1, 0, 0, 0], [0, 0, 0, np.inf, 0, 0, 0]):
            assert target(np.array(bad)) == TargetValue(0.0, MISS)
            assert target(np.array(bad)) == TargetValue(0.0, MISS)
        assert evaluations == []

    def test_targets_share_no_entries(self, evaluations):
        plate = get_object("plate")
        state = rim_pinch_grasp().to_vector()
        assert make_target(plate, GRIPPER)(state) == make_target(plate, GRIPPER)(state)
        assert len(evaluations) == 2

    def test_memo_keeps_the_most_recent_states(self, evaluations):
        target = make_target(get_object("plate"), GRIPPER)
        for i in range(TARGET_MEMO_SIZE + 1):
            assert target(culled_state(i)) == TargetValue(0.0, MISS)
            target(culled_state(TARGET_MEMO_SIZE))  # the newest state, kept throughout
        assert len(evaluations) == TARGET_MEMO_SIZE + 1
        for i in range(1, TARGET_MEMO_SIZE + 1):
            target(culled_state(i))
        assert len(evaluations) == TARGET_MEMO_SIZE + 1
        target(culled_state(0))  # pushed out by the bound
        assert len(evaluations) == TARGET_MEMO_SIZE + 2

    def test_a_remembered_state_in_the_wrong_shape_still_raises(self):
        target = make_target(get_object("plate"), GRIPPER)
        state = rim_pinch_grasp().to_vector()
        target(state)
        with pytest.raises(ValueError):
            target(state[None, :])
