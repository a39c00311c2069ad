import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc import quaternions as quat
from graspmc.errors import ZeroQuaternion


def test_canonicalize_rescales():
    np.testing.assert_allclose(quat.canonicalize([2, 0, 0, 0]), [1, 0, 0, 0])


def test_canonicalize_resolves_double_cover():
    np.testing.assert_allclose(quat.canonicalize([-1, 0, 0, 0]), [1, 0, 0, 0])


def test_canonicalize_zero_w_sign_rule():
    np.testing.assert_allclose(quat.canonicalize([0, -0.6, 0, -0.8]), [0, 0.6, 0, 0.8])


def test_canonicalize_rejects_zero():
    with pytest.raises(ZeroQuaternion):
        quat.canonicalize([0, 0, 0, 1e-13])


def test_canonical_invariants_on_random_inputs():
    rng = np.random.default_rng(7)
    for _ in range(500):
        q = quat.canonicalize(rng.standard_normal(4) * 10)
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-9
        assert q[0] >= 0.0
        assert quat.canonicalize(q).tobytes() == q.tobytes()


# components from tiny to large, exact zeros and signed zeros among them;
# |x| <= 1e150 keeps q.q finite
_COMPONENT = st.one_of(
    st.floats(-1e150, 1e150, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]),
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(_COMPONENT, min_size=4, max_size=4))
def test_canonicalize_is_a_bitwise_fixed_point_on_its_outputs(components):
    q = np.array(components)
    if math.sqrt(float(q.dot(q))) <= quat.MIN_NORM:
        return
    once = quat.canonicalize(q)
    twice = quat.canonicalize(once)
    assert twice.tobytes() == once.tobytes()
    assert not np.shares_memory(once, q) and not np.shares_memory(twice, once)
    assert once[0] > 0.0 or (once[0] == 0.0 and once[np.flatnonzero(once)[0]] > 0.0)


def test_canonicalize_of_an_overflowing_quaternion_is_its_direction():
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert quat.canonicalize([1e200, 0, 0, 0]).tolist() == [1.0, 0.0, 0.0, 0.0]
    with pytest.warns(RuntimeWarning, match="overflow"):
        q = quat.canonicalize([0.0, -1e200, 1e199, 0.0])
    np.testing.assert_allclose(q, np.array([0.0, 1.0, -0.1, 0.0]) / math.sqrt(1.01), rtol=1e-15)


# components up to 1e300, so that q.q often overflows
_HUGE_COMPONENT = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.builds(lambda e, neg: (-1.0 if neg else 1.0) * 10.0**e, st.floats(150.0, 300.0), st.booleans()),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(_HUGE_COMPONENT, min_size=4, max_size=4))
def test_canonicalize_of_huge_components_is_a_unit_canonical_fixed_point(components):
    q = np.array(components)
    if np.max(np.abs(q)) <= quat.MIN_NORM:
        return
    with np.errstate(over="ignore"):  # q.q overflows for some examples
        once = quat.canonicalize(q)
    assert np.all(np.isfinite(once))
    assert abs(float(once.dot(once)) - 1.0) <= quat.UNIT_SLACK
    assert once[0] > 0.0 or (once[0] == 0.0 and once[np.flatnonzero(once)[0]] > 0.0)
    assert quat.canonicalize(once).tobytes() == once.tobytes()
    direction = q / np.max(np.abs(q))
    direction /= np.linalg.norm(direction)
    assert min(np.abs(once - direction).max(), np.abs(once + direction).max()) <= 1e-15


def test_canonicalize_keeps_a_canonical_quaternion_and_returns_a_copy():
    q = quat.canonicalize(np.array([0.5, -0.5, 0.5, 0.5]) * (1.0 + 2e-16))
    assert q[0] == 0.5 * (1.0 + 2e-16)
    view = np.concatenate([[1.0, 2.0, 3.0], q])[3:]
    view.flags.writeable = False
    out = quat.canonicalize(view)
    assert out.tobytes() == q.tobytes() and out.flags.writeable
    out[0] = 0.0
    assert view[0] == q[0]


def test_rotation_matrix_is_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = quat.random_uniform(rng)
        m = quat.rotation_matrix(q)
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_matrix_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = quat.random_uniform(rng)
        back = quat.from_rotation_matrix(quat.rotation_matrix(q))
        np.testing.assert_allclose(back, q, atol=1e-9)


def test_multiply_composes_rotations():
    rng = np.random.default_rng(5)
    a, b = quat.random_uniform(rng), quat.random_uniform(rng)
    v = rng.standard_normal(3)
    composed = quat.rotate_vector(quat.multiply(a, b), v)
    nested = quat.rotate_vector(a, quat.rotate_vector(b, v))
    np.testing.assert_allclose(composed, nested, atol=1e-12)


def test_axis_angle_quarter_turn():
    q = quat.from_axis_angle([0, 0, 1], np.pi / 2)
    np.testing.assert_allclose(quat.rotate_vector(q, [1, 0, 0]), [0, 1, 0], atol=1e-12)


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from([3, 4, 7]).flatmap(
        lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    ),
    st.floats(-6.0, 3.0),
)
def test_dot_norm_is_numpy_norm(components, exponent):
    """canonicalize, the vMF sampler and the grasp-frame helpers take the
    norm of a contiguous 1-D vector as sqrt(v.dot(v)), bit for bit with
    np.linalg.norm(v); numpy computes it that way, but nothing promises it."""
    v = np.array(components)
    length = math.sqrt(float(v.dot(v)))
    if length == 0.0:
        return
    v *= 10.0**exponent / length  # magnitudes 1e-6 to 1e3
    assert math.sqrt(float(v.dot(v))).hex() == float(np.linalg.norm(v)).hex()


def test_canonicalize_of_a_strided_quaternion_is_that_of_its_copy():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        block = rng.standard_normal((4, 2))
        assert np.array_equal(quat.canonicalize(block[:, 0]), quat.canonicalize(block[:, 0].copy()))
