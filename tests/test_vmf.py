import math

import numpy as np
import pytest

from graspmc.vmf import (
    VonMisesFisher,
    _radial_component,
    _rotate_from_e1,
    draw_vmf,
    orient_vmf,
    sample_vmf,
)

# Mean resultant length oracle A_p(kappa) = I_{p/2}(kappa) / I_{p/2-1}(kappa),
# computed with scipy.special.iv and frozen:
#   A_4(1)  = 0.240193723870
#   A_4(5)  = 0.719340581364
#   A_4(20) = 0.925987748583
BESSEL_RATIO_P4 = {1.0: 0.240193723870, 5.0: 0.719340581364, 20.0: 0.925987748583}

E1 = np.array([1.0, 0.0, 0.0, 0.0])


def draw_many(dist, seed, n):
    rng = np.random.default_rng(seed)
    return np.array([sample_vmf(dist, rng) for _ in range(n)])


def test_validation():
    with pytest.raises(ValueError):
        VonMisesFisher(np.array([1.0, 1.0, 0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        VonMisesFisher(E1, -1.0)
    with pytest.raises(ValueError):
        VonMisesFisher(np.ones(5) / np.sqrt(5), 1.0)


def test_outputs_are_unit_norm():
    rng = np.random.default_rng(0)
    for kappa in (0.0, 0.5, 5.0, 500.0):
        dist = VonMisesFisher(E1, kappa)
        for _ in range(200):
            s = sample_vmf(dist, rng)
            assert abs(np.linalg.norm(s) - 1.0) <= 1e-9


def test_kappa_zero_is_uniform():
    # uniform sphere has zero mean vector
    samples = draw_many(VonMisesFisher(E1, 0.0), 1, 100_000)
    assert np.linalg.norm(samples.mean(axis=0)) < 0.02


def test_huge_kappa_concentrates():
    samples = draw_many(VonMisesFisher(E1, 1e6), 2, 2_000)
    angles = np.arccos(np.clip(samples @ E1, -1.0, 1.0))
    assert np.max(angles) < 0.01


@pytest.mark.parametrize("kappa", [1.0, 5.0, 20.0])
def test_mean_resultant_length_matches_bessel_ratio(kappa):
    samples = draw_many(VonMisesFisher(E1, kappa), 3, 100_000)
    resultant = np.linalg.norm(samples.mean(axis=0))
    assert resultant == pytest.approx(BESSEL_RATIO_P4[kappa], abs=0.01)


def test_p3_supported():
    mu = np.array([0.0, 0.0, 1.0])
    samples = np.array(
        [sample_vmf(VonMisesFisher(mu, 10.0), np.random.default_rng(4)) for _ in range(1)]
    )
    assert samples.shape == (1, 3)
    rng = np.random.default_rng(4)
    dist = VonMisesFisher(mu, 10.0)
    draws = np.array([sample_vmf(dist, rng) for _ in range(5_000)])
    # concentration about mu: mean direction close to mu
    mean_dir = draws.mean(axis=0)
    mean_dir /= np.linalg.norm(mean_dir)
    assert mean_dir @ mu > 0.999


def test_offset_mean_direction():
    mu = np.array([0.5, -0.5, 0.5, -0.5])
    dist = VonMisesFisher(mu, 20.0)
    samples = draw_many(dist, 5, 20_000)
    mean_dir = samples.mean(axis=0)
    mean_dir /= np.linalg.norm(mean_dir)
    assert float(mean_dir @ mu) > 0.9999


def test_seeded_determinism():
    dist = VonMisesFisher(E1, 3.0)
    a = draw_many(dist, 99, 50)
    b = draw_many(dist, 99, 50)
    assert np.array_equal(a, b)


def reference_sample_vmf(dist, rng):
    """sample_vmf written as one function, drawing and orienting in turn."""
    p = dist.dim
    if dist.kappa == 0.0:
        while True:
            raw = rng.standard_normal(p)
            norm = np.linalg.norm(raw)
            if norm > 1e-12:
                return raw / norm
    w = _radial_component(dist.kappa, p, rng)
    while True:
        tangent = rng.standard_normal(p - 1)
        norm = np.linalg.norm(tangent)
        if norm > 1e-12:
            tangent /= norm
            break
    canonical = np.concatenate(([w], np.sqrt(max(0.0, 1.0 - w * w)) * tangent))
    sample = _rotate_from_e1(dist.mean_direction, canonical)
    return sample / np.linalg.norm(sample)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("kappa", [0.0, 0.5, 150.0, 1e6])
def test_sample_is_orient_of_draw_bit_for_bit(dim, kappa):
    means = np.random.default_rng(9).normal(size=(20, dim))
    means[0] = np.eye(dim)[0]  # the mean the reflection leaves alone
    rngs = [np.random.default_rng(11) for _ in range(3)]
    for mu in means:
        dist = VonMisesFisher(mu / np.linalg.norm(mu), kappa)
        expected = reference_sample_vmf(dist, rngs[0])
        assert np.array_equal(sample_vmf(dist, rngs[1]), expected)
        assert np.array_equal(orient_vmf(dist, draw_vmf(kappa, dim, rngs[2])), expected)
    states = [rng.bit_generator.state for rng in rngs]
    assert states[0] == states[1] == states[2]


def wood_draw(kappa, dim, rng):
    """draw_vmf with Wood's b, x0 and c worked out again on every draw."""
    if kappa == 0.0:
        while True:
            raw = rng.standard_normal(dim)
            norm = math.sqrt(float(raw.dot(raw)))
            if norm > 1e-12:
                return raw / norm
    m = dim - 1
    b = m / (2.0 * kappa + np.sqrt(4.0 * kappa * kappa + m * m))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * np.log(1.0 - x0 * x0)
    while True:
        z = rng.beta(0.5 * m, 0.5 * m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform()
        if kappa * w + m * np.log(1.0 - x0 * w) - c >= np.log(u):
            w = float(w)
            break
    while True:
        tangent = rng.standard_normal(dim - 1)
        norm = math.sqrt(float(tangent.dot(tangent)))
        if norm > 1e-12:
            tangent /= norm
            break
    return np.concatenate(([w], np.sqrt(max(0.0, 1.0 - w * w)) * tangent))


def test_draw_is_wood_sampler_bit_for_bit():
    """Draws of every (kappa, p) in turn, so each reads its own constants
    while the others' are remembered too."""
    cases = [(kappa, dim) for kappa in (0.0, 0.5, 50.0, 150.0) for dim in (3, 4)]
    ours, theirs = np.random.default_rng(21), np.random.default_rng(21)
    for i in range(4000):
        kappa, dim = cases[i % len(cases)]
        assert draw_vmf(kappa, dim, ours).tobytes() == wood_draw(kappa, dim, theirs).tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("kappa, dim", [(-1.0, 4), (np.nan, 4), (np.inf, 4), (1.0, 5)])
def test_draw_validates_before_drawing(kappa, dim):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        draw_vmf(kappa, dim, rng)
    assert rng.bit_generator.state == before
