import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc.darting import (
    DartingConfig,
    build_jump_region,
    contains_state,
    cumulative_volumes,
    darting_step,
    ellipsoid_volume,
    jump_transform,
    select_jump_target,
)
from graspmc.errors import NoRegions
from graspmc.grasping import canonicalize_grasp_vector
from graspmc.targets import TargetValue, gaussian_mixture_target


def region_at(center, cov, eps=1.0):
    return build_jump_region(np.asarray(center, dtype=float), np.asarray(cov, dtype=float), eps)


class TestVolume:
    def test_unit_sphere(self):
        region = region_at([0.0, 0.0, 0.0], np.eye(3))
        assert region.volume == pytest.approx(4.0 * np.pi / 3.0, abs=1e-12)
        np.testing.assert_allclose(region.scales, [1.0, 1.0, 1.0])

    def test_2d_diagonal(self):
        # d=2: pi^1 * eps^2 * lam1 * lam2 / Gamma(2) = 4 pi for diag(4, 1)
        region = region_at([0.0, 0.0], np.diag([4.0, 1.0]))
        assert region.volume == pytest.approx(4.0 * np.pi, rel=1e-12)

    def test_zero_covariance_floors(self):
        region = region_at([0.0, 0.0], np.zeros((2, 2)), eps=1.0)
        np.testing.assert_allclose(region.scales, [1e-6, 1e-6])
        assert region.volume == pytest.approx(ellipsoid_volume(2, 1.0, np.array([1e-6, 1e-6])), rel=1e-9)

    def test_cached_volume_matches_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            region = region_at(rng.standard_normal(4), a @ a.T, eps=0.7)
            expected = ellipsoid_volume(4, 0.7, region.scales)
            assert region.volume == pytest.approx(expected, rel=1e-9)


class TestMembership:
    def test_center_inside(self):
        region = region_at([1.0, 2.0], np.eye(2))
        assert contains_state(region, np.array([1.0, 2.0]))

    def test_just_outside_unit_sphere(self):
        region = region_at([0.0, 0.0, 0.0], np.eye(3))
        assert not contains_state(region, np.array([1.0000001, 0.0, 0.0]))
        assert contains_state(region, np.array([0.9999999, 0.0, 0.0]))

    def test_monte_carlo_volume_consistency(self):
        # diag scales (2, 1), eps=0.7: membership fraction over a box matches volume
        region = region_at([0.0, 0.0], np.diag([2.0, 1.0]), eps=0.7)
        lo, hi = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        rng = np.random.default_rng(42)
        points = rng.uniform(lo, hi, size=(1_000_000, 2))
        local = points / (region.epsilon * region.scales)
        inside = np.sum(np.linalg.norm(local, axis=1) <= 1.0)
        box_volume = float(np.prod(hi - lo))
        mc_volume = inside / len(points) * box_volume
        assert mc_volume == pytest.approx(region.volume, rel=0.01)

    def test_monte_carlo_volume_consistency_3d(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 3))
        region = region_at([0.0, 0.0, 0.0], a @ a.T, eps=0.7)
        # tight axis-aligned bounding box of the ellipsoid
        extent = region.epsilon * np.sqrt((region.rotation**2) @ region.scales**2)
        lo, hi = -1.05 * extent, 1.05 * extent
        points = rng.uniform(lo, hi, size=(1_000_000, 3))
        local = (points @ region.rotation) / (region.epsilon * region.scales)
        inside_mask = np.linalg.norm(local, axis=1) <= 1.0
        mc_volume = inside_mask.mean() * float(np.prod(hi - lo))
        assert mc_volume == pytest.approx(region.volume, rel=0.02)
        # the vectorized membership above agrees with contains_state pointwise
        for idx in rng.choice(len(points), size=500, replace=False):
            assert contains_state(region, points[idx]) == bool(inside_mask[idx])

    def test_rotated_membership(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T
        region = region_at([0.0, 0.0, 0.0], cov, eps=0.9)
        # boundary point along the first axis
        boundary = region.rotation[:, 0] * (region.epsilon * region.scales)[0]
        assert contains_state(region, boundary * 0.999)
        assert not contains_state(region, boundary * 1.001)


class TestSelection:
    def test_single_region(self):
        region = region_at([0.0], np.eye(1))
        assert select_jump_target(cumulative_volumes([region]), np.random.default_rng(0)) == 0

    def test_empty_raises(self):
        with pytest.raises(NoRegions):
            select_jump_target(cumulative_volumes([]), np.random.default_rng(0))

    def test_equal_volumes_split_evenly(self):
        cumulative = cumulative_volumes([region_at([0.0], np.eye(1)), region_at([5.0], np.eye(1))])
        rng = np.random.default_rng(11)
        picks = np.array([select_jump_target(cumulative, rng) for _ in range(100_000)])
        assert np.mean(picks == 0) == pytest.approx(0.5, abs=0.01)

    def test_volume_weighted(self):
        regions = [
            region_at([0.0], np.diag([3.0])),
            region_at([5.0], np.diag([1.0])),
        ]
        cumulative = cumulative_volumes(regions)
        rng = np.random.default_rng(13)
        picks = np.array([select_jump_target(cumulative, rng) for _ in range(100_000)])
        assert np.mean(picks == 0) == pytest.approx(0.75, abs=0.01)


class TestJumpTransform:
    def test_center_fixed_point(self):
        region = region_at([1.0, -2.0], np.diag([2.0, 0.5]))
        np.testing.assert_allclose(jump_transform(region.center, region, region), region.center)

    def test_unit_spheres_reflected_translation(self):
        a = region_at([1.0, 0.0, 0.0], np.eye(3))
        b = region_at([0.0, 3.0, 0.0], np.eye(3))
        x = np.array([1.5, 0.25, -0.25])
        np.testing.assert_allclose(jump_transform(x, a, b), b.center - (x - a.center), atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            cov_a = rng.standard_normal((5, 5))
            cov_b = rng.standard_normal((5, 5))
            a = region_at(rng.standard_normal(5), cov_a @ cov_a.T, eps=0.7)
            b = region_at(rng.standard_normal(5), cov_b @ cov_b.T, eps=0.7)
            x = rng.standard_normal(5) * 3
            back = jump_transform(jump_transform(x, a, b), b, a)
            assert np.linalg.norm(back - x) < 1e-9


class TestDartingStep:
    def bimodal_setup(self):
        centers = np.array([[0.0, 0.0], [6.0, 0.0]])
        target = gaussian_mixture_target(centers, sigma=0.5)
        regions = [region_at(c, np.eye(2), eps=1.0) for c in centers]
        config = DartingConfig(p_check=0.6, epsilon=1.0)
        return centers, target, regions, config

    def test_outside_all_regions_counts_again(self):
        centers, target, regions, config = self.bimodal_setup()
        current = np.array([3.0, 3.0])
        step = darting_step(current, 1e-8, regions, target, config, np.random.default_rng(0))
        assert not step.jumped
        assert step.proposal is None
        assert np.array_equal(step.proposal if step.jumped else current, current)

    def test_symmetric_centers_always_accepted(self):
        centers, target, regions, config = self.bimodal_setup()
        for seed in range(50):
            density = target(centers[0]).density
            step = darting_step(centers[0], density, regions, target, config, np.random.default_rng(seed))
            assert step.jumped
            state = step.proposal if step.jumped else centers[0]
            assert np.allclose(state, centers[0]) or np.allclose(state, centers[1])

    def test_zero_density_proposal_rejected(self):
        centers = np.array([[0.0, 0.0], [6.0, 0.0]])
        regions = [region_at(c, np.eye(2), eps=1.0) for c in centers]
        config = DartingConfig(p_check=0.6, epsilon=1.0)

        def half_supported(state):
            return TargetValue(1.0 if state[0] < 3.0 else 0.0, None)

        for seed in range(50):
            step = darting_step(
                np.array([0.5, 0.0]), 1.0, regions, half_supported, config, np.random.default_rng(seed)
            )
            if step.proposal is not None and step.proposal_density == 0.0:
                assert not step.jumped

    def test_never_moves_to_zero_density(self):
        centers, target, regions, config = self.bimodal_setup()
        rng = np.random.default_rng(3)
        state, density = np.array([0.1, 0.0]), target(np.array([0.1, 0.0])).density
        for _ in range(200):
            step = darting_step(state, density, regions, target, config, rng)
            if step.jumped:
                state, density = step.proposal, step.proposal_density
            assert density > 0.0

    def test_containing_count_matches_direct_recount(self):
        # the region sets a step hands back are the regions that contain
        # each state, and a set handed in replaces the step's own test
        rng = np.random.default_rng(9)
        regions = [region_at(rng.standard_normal(3), np.eye(3), eps=1.5) for _ in range(4)]
        config = DartingConfig(p_check=0.6, epsilon=1.5)
        target = gaussian_mixture_target(np.array([r.center for r in regions]), sigma=1.0)
        for seed in range(100):
            x = rng.standard_normal(3) * 2
            direct = [i for i, r in enumerate(regions) if contains_state(r, x)]
            step = darting_step(x, target(x).density, regions, target, config, np.random.default_rng(seed))
            assert step.containing == direct
            if step.proposal is None:
                assert not direct and step.proposal_containing is None
            else:
                assert step.proposal_containing == [
                    i for i, r in enumerate(regions) if contains_state(r, step.proposal)
                ]
            handed = darting_step(
                x, target(x).density, regions, target, config, np.random.default_rng(seed),
                containing=direct, cumulative=cumulative_volumes(regions),
            )
            assert handed.jumped == step.jumped and handed.containing == direct
            assert (handed.proposal is None) == (step.proposal is None)
            if step.proposal is not None:
                assert handed.proposal.tobytes() == step.proposal.tobytes()


class TestMembershipNorm:
    """contains_state's sqrt(w @ w) is np.linalg.norm(w) bit for bit, so the
    boundary decision is the one the norm makes."""

    @staticmethod
    def norm_decision(region, x):
        w = (region.rotation.T @ (np.asarray(x, dtype=float) - region.center)) / region.scales
        return bool(np.linalg.norm(w) <= region.epsilon)

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 8),
        epsilon=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_norm_form(self, dim, epsilon, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        region = region_at(rng.standard_normal(dim), a @ a.T + 1e-3 * np.eye(dim), eps=epsilon)
        points = [region.center + rng.standard_normal(dim) * rng.uniform(0.1, 3.0) for _ in range(20)]
        semi_axes = region.epsilon * region.scales
        for axis in range(dim):  # exactly on the boundary along each axis, both ways
            for sign in (1.0, -1.0):
                edge = region.center + sign * region.rotation[:, axis] * semi_axes[axis]
                points += [edge, np.nextafter(edge, edge + sign), np.nextafter(edge, edge - sign)]
        for x in points:
            w = (region.rotation.T @ (x - region.center)) / region.scales
            assert np.sqrt(w @ w).tobytes() == np.linalg.norm(w).tobytes()
            assert contains_state(region, x) == self.norm_decision(region, x)


def four_branch_alpha(n_current, n_proposal, proposal_density, current_density):
    """The jump acceptance as darting_step once wrote it, branch by branch."""
    if proposal_density <= 0.0 or n_proposal == 0:
        return 0.0
    if current_density <= 0.0:
        return 1.0
    return min(1.0, (n_current * proposal_density) / (n_proposal * float(current_density)))


class ProbedRng:
    """Real draws, except that the acceptance uniform (the second uniform of
    a jump attempt) is this probe, which records the alpha it is compared with."""

    def __init__(self, seed):
        self.rng, self.uniforms, self.alpha = np.random.default_rng(seed), 0, None

    def integers(self, *args):
        return self.rng.integers(*args)

    def uniform(self):
        self.uniforms += 1
        return self.rng.uniform() if self.uniforms == 1 else self

    def __lt__(self, alpha):
        self.alpha = alpha
        return False


# grasp-vector modes: A and B overlap and sit next to the w = 0 boundary, so a
# reflected jump there can canonicalise to the far side of the double cover
GRASP_CENTERS = np.array([
    [0.0, 0.0, 0.0, 0.002, 1.0, 0.0, 0.0],
    [0.04, 0.0, 0.0, 0.002, 1.0, 0.0, 0.0],
    [0.3, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
])
GRASP_EPSILON = 5.0  # semi-axes 0.05 on the covariance 0.01 I


class TestJumpAcceptance:
    """darting_step's alpha is the four-branch rule, bit for bit."""

    @staticmethod
    def probe(centers, start, offset, proposal_density, current_density, seed):
        regions = [region_at(c, 0.01 * np.eye(7), eps=GRASP_EPSILON) for c in centers]
        current = centers[start] + np.asarray(offset)
        rng = ProbedRng(seed)
        step = darting_step(
            current, current_density, regions, lambda state: TargetValue(proposal_density, None),
            DartingConfig(0.6, GRASP_EPSILON), rng, postprocess=canonicalize_grasp_vector,
        )
        assert not step.jumped
        counts = (
            sum(contains_state(r, current) for r in regions),
            sum(contains_state(r, step.proposal) for r in regions),
        )
        assert counts == (len(step.containing), len(step.proposal_containing))
        return rng.alpha, four_branch_alpha(*counts, proposal_density, current_density), counts

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.integers(0, 2),
        offset=st.lists(st.floats(-0.018, 0.018), min_size=7, max_size=7),
        proposal_density=st.just(0.0) | st.floats(0.0, 1e3),
        current_density=st.just(0.0) | st.floats(0.0, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_four_branch_rule(
        self, start, offset, proposal_density, current_density, seed
    ):
        alpha, expected, _ = self.probe(
            GRASP_CENTERS, start, offset, proposal_density, current_density, seed
        )
        assert float(alpha).hex() == float(expected).hex()

    @pytest.mark.parametrize(
        "proposal_density, current_density", [(0.0, 2.0), (1.5, 0.0), (1.5, 2.0), (0.0, 0.0)]
    )
    def test_zero_densities(self, proposal_density, current_density):
        offset = [0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        alpha, expected, counts = self.probe(
            GRASP_CENTERS[2:], 0, offset, proposal_density, current_density, 0
        )
        assert counts == (1, 1)
        assert float(alpha).hex() == float(expected).hex()
        assert alpha == (0.0 if proposal_density == 0.0 else 1.0 if current_density == 0.0 else 0.75)

    def test_canonicalised_out_of_every_region(self):
        offset = np.array([0.0, 0.0, 0.0, 0.005, 0.0, 0.0, 0.0])
        region = region_at(GRASP_CENTERS[0], 0.01 * np.eye(7), eps=GRASP_EPSILON)
        assert contains_state(region, GRASP_CENTERS[0] - offset)  # the raw reflection
        alpha, expected, counts = self.probe(GRASP_CENTERS[:1], 0, offset, 1.5, 2.0, 0)
        assert counts == (1, 0)
        assert alpha == expected == 0.0
