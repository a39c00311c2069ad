from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc.darting import DartingConfig, build_jump_region
from graspmc.errors import DecompositionFailure, EmptyHistory
from graspmc import kameleon, linalg
from graspmc.grasping import canonicalize_grasp_vector
from graspmc.history import OUTCOME_LABELS, ChainHistory, rows
from graspmc.kameleon import (
    KameleonConfig,
    LocalStep,
    adaptation_schedule,
    kameleon_step,
    kernel_gradient_matrix,
    proposal_covariance,
    run_kameleon_chain,
    subsample_history,
    symmetric_acceptance,
)
from graspmc.kernels import GaussianKernel
from graspmc.learning import run_combined_chain, tally_outcomes
from graspmc.targets import TargetValue, gaussian_mixture_target, standard_normal_target


class TestSubsample:
    def test_small_history_returned_whole(self):
        out = subsample_history(rows([[0.0], [1.0], [2.0]]), 100, np.random.default_rng(0))
        assert len(out) == 3

    def test_cardinality(self):
        pool = rows([[float(i)] for i in range(1000)])
        out = subsample_history(pool, 100, np.random.default_rng(0))
        assert len(out) == 100
        assert len({float(s[0]) for s in out}) == 100

    def test_determinism(self):
        pool = rows([[float(i)] for i in range(1000)])
        a = subsample_history(pool, 100, np.random.default_rng(5))
        b = subsample_history(pool, 100, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_empty_raises(self):
        with pytest.raises(EmptyHistory):
            subsample_history(rows(), 10, np.random.default_rng(0))

    def test_proposal_sourced_flag_switches_pool(self, monkeypatch):
        # the burn-in pool at step t: seed proposals then the first t
        # proposals when proposal-sourced, else seed states then states
        pools = []

        def spy(pool, n, rng):
            pools.append(pool.copy())
            return pool

        def only_start(state):  # positive only at the start, so every proposal is rejected
            return TargetValue(float(state[0] == 0.0), None)

        monkeypatch.setattr(kameleon, "subsample_history", spy)
        cfg = KameleonConfig(gamma=0.5, nu=1.0, subsample_size=10, burn_in=3)
        for sourced in (True, False):
            pools.clear()
            h = ChainHistory(proposal_sourced=sourced, seed_proposals=rows([[42.0]]))
            h.seed_state([7.0], 1.0)
            run_kameleon_chain(only_start, [0.0], 4, cfg, np.random.default_rng(0), history=h)
            assert not h.accepted.any()
            seeded, stepped = (
                (h.seed_proposals, h.proposals) if sourced else (h.seed_states, h.states)
            )
            assert [len(pool) for pool in pools] == [len(seeded) + t for t in range(3)]
            for t, pool in enumerate(pools):
                assert np.array_equal(pool, np.concatenate([seeded, stepped[:t]]))

    def test_history_with_steps_rejected(self):
        cfg = KameleonConfig(gamma=0.5, nu=0.0, subsample_size=10)
        target = standard_normal_target(1)
        h = run_kameleon_chain(target, [0.0], 3, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_kameleon_chain(target, [0.0], 3, cfg, np.random.default_rng(0), history=h)


class TestKernelGradientMatrix:
    def test_zero_column_at_kernel_maximum(self):
        y = np.array([0.3, -0.7])
        m = kernel_gradient_matrix([y.copy()], y, GaussianKernel(1.0))
        np.testing.assert_allclose(m, np.zeros((2, 1)))

    def test_hand_evaluated_1d(self):
        # d=1, sigma=1, y=0, z={1}: column is 2 * exp(-0.5) = 1.2130613194252668
        m = kernel_gradient_matrix([np.array([1.0])], np.array([0.0]), GaussianKernel(1.0))
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(1.2130613194252668, rel=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(12)
        kernel = GaussianKernel(1.7)
        y = rng.standard_normal(4)
        z = [rng.standard_normal(4) for _ in range(6)]
        m = kernel_gradient_matrix(z, y, kernel)
        h = 1e-6
        for i, zi in enumerate(z):
            for a in range(4):
                e = np.zeros(4)
                e[a] = h
                fd = (kernel.value(y + e, zi) - kernel.value(y - e, zi)) / (2 * h)
                assert m[a, i] == pytest.approx(2.0 * fd, abs=1e-6)


class TestProposalCovariance:
    def test_nu_zero_gives_ridge_exactly(self):
        cfg = KameleonConfig(gamma=0.3, nu=0.0, subsample_size=10)
        m = np.random.default_rng(0).standard_normal((4, 10))
        np.testing.assert_array_equal(proposal_covariance(m, cfg), 0.09 * np.eye(4))

    def test_single_sample_centers_away(self):
        cfg = KameleonConfig(gamma=0.5, nu=1.0, subsample_size=1)
        m = np.random.default_rng(1).standard_normal((3, 1))
        np.testing.assert_allclose(proposal_covariance(m, cfg), 0.25 * np.eye(3), atol=1e-15)

    def test_psd_plus_ridge_oracle(self):
        gamma = 1e-4
        cfg = KameleonConfig(gamma=gamma, nu=2.38 / np.sqrt(6), subsample_size=100)
        m = np.random.default_rng(2).standard_normal((7, 100))
        cov = proposal_covariance(m, cfg)
        assert np.max(np.abs(cov - cov.T)) <= 1e-12
        eigenvalues = np.linalg.eigvalsh(cov)
        assert np.min(eigenvalues) >= gamma**2 - 1e-12
        assert np.min(eigenvalues) >= gamma**2 * (1 - 1e-9)


class TestAdaptationSchedule:
    def test_boundaries(self):
        cfg = KameleonConfig(gamma=1.0, nu=1.0, subsample_size=10, burn_in=100)
        assert adaptation_schedule(0, cfg)
        assert adaptation_schedule(99, cfg)
        assert not adaptation_schedule(100, cfg)
        assert not adaptation_schedule(5000, cfg)


def constant_then_zero_target(zero_region_x):
    def fn(state):
        return TargetValue(0.0 if state[0] > zero_region_x else 1.0, None)

    return fn


class TestKameleonStep:
    def test_zero_density_proposal_always_rejected(self):
        cfg = KameleonConfig(gamma=0.1, nu=0.0, subsample_size=10)
        current = np.array([0.0])
        for seed in range(50):
            step = kameleon_step(
                current,
                1.0,
                lambda s: TargetValue(0.0, None),
                cfg,
                np.random.default_rng(seed),
            )
            assert not step.accepted

    def test_uphill_symmetric_move_always_accepted(self):
        cfg = KameleonConfig(gamma=0.05, nu=0.0, subsample_size=10)
        target = standard_normal_target(2)
        current = np.array([2.0, 2.0])
        dens = target(current).density
        accepted_uphill = 0
        for seed in range(200):
            step = kameleon_step(current, dens, target, cfg, np.random.default_rng(seed))
            if step.proposal_density >= dens:
                assert step.accepted
                accepted_uphill += 1
        assert accepted_uphill > 0

    def test_zero_current_recovers_into_support(self):
        cfg = KameleonConfig(gamma=0.5, nu=0.0, subsample_size=10)
        target = constant_then_zero_target(0.0)
        step = kameleon_step(np.array([0.4]), 0.0, target, cfg, np.random.default_rng(3))
        if step.proposal_density > 0:
            assert step.accepted


def labelled_bump_target(state):
    """Gaussian bump cut to zero beyond radius 2; labelled only where x >= 0."""
    sq = float(np.sum(np.asarray(state) ** 2))
    density = float(np.exp(-0.5 * sq)) if sq < 4.0 else 0.0
    if state[0] < 0.0:
        return TargetValue(density, None)
    return TargetValue(density, "success" if density > 0.0 else "miss")


class TestChainDriver:
    def test_proposal_recorded_regardless_of_acceptance(self):
        cfg = KameleonConfig(gamma=0.1, nu=1.0, subsample_size=10, burn_in=5)
        start = np.zeros(2)
        h = run_kameleon_chain(
            lambda s: TargetValue(0.0, None), start, 12, cfg, np.random.default_rng(0)
        )
        assert len(h.proposals) == len(h.proposal_densities) == 12
        assert not h.accepted.any() and not h.proposal_densities.any()
        assert all(np.array_equal(state, start) for state in h.states)
        assert all(not np.array_equal(proposal, start) for proposal in h.proposals)

    @settings(max_examples=60, deadline=None)
    @given(
        p_check=st.floats(0.0, 1.0),
        nu=st.sampled_from([0.0, 0.5, 2.0]),
        region_count=st.integers(0, 3),
        iterations=st.integers(1, 40),
        burn_in=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_combined_chain_invariants(self, p_check, nu, region_count, iterations, burn_in, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-2.0, 2.0, size=(region_count, 2))
        regions = [build_jump_region(c, 0.3 * np.eye(2), 1.0) for c in centers]
        kameleon = KameleonConfig(gamma=0.5, nu=nu, subsample_size=8, burn_in=burn_in)
        darting = DartingConfig(p_check=p_check, epsilon=1.0)
        start = rng.uniform(-1.0, 1.0, size=2)
        history = run_combined_chain(
            labelled_bump_target, start, iterations, kameleon, darting, regions, ChainHistory(), rng
        )

        assert len(history) == len(history.proposals) == len(history.moves) == iterations
        assert set(history.moves) <= {"kameleon", "jump", "recount"}
        if not regions or p_check == 1.0:
            assert set(history.moves) == {"kameleon"}
        state, density = history.seed_states[-1], history.seed_densities[-1]
        for t in range(iterations):
            if history.accepted[t]:
                state, density = history.proposals[t], history.proposal_densities[t]
            assert np.array_equal(history.states[t], state)
            assert history.densities[t] == density
            if history.moves[t] != "recount":
                proposal = history.proposals[t]
                assert OUTCOME_LABELS[history.outcomes[t]] == labelled_bump_target(proposal).outcome
        labelled = int(np.sum(history.outcomes >= 0))
        assert tally_outcomes(history).total == labelled


def plain_random_walk_metropolis(target, x0, steps, gamma, rng):
    """Independent reference: textbook RWM with proposal N(x, gamma^2 I)."""
    x = np.asarray(x0, dtype=float)
    density = target(x).density
    chain = []
    for _ in range(steps):
        proposal = x + gamma * rng.standard_normal(x.size)
        proposal_density = target(proposal).density
        alpha = min(1.0, proposal_density / density)
        if rng.uniform() < alpha:
            x, density = proposal, proposal_density
        chain.append(x.copy())
    return np.array(chain)


class TestReductionProperty:
    def test_nu_zero_bit_identical_to_plain_rwm(self):
        target = standard_normal_target(3)
        cfg = KameleonConfig(gamma=0.4, nu=0.0, subsample_size=50, burn_in=100)
        x0 = np.array([0.5, -0.5, 0.25])
        history = run_kameleon_chain(target, x0, 1_000, cfg, np.random.default_rng(77))
        reference = plain_random_walk_metropolis(target, x0, 1_000, 0.4, np.random.default_rng(77))
        assert np.array_equal(np.asarray(history.states), reference)


class TestModeStickiness:
    def test_kameleon_only_stays_in_starting_mode(self):
        # regression guard documenting why darting exists: two modes 6 apart,
        # the pure chain keeps >= 99% of its mass in the starting basin
        from graspmc.targets import gaussian_mixture_target

        centers = np.array([[0.0, 0.0], [6.0, 0.0]])
        target = gaussian_mixture_target(centers, sigma=0.5)
        cfg = KameleonConfig(gamma=0.25, nu=2.38 / np.sqrt(2), subsample_size=100, burn_in=2000)
        history = run_kameleon_chain(target, centers[0], 10_000, cfg, np.random.default_rng(0))
        states = np.asarray(history.states)
        near_start = np.linalg.norm(states - centers[0], axis=1) < 3.0
        assert np.mean(near_start) >= 0.99


class TestPlainWalkStationarity:
    def test_nu_zero_tracks_2d_normal(self):
        # nu=0, gamma=0.5: plain random-walk Metropolis against the analytic target
        target = standard_normal_target(2)
        cfg = KameleonConfig(gamma=0.5, nu=0.0, subsample_size=10)
        history = run_kameleon_chain(target, np.zeros(2), 100_000, cfg, np.random.default_rng(6))
        samples = np.asarray(history.states)
        assert np.max(np.abs(samples.mean(axis=0))) < 0.05
        assert np.linalg.norm(np.cov(samples.T) - np.eye(2), "fro") < 0.1


class TestChainBehaviour:
    def test_states_always_finite(self):
        target = standard_normal_target(2)
        cfg = KameleonConfig(gamma=0.3, nu=1.0, subsample_size=20, burn_in=200)
        history = run_kameleon_chain(target, np.zeros(2), 500, cfg, np.random.default_rng(1))
        assert np.all(np.isfinite(np.asarray(history.states)))

    def test_adaptive_chain_tracks_2d_normal(self):
        # quick stationarity smoke test; the full-budget version lives in acceptance
        target = standard_normal_target(2)
        rng = np.random.default_rng(3)
        history = ChainHistory()
        x, dens = np.zeros(2), target(np.zeros(2)).density
        for _ in range(1000):  # plain-RWM sketch seeds the adaptation history
            prop = x + 0.5 * rng.standard_normal(2)
            pd = target(prop).density
            if rng.uniform() < min(1.0, pd / dens):
                x, dens = prop, pd
            history.seed_state(x, dens)
        cfg = KameleonConfig(gamma=0.1, nu=2.38 / np.sqrt(2), subsample_size=100, burn_in=500)
        history = run_kameleon_chain(target, np.zeros(2), 20_500, cfg, rng, history=history)
        samples = np.asarray(history.states[500:])
        assert np.max(np.abs(samples.mean(axis=0))) < 0.1
        assert np.linalg.norm(np.cov(samples.T) - np.eye(2), "fro") < 0.2

    def test_seeded_chain_reproducible(self):
        target = standard_normal_target(2)
        cfg = KameleonConfig(gamma=0.2, nu=1.0, subsample_size=30, burn_in=100)
        a = run_kameleon_chain(target, np.zeros(2), 300, cfg, np.random.default_rng(5))
        b = run_kameleon_chain(target, np.zeros(2), 300, cfg, np.random.default_rng(5))
        assert np.array_equal(np.asarray(a.states), np.asarray(b.states))


def uncarried_kameleon_step(
    current, current_density, target, config, rng, *,
    subsample=(), kernel=None, postprocess=None, current_factored=None,
):
    """Reference: the Kameleon step that builds both covariances afresh on
    every call and ignores any carried factor."""
    current = np.asarray(current, dtype=float)
    adaptive = len(subsample) > 0 and config.nu > 0.0

    if adaptive:
        cov_current = kameleon.covariance_at(current, subsample, kernel, config)
        raw = linalg.sample_gaussian(current, cov_current, rng)
    else:
        raw = current + config.gamma * rng.standard_normal(current.size)

    proposal = postprocess(raw) if postprocess is not None else raw
    value = target(proposal)
    proposal_density = float(value.density)

    if adaptive and proposal_density > 0.0 and current_density > 0.0:
        cov_proposal = kameleon.covariance_at(proposal, subsample, kernel, config)
        log_q_forward = linalg.gaussian_logpdf(proposal, current, cov_current)
        log_q_backward = linalg.gaussian_logpdf(current, proposal, cov_proposal)
        log_ratio = (
            np.log(proposal_density) - np.log(current_density) + log_q_backward - log_q_forward
        )
        alpha = 1.0 if log_ratio >= 0.0 else float(np.exp(log_ratio))
    else:
        alpha = symmetric_acceptance(proposal_density, current_density)

    return LocalStep(proposal, proposal_density, value.outcome, bool(rng.uniform() < alpha))


GRASP_MODES = np.array([
    canonicalize_grasp_vector(np.array([0.0, 0.0, 0.0, 1.0, 0.2, -0.1, 0.3])),
    canonicalize_grasp_vector(np.array([0.4, -0.3, 0.2, 0.3, 1.0, 0.4, -0.2])),
    canonicalize_grasp_vector(np.array([-0.2, 0.5, 0.1, -0.4, 0.1, 1.0, 0.5])),
])
GRASP_MIXTURE = gaussian_mixture_target(GRASP_MODES, 0.15)
ZERO_CUT = 0.45  # positions with x beyond this have zero density


def cut_grasp_mixture(state):
    return GRASP_MIXTURE(state) if state[0] <= ZERO_CUT else TargetValue(0.0, None)


def grasp_chain(seed, nu, burn_in, iterations, zero_start, p_check=0.6):
    """A combined chain on 7-D grasp vectors: three modes with regions that
    overlap a little, canonicalised proposals, and a start that is either a
    mode or a zero-density state."""
    rng = np.random.default_rng(seed)
    regions = [build_jump_region(mode, 0.4 * np.eye(7), 0.6) for mode in GRASP_MODES]
    history = ChainHistory()
    for mode in GRASP_MODES:
        history.seed_state(mode, cut_grasp_mixture(mode).density)
    start = GRASP_MODES[seed % 3].copy()
    if zero_start:
        start[0] = ZERO_CUT + 0.05
    cfg = KameleonConfig(gamma=0.05, nu=nu, subsample_size=6, burn_in=burn_in)
    history = run_combined_chain(
        cut_grasp_mixture, start, iterations, cfg, DartingConfig(p_check, 0.6), regions, history,
        rng, postprocess=canonicalize_grasp_vector,
    )
    return history, rng.bit_generator.state


CHAIN_COLUMNS = (
    "seed_states", "seed_densities", "states", "densities", "proposals",
    "proposal_densities", "accepted", "outcomes", "moves",
)


def assert_same_chain(carried, reference):
    (history, state), (expected, expected_state) = carried, reference
    for column in CHAIN_COLUMNS:
        a, b = getattr(history, column), getattr(expected, column)
        assert a.dtype == b.dtype and a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column
    assert state == expected_state


class TestCarriedFactor:
    """The chain hands each state's factored covariance to the next step;
    that must change no draw, density or decision."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nu=st.sampled_from([0.0, 0.5, 2.38 / np.sqrt(7)]),
        burn_in=st.sampled_from([0, 1, 3, 500]),
        iterations=st.integers(1, 80),
        zero_start=st.booleans(),
        p_check=st.sampled_from([0.0, 0.6, 1.0]),
    )
    def test_matches_the_uncarried_chain(
        self, seed, nu, burn_in, iterations, zero_start, p_check
    ):
        args = (seed, nu, burn_in, iterations, zero_start, p_check)
        carried = grasp_chain(*args)
        with mock.patch.object(kameleon, "kameleon_step", uncarried_kameleon_step):
            reference = grasp_chain(*args)
        assert_same_chain(carried, reference)

    def test_long_chain_covers_every_carry_case(self):
        args = (3, 2.38 / np.sqrt(7), 40, 1500, True)
        carried = grasp_chain(*args)
        with mock.patch.object(kameleon, "kameleon_step", uncarried_kameleon_step):
            reference = grasp_chain(*args)
        assert_same_chain(carried, reference)
        h = carried[0]
        moves, accepted = h.moves, h.accepted
        before = np.concatenate([h.seed_densities[-1:], h.densities[:-1]])
        assert np.any((moves == "kameleon") & accepted & (before == 0.0))  # leaves zero density
        for move in ("kameleon", "jump"):
            assert np.any((moves == move) & accepted) and np.any((moves == move) & ~accepted)
        assert np.any(moves == "recount")

    def test_frozen_chain_builds_one_covariance_per_step(self, monkeypatch):
        builds, per_step = [0], []
        covariance_at, step = kameleon.covariance_at, kameleon.kameleon_step

        def counted_covariance(*args, **kwargs):
            builds[0] += 1
            return covariance_at(*args, **kwargs)

        def counted_step(*args, **kwargs):
            before = builds[0]
            result = step(*args, **kwargs)
            per_step.append((builds[0] - before, result.accepted))
            return result

        monkeypatch.setattr(kameleon, "covariance_at", counted_covariance)
        monkeypatch.setattr(kameleon, "kameleon_step", counted_step)
        cfg = KameleonConfig(gamma=0.3, nu=1.0, subsample_size=20, burn_in=10)
        run_kameleon_chain(standard_normal_target(3), np.zeros(3), 300, cfg, np.random.default_rng(4))
        counts = [count for count, _ in per_step]
        assert counts[:10] == [2] * 10  # each burn-in step refreshes the adaptation
        after = per_step[10:]
        rejected_twice = [
            count for (count, ok), (_, ok_before) in zip(after[1:], after) if not ok and not ok_before
        ]
        assert len(rejected_twice) > 20
        assert rejected_twice == [1] * len(rejected_twice)
        assert [count for count, _ in after] == [1] * len(after)


class TestNonPositiveDefiniteCovariance:
    """A singular covariance: Cholesky fails, the draw takes the eigh
    factor, and the density raises as it did before the factor was carried."""

    SINGULAR = np.diag([0.04, 0.0, 0.01])
    CURRENT = np.array([0.5, -1.0, 2.0])

    def step(self, monkeypatch, density, proposals, seed=0, **kwargs):
        def target(state):
            proposals.append(state)
            return TargetValue(density, None)

        monkeypatch.setattr(kameleon, "covariance_at", lambda *args: self.SINGULAR.copy())
        cfg = KameleonConfig(gamma=0.1, nu=1.0, subsample_size=5)
        return kameleon_step(
            self.CURRENT, 1.0, target, cfg, np.random.default_rng(seed),
            subsample=np.ones((2, 3)), kernel=GaussianKernel(1.0), **kwargs,
        )

    def expected_draw(self, seed=0):
        return linalg.sample_gaussian(self.CURRENT, self.SINGULAR, np.random.default_rng(seed))

    def test_density_raises_after_the_eigh_draw(self, monkeypatch):
        proposals = []
        with pytest.raises(DecompositionFailure):
            self.step(monkeypatch, 0.5, proposals)
        assert proposals[0].tobytes() == self.expected_draw().tobytes()
        assert proposals[0][1] == -1.0  # the null direction keeps the mean exactly

    def test_draw_and_carry_use_the_eigh_factor(self, monkeypatch):
        proposals = []
        step = self.step(monkeypatch, 0.0, proposals)
        assert not step.accepted
        assert proposals[0].tobytes() == self.expected_draw().tobytes()
        assert step.factored.log_det is None
        assert step.factored.factor.tobytes() == linalg.psd_sqrt(self.SINGULAR).tobytes()
        self.step(monkeypatch, 0.0, proposals, seed=1, current_factored=step.factored)
        assert proposals[1].tobytes() == self.expected_draw(seed=1).tobytes()
        with pytest.raises(DecompositionFailure):
            self.step(monkeypatch, 0.5, proposals, seed=1, current_factored=step.factored)
