import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc.darting import DartingConfig, build_jump_region, contains_state, jump_transform
from graspmc.errors import DecompositionFailure, EmptyHistory, ZeroQuaternion
from graspmc import kameleon, linalg
from graspmc.grasping import canonicalize_grasp_vector
from graspmc.history import MOVE_DTYPE, OUTCOME_CODES, OUTCOME_LABELS, ChainHistory, rows
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
from graspmc.kernels import BANDWIDTH_FLOOR, GaussianKernel, median_bandwidth
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


class TestCovarianceArithmetic:
    """The kernel gradients and the proposal covariance are the np.mean,
    per-use sigma^2 and fresh gamma^2 I forms, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 8),
        n=st.integers(1, 12),
        bandwidth=st.floats(1e-3, 10.0),
        gamma=st.floats(1e-3, 2.0),
        nu=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_reference_forms(self, d, n, bandwidth, gamma, nu, seed):
        rng = np.random.default_rng(seed)
        z, y = rng.standard_normal((n, d)), rng.standard_normal(d)
        kernel, cfg = GaussianKernel(bandwidth), KameleonConfig(gamma=gamma, nu=nu, subsample_size=n)
        diffs = z - y[None, :]
        k_vals = np.exp(-np.sum(diffs * diffs, axis=1) / (2.0 * bandwidth**2))
        m = (2.0 * diffs * k_vals[:, None] / bandwidth**2).T
        centered = m - m.mean(axis=1, keepdims=True)
        cov = gamma**2 * np.eye(d) + nu**2 * (centered @ centered.T)
        assert kernel_gradient_matrix(z, y, kernel).tobytes() == m.tobytes()
        assert proposal_covariance(m, cfg).tobytes() == (0.5 * (cov + cov.T)).tobytes()
        assert kameleon.covariance_at(y, z, kernel, cfg).tobytes() == (0.5 * (cov + cov.T)).tobytes()


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


@pytest.mark.parametrize(
    "name, bad",
    [("gamma", np.nan), ("gamma", np.inf), ("gamma", 0.0),
     ("nu", np.nan), ("nu", np.inf), ("nu", -1.0)],
)
def test_config_refuses_a_nonfinite_or_out_of_range_scale(name, bad):
    values = {"gamma": 0.5, "nu": 1.0, "subsample_size": 10} | {name: bad}
    with pytest.raises(ValueError, match=name):
        KameleonConfig(**values)


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


def unscreened_kameleon_step(
    current, current_density, target, config, rng, *,
    subsample=(), kernel=None, postprocess=None, current_factored=None,
):
    """Reference: the Kameleon step with the carried factor and no early
    rejection; it builds the proposal's covariance whenever both densities
    are positive and draws the uniform last."""
    current = np.asarray(current, dtype=float)
    adaptive = len(subsample) > 0 and config.nu > 0.0

    if adaptive:
        if current_factored is None:
            current_factored = linalg.factor_covariance(
                kameleon.covariance_at(current, subsample, kernel, config)
            )
        raw = linalg.draw_gaussian(current, current_factored, rng)
    else:
        current_factored = None
        raw = current + config.gamma * rng.standard_normal(current.size)

    proposal = postprocess(raw) if postprocess is not None else raw
    value = target(proposal)
    proposal_density = float(value.density)

    proposal_factored = None
    if adaptive and proposal_density > 0.0 and current_density > 0.0:
        log_q_forward = linalg.factored_logpdf(proposal, current, current_factored)
        proposal_factored = linalg.factor_covariance(
            kameleon.covariance_at(proposal, subsample, kernel, config)
        )
        log_q_backward = linalg.factored_logpdf(current, proposal, proposal_factored)
        log_ratio = (
            np.log(proposal_density) - np.log(current_density) + log_q_backward - log_q_forward
        )
        alpha = 1.0 if log_ratio >= 0.0 else float(np.exp(log_ratio))
    else:
        alpha = symmetric_acceptance(proposal_density, current_density)

    accepted = bool(rng.uniform() < alpha)
    factored = proposal_factored if accepted else current_factored
    return LocalStep(proposal, proposal_density, value.outcome, accepted, factored)


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

    def test_frozen_chain_builds_a_covariance_unless_the_ridge_rejects(self, monkeypatch):
        # on a standard normal both densities are always positive, so every
        # step solves log q(y | x); one that solves nothing more was
        # rejected early by the ridge bound and built no covariance at y
        calls, per_step = {"builds": 0, "solves": 0}, []
        covariance_at, logpdf, step = (
            kameleon.covariance_at, kameleon.factored_logpdf, kameleon.kameleon_step
        )

        def counted(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        def counted_step(*args, **kwargs):
            before = dict(calls)
            result = step(*args, **kwargs)
            builds, solves = (calls[key] - before[key] for key in ("builds", "solves"))
            per_step.append((builds, solves == 1, result.accepted))
            return result

        monkeypatch.setattr(kameleon, "covariance_at", counted("builds", covariance_at))
        monkeypatch.setattr(kameleon, "factored_logpdf", counted("solves", logpdf))
        monkeypatch.setattr(kameleon, "kameleon_step", counted_step)
        cfg = KameleonConfig(gamma=1.0, nu=1.0, subsample_size=20, burn_in=10)
        run_kameleon_chain(standard_normal_target(3), np.zeros(3), 300, cfg, np.random.default_rng(4))
        assert not any(accepted for _, screened, accepted in per_step if screened)
        # each burn-in step refreshes the adaptation, so it builds at x too
        assert [builds for builds, _, _ in per_step[:10]] == [
            1 if screened else 2 for _, screened, _ in per_step[:10]
        ]
        after = per_step[10:]
        assert [builds for builds, _, _ in after] == [0 if screened else 1 for _, screened, _ in after]
        screened = sum(screened for _, screened, _ in after)
        assert 20 < screened < len(after) - 20


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


class FixedUniform:
    """A generator whose normal draws are `rng`'s and whose uniform is `u`."""

    def __init__(self, rng, u):
        self.rng, self.u = rng, u

    def standard_normal(self, size):
        return self.rng.standard_normal(size)

    def uniform(self):
        return self.u


def assert_same_step(screened, reference):
    (step, state), (expected, expected_state) = screened, reference
    assert state == expected_state
    if isinstance(expected, type):  # both raised
        assert step is expected
        return
    assert step.proposal.tobytes() == expected.proposal.tobytes()
    assert np.float64(step.proposal_density).tobytes() == np.float64(expected.proposal_density).tobytes()
    assert (step.outcome, step.accepted) == (expected.outcome, expected.accepted)
    if expected.factored is None:
        assert step.factored is None
    else:
        assert step.factored.factor.tobytes() == expected.factored.factor.tobytes()
        assert step.factored.log_det == expected.factored.log_det


class TestEarlyRejection:
    """The step draws its uniform before the proposal's covariance and
    rejects early when the ridge bound proves the rejection: every draw,
    density, decision and factor is the unscreened step's."""

    STEPS = 8

    @settings(max_examples=500, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 7]),
        log_gamma=st.floats(-6.0, 0.0),
        nu=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
        log_bandwidth=st.floats(np.log10(BANDWIDTH_FLOOR), 1.0),
        n=st.integers(1, 100),
        log_spread=st.floats(-4.0, 0.5),
        log_width=st.floats(-4.0, 1.0),
        canonical=st.booleans(),
        carried=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_unscreened_step(
        self, d, log_gamma, nu, log_bandwidth, n, log_spread, log_width, canonical, carried, seed
    ):
        # a Gaussian target of random width near a random subsample, so
        # that the ratio, both covariances and the guard all vary
        rng = np.random.default_rng(seed)
        postprocess = canonicalize_grasp_vector if canonical and d == 7 else None
        current = rng.standard_normal(d)
        if postprocess is not None:
            current = postprocess(current)
        subsample = current + 10.0**log_spread * rng.standard_normal((n, d))
        kernel = GaussianKernel(10.0**log_bandwidth)
        config = KameleonConfig(gamma=10.0**log_gamma, nu=nu, subsample_size=n)
        width = 10.0**log_width
        center = current + width * rng.standard_normal(d)

        def target(state):
            scaled = (state - center) / width
            return TargetValue(float(np.exp(-0.5 * (scaled @ scaled))), None)

        density, factored = target(current).density, None
        if carried and nu > 0.0:
            factored = linalg.factor_covariance(kameleon.covariance_at(current, subsample, kernel, config))
        rngs = [np.random.default_rng(seed + 1) for _ in range(2)]
        for _ in range(self.STEPS):
            results = []
            for step, step_rng in zip((kameleon_step, unscreened_kameleon_step), rngs):
                try:
                    result = step(
                        current, density, target, config, step_rng, subsample=subsample,
                        kernel=kernel, postprocess=postprocess, current_factored=factored,
                    )
                except (DecompositionFailure, ZeroQuaternion) as error:
                    result = type(error)
                results.append((result, step_rng.bit_generator.state))
            assert_same_step(*results)
            step = results[0][0]
            if isinstance(step, type):
                return
            if step.accepted:
                current, density = step.proposal, step.proposal_density
            factored = step.factored

    # a subsample 50 bandwidths away has kernel values of exactly zero, so
    # C = gamma^2 I whatever nu and the bandwidth; only the guard differs
    FAR = np.full((10, 3), 50.0)

    @pytest.fixture
    def builds(self, monkeypatch):
        """The points `kameleon_step` builds a covariance at."""
        points = []

        def counted(point, *args, _fn=kameleon.covariance_at):
            points.append(point)
            return _fn(point, *args)

        monkeypatch.setattr(kameleon, "covariance_at", counted)
        return points

    def frozen_steps(self, builds, nu, bandwidth, steps=300):
        """Covariances built at the proposal per step, and each step's
        proposal and decision."""
        target, cfg = standard_normal_target(3), KameleonConfig(gamma=1.0, nu=nu, subsample_size=10)
        current, density, factored = np.zeros(3), target(np.zeros(3)).density, None
        rng, counts, decisions = np.random.default_rng(11), [], []
        for _ in range(steps):
            before = len(builds)
            step = kameleon_step(
                current, density, target, cfg, rng,
                subsample=self.FAR * bandwidth, kernel=GaussianKernel(bandwidth),
                current_factored=factored,
            )
            counts.append(len(builds) - before - (factored is None))
            decisions.append((step.proposal.tobytes(), step.accepted))
            if step.accepted:
                current, density = step.proposal, step.proposal_density
            factored = step.factored
        return counts, decisions

    def test_the_guard_turns_the_screen_off(self, builds):
        counts, decisions = self.frozen_steps(builds, 1.0, 1.0)
        assert kameleon._backward_bound(KameleonConfig(1.0, 1.0, 10), 3, 10, 1.0) is not None
        assert set(counts) == {0, 1} and counts.count(0) > 20
        for nu, bandwidth in ((1.0, BANDWIDTH_FLOOR), (1e8, 1.0)):
            assert kameleon._backward_bound(KameleonConfig(1.0, nu, 10), 3, 10, bandwidth) is None
            guarded, same = self.frozen_steps(builds, nu, bandwidth)
            assert guarded == [1] * len(guarded)
            assert same == decisions

    def test_a_zero_uniform_takes_the_full_path_without_a_warning(self, builds):
        target, cfg = standard_normal_target(3), KameleonConfig(gamma=1.0, nu=1.0, subsample_size=10)
        start = np.full(3, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = kameleon_step(
                start, target(start).density, target, cfg,
                FixedUniform(np.random.default_rng(0), 0.0),
                subsample=self.FAR, kernel=GaussianKernel(1.0),
            )
        assert step.accepted and len(builds) == 2


def reference_darting_step(current, current_density, regions, target, config, rng, *, postprocess=None):
    """Reference: the jump attempt that tests the current state against
    every region and sums the region volumes on every call."""
    current = np.asarray(current, dtype=float)
    containing = [i for i, r in enumerate(regions) if contains_state(r, current)]
    if not containing:
        return None
    from_index = containing[0] if len(containing) == 1 else containing[int(rng.integers(len(containing)))]
    cumulative = np.cumsum(np.array([r.volume for r in regions], dtype=float))
    u = rng.uniform() * cumulative[-1]
    to_index = int(np.searchsorted(cumulative, u, side="right").clip(0, len(regions) - 1))
    raw = jump_transform(current, regions[from_index], regions[to_index])
    proposal = postprocess(raw) if postprocess is not None else raw
    value = target(proposal)
    proposal_density = float(value.density)
    n_proposal = sum(1 for r in regions if contains_state(r, proposal))
    alpha = (
        0.0 if n_proposal == 0
        else symmetric_acceptance(len(containing) * proposal_density, n_proposal * current_density)
    )
    return bool(rng.uniform() < alpha), proposal, proposal_density, value.outcome


def reference_run_chain(
    target, current, iterations, history, rng, *,
    kameleon_config, darting=None, regions=(), postprocess=None,
):
    """Reference: the MH loop that builds the burn-in kernel on every
    refresh, carries no region set and steps without early rejection."""
    current = np.asarray(current, dtype=float)
    value = target(current)
    density, outcome = float(value.density), value.outcome
    history.seed_state(current, density)
    h, dim = history, current.size
    h.states, h.proposals = np.empty((iterations, dim)), np.empty((iterations, dim))
    h.densities, h.proposal_densities = np.empty(iterations), np.empty(iterations)
    h.accepted, h.outcomes = np.zeros(iterations, bool), np.full(iterations, -1, np.int8)
    h.moves = np.empty(iterations, MOVE_DTYPE)
    seed_rows = h.seed_proposals if h.proposal_sourced else h.seed_states
    pool = np.concatenate([seed_rows.reshape(-1, dim), np.empty((iterations, dim))])
    seeded = len(seed_rows)
    subsample, kernel, factored = (), None, None
    for t in range(iterations):
        if kameleon_config.nu > 0.0 and t < kameleon_config.burn_in and seeded + t > 0:
            subsample = kameleon.subsample_history(pool[: seeded + t], kameleon_config.subsample_size, rng)
            kernel = GaussianKernel(median_bandwidth(subsample))
            factored = None
        if darting is not None and rng.uniform() >= darting.p_check and regions:
            jump = reference_darting_step(
                current, density, regions, target, darting, rng, postprocess=postprocess
            )
            if jump is None:
                move, proposal, p_density, p_outcome, accepted = (
                    "recount", current, density, outcome, False
                )
            else:
                move = "jump"
                accepted, proposal, p_density, p_outcome = jump
            if accepted:
                factored = None
        else:
            move, step = "kameleon", unscreened_kameleon_step(
                current, density, target, kameleon_config, rng,
                subsample=subsample, kernel=kernel, postprocess=postprocess,
                current_factored=factored,
            )
            proposal, p_density, p_outcome, accepted, factored = step
        if accepted:
            current, density, outcome = proposal, p_density, p_outcome
        h.states[t], h.densities[t], h.proposals[t], h.proposal_densities[t] = (
            current, density, proposal, p_density
        )
        h.accepted[t], h.outcomes[t], h.moves[t] = accepted, OUTCOME_CODES[p_outcome], move
        pool[seeded + t] = proposal if h.proposal_sourced else current
    return history


def mixture_problem(seed, dim=7, modes=3, sigma=0.1, overlap=False):
    """A mixture whose modes sit 40 sigma apart on orthogonal axes, with one
    shared region shape; with `overlap` the first two modes' regions overlap."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    centers = rng.uniform(-1.0, 1.0, dim) + 40 * sigma / np.sqrt(2.0) * rotation[:, :modes].T
    if overlap:
        centers[1] = centers[0] + 0.3 * rotation[:, 0]
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    covariance = rotation @ np.diag(np.linspace(0.5, 1.0, dim)) @ rotation.T
    regions = [build_jump_region(c, 0.5 * (covariance + covariance.T), 0.7) for c in centers]
    return gaussian_mixture_target(centers, sigma), centers, regions


def _run_chain_via_module(
    target, current, iterations, history, rng, *,
    kameleon_config, darting=None, regions=(), postprocess=None,
):
    current = np.asarray(current, dtype=float)
    return kameleon._run_chain(
        target, current, target(current), iterations, history, rng,
        kameleon=kameleon_config, darting=darting, regions=regions, postprocess=postprocess,
    )


class TestLoopEquivalence:
    """The lazy kernel, the carried region set, the once-per-chain volumes
    and the early rejection change no draw, density, decision or generator
    state."""

    @staticmethod
    def both(target, start, seeds, iterations, kameleon_config, darting, regions, seed, **kwargs):
        chains = []
        for run in (_run_chain_via_module, reference_run_chain):
            history = ChainHistory()
            for state in seeds:
                history.seed_state(state, target(state).density)
            rng = np.random.default_rng(seed)
            history = run(
                target, start, iterations, history, rng, kameleon_config=kameleon_config,
                darting=darting, regions=regions, **kwargs,
            )
            chains.append((history, rng.bit_generator.state))
        assert_same_chain(*chains)
        return chains[0][0]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_three_mode_mixture(self, seed):
        target, centers, regions = mixture_problem(seed)
        cfg = KameleonConfig(gamma=0.05, nu=2.38 / np.sqrt(7), subsample_size=100, burn_in=100)
        h = self.both(
            target, centers[seed % 3], centers, 600, cfg, DartingConfig(0.6, 0.7), regions, seed
        )
        for move in ("kameleon", "jump"):
            assert np.any((h.moves == move) & h.accepted)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pure_kameleon_chain(self, seed):
        target, centers, _ = mixture_problem(seed)
        cfg = KameleonConfig(gamma=0.05, nu=1.0, subsample_size=30, burn_in=100)
        self.both(target, centers[0], (), 300, cfg, None, (), seed)

    def test_overlapping_regions_draw_the_source(self):
        target, centers, regions = mixture_problem(7, overlap=True)
        cfg = KameleonConfig(gamma=0.05, nu=2.38 / np.sqrt(7), subsample_size=50, burn_in=100)
        h = self.both(target, centers[0], centers, 600, cfg, DartingConfig(0.6, 0.7), regions, 7)
        before = np.concatenate([h.seed_states[-1:], h.states[:-1]])
        doubly = [
            t for t in np.flatnonzero(h.moves == "jump")
            if sum(contains_state(r, before[t]) for r in regions) == 2
        ]
        assert len(doubly) > 20  # n(x) = 2: the source region is drawn

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_grasp_vectors_canonicalised_out_of_every_region(self, seed):
        # a plateau around modes next to the w = 0 boundary: a reflected jump
        # there can canonicalise to the far side of the double cover
        centers = np.array([
            [0.0, 0.0, 0.0, 0.002, 1.0, 0.0, 0.0],
            [0.04, 0.0, 0.0, 0.002, 1.0, 0.0, 0.0],
            [0.3, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        ])

        def plateau(state):
            return TargetValue(float(np.min(np.linalg.norm(centers - state, axis=1)) < 0.05), None)

        regions = [build_jump_region(c, 0.01 * np.eye(7), 5.0) for c in centers]
        cfg = KameleonConfig(gamma=0.01, nu=0.003, subsample_size=20, burn_in=100)
        h = self.both(
            plateau, centers[seed % 3], centers, 600, cfg, DartingConfig(0.6, 5.0), regions, seed,
            postprocess=canonicalize_grasp_vector,
        )
        jumps = h.proposals[h.moves == "jump"]
        outside = [x for x in jumps if not any(contains_state(r, x) for r in regions)]
        assert outside and len(outside) < len(jumps)
        assert np.any((h.moves == "kameleon") & h.accepted)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nu_zero(self, seed):
        target, centers, regions = mixture_problem(seed)
        cfg = KameleonConfig(gamma=0.05, nu=0.0, subsample_size=100, burn_in=100)
        self.both(target, centers[0], centers, 600, cfg, DartingConfig(0.6, 0.7), regions, seed)


class TestLazyKernel:
    """The burn-in kernel is built only for a Kameleon step that reads it;
    the subsample is still drawn on every burn-in iteration."""

    def spy(self, monkeypatch):
        events = []
        for name, label in (
            ("subsample_history", "refresh"), ("median_bandwidth", "bandwidth"),
            ("kameleon_step", "step"),
        ):
            def recorded(*args, _fn=getattr(kameleon, name), _label=label, **kwargs):
                events.append(_label)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(kameleon, name, recorded)
        return events

    def test_combined_chain_builds_once_per_local_burn_in_step(self, monkeypatch):
        events = self.spy(monkeypatch)
        target, centers, regions = mixture_problem(0)
        burn_in = 120
        cfg = KameleonConfig(gamma=0.05, nu=2.38 / np.sqrt(7), subsample_size=100, burn_in=burn_in)
        history = ChainHistory()
        for center in centers:
            history.seed_state(center, target(center).density)
        h = run_combined_chain(
            target, centers[0], 300, cfg, DartingConfig(0.6, 0.7), regions, history,
            np.random.default_rng(0),
        )
        expected, stale = [], False
        for t, move in enumerate(h.moves):
            if t < burn_in:
                expected.append("refresh")
                stale = True
            if move == "kameleon":
                expected += ["bandwidth", "step"] if stale else ["step"]
                stale = False
        assert events == expected
        local = int(np.sum(h.moves[:burn_in] == "kameleon"))
        assert events.count("refresh") == burn_in
        assert 0 < local < burn_in and events.count("bandwidth") in (local, local + 1)

    def test_pure_chain_builds_once_per_burn_in_step(self, monkeypatch):
        events = self.spy(monkeypatch)
        cfg = KameleonConfig(gamma=0.3, nu=1.0, subsample_size=20, burn_in=50)
        run_kameleon_chain(standard_normal_target(3), np.zeros(3), 200, cfg, np.random.default_rng(1))
        assert events == ["refresh", "bandwidth", "step"] * 50 + ["step"] * 150

    def test_nan_in_the_subsample_raises_at_the_kameleon_step(self, monkeypatch):
        events = self.spy(monkeypatch)
        target, centers, regions = mixture_problem(0)
        cfg = KameleonConfig(gamma=0.05, nu=1.0, subsample_size=100, burn_in=50)
        for seed in range(20):
            events.clear()
            history = ChainHistory()
            history.seed_state(np.full(7, np.nan), 0.0)
            with pytest.raises(ValueError, match="bandwidth"):
                run_combined_chain(
                    target, centers[0], 50, cfg, DartingConfig(0.6, 0.7), regions, history,
                    np.random.default_rng(seed),
                )
            # the raise comes at the first iteration whose gate takes the local step
            assert events[-2:] == ["refresh", "bandwidth"] and "step" not in events
            if len(events) > 2:
                return
        pytest.fail("no seed made a jump attempt before its first Kameleon step")
