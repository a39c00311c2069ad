import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspmc import learning
from graspmc import quaternions as quat
from graspmc.darting import DartingConfig, build_jump_region, symmetric_acceptance
from graspmc.errors import EmptyHistory, GraspMCError, InvalidConfig, InvalidDemonstration
from graspmc.grasping import (
    OUTCOME_KINDS, Grasp, canonicalize_grasp_vector, demonstrate_grasps, make_target,
)
from graspmc.gripper import default_gripper
from graspmc.history import MOVE_DTYPE, MOVES, OUTCOME_CODES, ChainHistory, rows
from graspmc.kameleon import KameleonConfig, LocalStep, _run_chain
from graspmc.learning import (
    LearnedModel,
    RoughSketch,
    Tally,
    active_learn,
    build_rough_sketch,
    random_sketch,
    run_combined_chain,
    tally_outcomes,
    transfer_learn,
)
from graspmc.objects import get_object
from graspmc.serialization import (
    history_from_dict,
    history_to_dict,
    model_from_document,
    model_to_document,
    sketch_to_document,
)
from graspmc.targets import gaussian_mixture_target
from graspmc.vmf import VonMisesFisher, draw_vmf, sample_vmf

GRIPPER = default_gripper()
KAMELEON = KameleonConfig(gamma=1e-4, nu=2.38 / np.sqrt(6), subsample_size=100, burn_in=100)
DARTING = DartingConfig(p_check=0.6, epsilon=0.7)


def plate_demos(seed=0, count=5):
    return [
        d
        for d, _ in demonstrate_grasps(
            get_object("plate"), GRIPPER, count, np.random.default_rng((seed, 77))
        )
    ]


class TestRoughSketch:
    def test_proposal_count_matches_iterations(self):
        demos = plate_demos(count=1)
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 130, demos[0], 0.10, 50.0, np.random.default_rng(0)
        )
        assert len(sketch.proposals) == 130

    def test_degenerate_proposal_stays_at_start(self):
        demos = plate_demos(count=1)
        start = demos[0]
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 40, start, 1e-12, 1e9, np.random.default_rng(1)
        )
        assert sketch.accepted.all()
        for proposal in sketch.proposals:
            np.testing.assert_allclose(proposal[:3], start.to_vector()[:3], atol=1e-9)
            assert abs(abs(proposal[3:] @ start.to_vector()[3:]) - 1.0) < 1e-7

    def test_seeded_determinism(self):
        demos = plate_demos(count=1)
        a = build_rough_sketch(
            get_object("plate"), GRIPPER, 60, demos[0], 0.1, 50.0, np.random.default_rng(3)
        )
        b = build_rough_sketch(
            get_object("plate"), GRIPPER, 60, demos[0], 0.1, 50.0, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(a.proposals, b.proposals)

    def test_zero_density_start_rejected(self):
        bad = Grasp(np.array([5.0, 5.0, 5.0]), np.array([1.0, 0, 0, 0]))
        with pytest.raises(InvalidDemonstration):
            build_rough_sketch(
                get_object("plate"), GRIPPER, 10, bad, 0.1, 50.0, np.random.default_rng(0)
            )

    def test_random_sketch_size_and_flags(self):
        sketch = random_sketch(get_object("plate"), GRIPPER, 200, np.random.default_rng(5))
        assert len(sketch.proposals) == 200
        assert not sketch.densities.any() and not sketch.accepted.any()
        assert (sketch.outcomes == -1).all()
        # uniform orientations are canonical unit quaternions
        for proposal in sketch.proposals[:20]:
            assert abs(np.linalg.norm(proposal[3:]) - 1.0) < 1e-9
            assert proposal[3] >= 0.0

    @pytest.mark.parametrize("setting", ["position_sigma", "kappa"])
    @pytest.mark.parametrize("bad", [-0.1, -np.inf, np.inf, np.nan])
    def test_bad_walk_setting_is_refused_before_any_draw(self, setting, bad):
        walk = {"position_sigma": 0.1, "kappa": 50.0, setting: bad}
        start = Grasp(np.array([0.085, 0.0, 0.02]), np.array([1.0, 0.0, 0.0, 0.0]))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidConfig, match=setting):
            build_rough_sketch(
                get_object("plate"), GRIPPER, 10, start, walk["position_sigma"], walk["kappa"], rng
            )
        assert rng.bit_generator.state == before


# --------------------------------------------------------------------------
# the prefetched walk against the walk that evaluates one proposal at a time


def one_step_sketch(obj, start, iterations, position_sigma, kappa, rng):
    """build_rough_sketch's walk without its prefetch: each iteration draws
    its proposal, evaluates it through the target and decides it before the
    next one draws."""
    target = make_target(obj, GRIPPER)

    def walk(current, density):
        position = current[:3] + position_sigma * rng.standard_normal(3)
        orientation = sample_vmf(VonMisesFisher(current[3:], kappa), rng)
        proposal = canonicalize_grasp_vector(np.concatenate([position, orientation]))
        value = target(proposal)
        p_density = float(value.density)
        accepted = bool(rng.uniform() < symmetric_acceptance(p_density, density))
        return LocalStep(proposal, p_density, value.outcome, accepted)

    current = start.to_vector()
    history = ChainHistory(proposal_sourced=True)
    return _run_chain(target, current, target(current), iterations, history, rng, walk=walk)


MOVED_PLATE = get_object("plate").transformed(
    quat.from_axis_angle([1.0, 2.0, 3.0], 0.7), [0.1, -0.2, 0.3]
)
HISTORY_COLUMNS = [
    f.name for f in dataclasses.fields(ChainHistory) if f.name != "proposal_sourced"
]


@functools.lru_cache(maxsize=None)
def walk_start(name):
    obj = MOVED_PLATE if name == "moved plate" else get_object(name)
    return obj, demonstrate_grasps(obj, GRIPPER, 1, np.random.default_rng((len(name), 5)))[0][0]


@pytest.mark.parametrize("name", ["pitcher", "pan", "plate", "moved plate"])
@pytest.mark.parametrize(
    "position_sigma, kappa, iterations, seed",
    [(0.10, 50.0, 1100, 2), (0.10, 50.0, 1100, 7), (0.002, 2000.0, 301, 2)],
)
def test_prefetched_walk_is_the_one_step_walk(
    name, position_sigma, kappa, iterations, seed, monkeypatch
):
    """Every history column and the generator state after the walk, at the
    published settings and at a setting that accepts most proposals. The
    walk cuts short at least one batch at an acceptance, so its batches
    cover more proposals than it keeps, and it evaluates fewer batches
    than iterations."""
    assert iterations % learning.SKETCH_PREFETCH  # the last batch is cut by the iterations left
    obj, start = walk_start(name)
    batches = []
    outcomes = learning._outcomes

    def counted(positions, orientations, *args):
        batches.append(len(orientations))
        return outcomes(positions, orientations, *args)

    monkeypatch.setattr(learning, "_outcomes", counted)
    rng = np.random.default_rng(seed)
    ours = ChainHistory(proposal_sourced=True)
    build_rough_sketch(obj, GRIPPER, iterations, start, position_sigma, kappa, rng, history=ours)
    rng_ref = np.random.default_rng(seed)
    theirs = one_step_sketch(obj, start, iterations, position_sigma, kappa, rng_ref)
    for column in HISTORY_COLUMNS:
        ours_column, their_column = getattr(ours, column), getattr(theirs, column)
        assert ours_column.dtype == their_column.dtype, column
        assert ours_column.shape == their_column.shape, column
        assert ours_column.tobytes() == their_column.tobytes(), column
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert ours.accepted.any()
    assert sum(batches) > iterations > len(batches)


@pytest.mark.parametrize("name", ["pitcher", "pan", "plate"])
@pytest.mark.parametrize(
    "position_sigma, kappa, iterations", [(0.10, 50.0, 1100), (0.002, 2000.0, 301)]
)
def test_walk_draws_each_iteration_once(name, position_sigma, kappa, iterations, monkeypatch):
    """A prefetched batch cut short by an acceptance keeps its later draws
    for the iterations they belong to, so the walk makes one vMF draw per
    iteration."""
    obj, start = walk_start(name)
    draws = []

    def counted(*args):
        draws.append(args)
        return draw_vmf(*args)

    monkeypatch.setattr(learning, "draw_vmf", counted)
    ours = ChainHistory(proposal_sourced=True)
    build_rough_sketch(
        obj, GRIPPER, iterations, start, position_sigma, kappa, np.random.default_rng(2),
        history=ours,
    )
    assert ours.accepted.any()
    assert len(draws) == iterations


class TestActiveLearn:
    def test_budget_conservation(self):
        demos = plate_demos()
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 220, demos[0], 0.10, 50.0, np.random.default_rng(0)
        )
        model = active_learn(
            get_object("plate"), GRIPPER, sketch, demos, KAMELEON, DARTING, 120,
            np.random.default_rng(1),
        )
        tally = tally_outcomes(model)
        assert tally.total == KAMELEON.burn_in + 120
        assert len(model.chain) == KAMELEON.burn_in + 120

    def test_pure_kameleon_gate(self):
        demos = plate_demos()
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 120, demos[0], 0.10, 50.0, np.random.default_rng(0)
        )
        darting = DartingConfig(p_check=1.0, epsilon=0.7)
        model = active_learn(
            get_object("plate"), GRIPPER, sketch, demos, KAMELEON, darting, 80,
            np.random.default_rng(1),
        )
        assert all(move == "kameleon" for move in model.chain.moves)

    def test_rejects_zero_density_demo(self):
        demos = plate_demos()
        bad = Grasp(np.array([5.0, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 50, demos[0], 0.10, 50.0, np.random.default_rng(0)
        )
        with pytest.raises(InvalidDemonstration):
            active_learn(
                get_object("plate"), GRIPPER, sketch, [bad], KAMELEON, DARTING, 20,
                np.random.default_rng(1),
            )

    def test_chain_states_finite_and_canonical(self):
        demos = plate_demos()
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 150, demos[0], 0.10, 50.0, np.random.default_rng(2)
        )
        model = active_learn(
            get_object("plate"), GRIPPER, sketch, demos, KAMELEON, DARTING, 150,
            np.random.default_rng(3),
        )
        states = np.asarray(model.chain.states)
        assert np.all(np.isfinite(states))
        quats = states[:, 3:]
        np.testing.assert_allclose(np.linalg.norm(quats, axis=1), 1.0, atol=1e-9)
        assert np.all(quats[:, 0] >= 0.0)


class TestSyntheticCombined:
    def test_mode_coverage_quick(self):
        # 3-mode mixture: combined loop must visit all modes; quick version
        centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        target = gaussian_mixture_target(centers, sigma=0.1)
        kameleon = KameleonConfig(gamma=0.05, nu=2.38 / np.sqrt(2), subsample_size=100, burn_in=300)
        darting = DartingConfig(p_check=0.6, epsilon=0.7)
        regions = [build_jump_region(c, np.eye(2), 0.7) for c in centers]
        history = ChainHistory()
        run_combined_chain(
            target, centers[0], 1200, kameleon, darting, regions, history,
            np.random.default_rng(0),
        )
        states = np.asarray(history.states)
        accepted = np.asarray(history.accepted)
        for c in centers:
            close = np.linalg.norm(states - c, axis=1) <= 0.3
            assert np.sum(close & accepted) >= 20

    def test_zero_p_check_always_takes_the_jump_gate(self):
        centers = np.array([[0.0, 0.0], [3.0, 0.0]])
        target = gaussian_mixture_target(centers, sigma=0.1)
        kameleon = KameleonConfig(gamma=0.05, nu=0.0, subsample_size=10)
        darting = DartingConfig(p_check=0.0, epsilon=0.7)
        regions = [build_jump_region(c, np.eye(2), 0.7) for c in centers]
        history = run_combined_chain(
            target, centers[0], 60, kameleon, darting, regions, ChainHistory(),
            np.random.default_rng(0),
        )
        assert all(move in ("jump", "recount") for move in history.moves)

    def test_tallies_skip_unlabeled_outcomes(self):
        centers = np.array([[0.0, 0.0], [3.0, 0.0]])
        target = gaussian_mixture_target(centers, sigma=0.1)
        kameleon = KameleonConfig(gamma=0.05, nu=0.0, subsample_size=10, burn_in=10)
        darting = DartingConfig(p_check=0.6, epsilon=0.7)
        regions = [build_jump_region(c, np.eye(2), 0.7) for c in centers]
        history = ChainHistory()
        run_combined_chain(
            target, centers[0], 100, kameleon, darting, regions, history,
            np.random.default_rng(1),
        )
        assert tally_outcomes(history).total == 0
        assert len(history.proposals) == 100


class TestTallies:
    def test_fields_are_the_outcome_kinds_in_code_order(self):
        # tally_outcomes bincounts the outcome codes into Tally's fields
        assert Tally._fields == OUTCOME_KINDS

    def test_empty_history_all_zero(self):
        assert tally_outcomes(ChainHistory()) == (0, 0, 0, 0)

    def test_pure_miss_degenerate_run(self):
        # start far outside the workspace, tiny symmetric proposals: every
        # evaluation is a Miss and nothing is ever accepted
        obj = get_object("plate")
        target = make_target(obj, GRIPPER)
        far = np.array([2.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        kameleon = KameleonConfig(gamma=1e-4, nu=0.0, subsample_size=10)
        darting = DartingConfig(p_check=1.0, epsilon=0.7)
        history = run_combined_chain(
            target, far, 50, kameleon, darting, [], ChainHistory(),
            np.random.default_rng(0),
        )
        tally = tally_outcomes(history)
        assert tally == (0, 0, 0, 50)
        assert not any(history.accepted)


class TestTransfer:
    def make_source(self, seed=0):
        demos = plate_demos(seed)
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 220, demos[0], 0.10, 50.0,
            np.random.default_rng((seed, 1)),
        )
        return active_learn(
            get_object("plate"), GRIPPER, sketch, demos, KAMELEON, DARTING, 120,
            np.random.default_rng((seed, 2)),
        )

    def test_similar_modes_keep_source_modes(self):
        source = self.make_source()
        model = transfer_learn(
            get_object("soup_plate"), GRIPPER, source, None,
            KAMELEON, DARTING, 80, np.random.default_rng(3),
        )
        assert len(model.regions) == len(source.modes)
        for a, b in zip(model.modes, source.modes):
            np.testing.assert_array_equal(a.to_vector(), b.to_vector())
        assert tally_outcomes(model).total == KAMELEON.burn_in + 80

    def test_actual_modes_required(self):
        source = self.make_source()
        with pytest.raises(InvalidDemonstration):
            transfer_learn(
                get_object("soup_plate"), GRIPPER, source, [],
                KAMELEON, DARTING, 40, np.random.default_rng(0),
            )

    def test_empty_mode_list_rejected_before_any_evaluation(self, monkeypatch):
        modeless = dataclasses.replace(self.make_source(), modes=[])

        def no_target(*args, **kwargs):
            raise AssertionError("the transfer built its target")

        monkeypatch.setattr(learning, "make_target", no_target)
        for modes in ([], None):
            with pytest.raises(InvalidDemonstration):
                transfer_learn(
                    get_object("soup_plate"), GRIPPER, modeless, modes,
                    KAMELEON, DARTING, 40, np.random.default_rng(0),
                )

    def test_empty_source_chain_rejected_before_any_evaluation(self, monkeypatch):
        region = build_jump_region(np.zeros(7), np.eye(7), 0.7)
        mode = Grasp(np.array([0.085, 0.0, 0.02]), np.array([1.0, 0.0, 0.0, 0.0]))
        empty = LearnedModel("plate", ChainHistory(), [mode], [region])

        def no_target(*args, **kwargs):
            raise AssertionError("the transfer built its target")

        monkeypatch.setattr(learning, "make_target", no_target)
        for modes in ([mode], None):
            with pytest.raises(EmptyHistory, match="empty chain"):
                transfer_learn(
                    get_object("soup_plate"), GRIPPER, empty, modes,
                    KAMELEON, DARTING, 40, np.random.default_rng(0),
                )

    def test_given_modes_replace_the_source_modes(self):
        source = self.make_source()
        fresh = plate_demos(1, count=2)
        model = transfer_learn(
            get_object("plate"), GRIPPER, source, fresh, KAMELEON, DARTING, 40,
            np.random.default_rng(5),
        )
        assert [m.to_vector().tolist() for m in model.modes] == [
            m.to_vector().tolist() for m in fresh
        ]
        assert len(model.regions) == 2

    def test_accepted_transfer_states_have_positive_density(self):
        source = self.make_source()
        novel = get_object("soup_plate")
        model = transfer_learn(
            novel, GRIPPER, source, None, KAMELEON, DARTING, 120,
            np.random.default_rng(4),
        )
        target = make_target(novel, GRIPPER)
        chain = model.chain
        taken = chain.accepted
        for proposal, density in zip(chain.proposals[taken], chain.proposal_densities[taken]):
            assert density > 0.0
            assert target(proposal).density > 0.0

    def test_zero_density_modes_complete_without_error(self):
        demos = [
            d
            for d, _ in demonstrate_grasps(
                get_object("pitcher"), GRIPPER, 5, np.random.default_rng(10)
            )
        ]
        sketch = build_rough_sketch(
            get_object("pitcher"), GRIPPER, 220, demos[0], 0.10, 50.0, np.random.default_rng(11)
        )
        source = active_learn(
            get_object("pitcher"), GRIPPER, sketch, demos, KAMELEON, DARTING, 120,
            np.random.default_rng(12),
        )
        model = transfer_learn(
            get_object("tall_pitcher"), GRIPPER, source, None,
            KAMELEON, DARTING, 120, np.random.default_rng(13),
        )
        tally = tally_outcomes(model)
        assert tally.total == KAMELEON.burn_in + 120


class TestSerialization:
    def test_model_round_trip_lossless(self):
        demos = plate_demos()
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 120, demos[0], 0.10, 50.0, np.random.default_rng(0)
        )
        model = active_learn(
            get_object("plate"), GRIPPER, sketch, demos, KAMELEON, DARTING, 60,
            np.random.default_rng(1),
        )
        model.config = {"experiment": "active-biased-init", "seed": 1}
        rng = np.random.default_rng(5)
        model.modes.append(Grasp(rng.standard_normal(3), rng.standard_normal(4)))
        model.mode_densities.append(0.0)
        clone = model_from_document(model_to_document(model))
        assert clone.object_name == model.object_name
        assert clone.config == model.config
        np.testing.assert_array_equal(
            np.asarray(clone.chain.states), np.asarray(model.chain.states)
        )
        np.testing.assert_array_equal(
            np.asarray([m.to_vector() for m in clone.modes]),
            np.asarray([m.to_vector() for m in model.modes]),
        )
        for ra, rb in zip(clone.regions, model.regions):
            np.testing.assert_array_equal(ra.center, rb.center)
            np.testing.assert_array_equal(ra.rotation, rb.rotation)
            np.testing.assert_array_equal(ra.scales, rb.scales)
            assert ra.volume == rb.volume
        assert clone.mode_densities == model.mode_densities
        for column in ("proposals", "proposal_densities", "accepted", "outcomes", "moves"):
            np.testing.assert_array_equal(getattr(clone.chain, column), getattr(model.chain, column))

    def test_mode_with_an_overflowing_quaternion_reads_as_its_direction(self):
        region = build_jump_region(np.zeros(7), np.eye(7), 0.7)
        model = LearnedModel("plate", ChainHistory(), [Grasp(np.zeros(3), [1, 0, 0, 0])], [region])
        model.mode_densities = [0.0]
        doc = json.loads(model_to_document(model))
        doc["modes"][0] = [0, 0, 0, 1e200, 1e199, 0, 0]
        with pytest.warns(RuntimeWarning, match="overflow"):
            (mode,) = model_from_document(json.dumps(doc)).modes
        expected = np.array([1.0, 0.1, 0.0, 0.0]) / np.sqrt(1.01)
        np.testing.assert_allclose(mode.orientation, expected, rtol=1e-15)
        assert abs(float(mode.orientation @ mode.orientation) - 1.0) < 1e-15

    def test_square_root_regions_rejected(self):
        region = build_jump_region(np.zeros(7), np.eye(7), 0.7)
        doc = json.loads(model_to_document(LearnedModel("plate", ChainHistory(), [], [region])))
        assert doc["regions"][0]["sqrt_scales"] is False
        doc["regions"][0]["sqrt_scales"] = True
        with pytest.raises(GraspMCError):
            model_from_document(json.dumps(doc))

    def test_sketch_round_trip(self):
        demos = plate_demos(count=1)
        sketch = build_rough_sketch(
            get_object("plate"), GRIPPER, 50, demos[0], 0.10, 50.0, np.random.default_rng(0)
        )
        doc = json.loads(sketch_to_document(sketch))
        assert doc["schema"] == "graspmc.sketch/1"
        states = rows([r["state"] for r in doc["proposals"]])
        np.testing.assert_array_equal(states, sketch.proposals)
        assert doc["source_object"] == sketch.source_object


@st.composite
def proposal_columns(draw, dim, sizes=st.integers(0, 5)):
    """States, densities, accepted flags and outcome codes of n proposals."""
    n = draw(sizes)
    reals = st.floats(-1e3, 1e3, allow_nan=False)
    return (
        rows([draw(st.lists(reals, min_size=dim, max_size=dim)) for _ in range(n)]),
        np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)), dtype=float),
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        np.array(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)), dtype=np.int8),
    )


@st.composite
def histories(draw):
    dim = draw(st.integers(1, 7))
    seed_states, seed_densities, _, _ = draw(proposal_columns(dim))
    states, densities, _, _ = draw(proposal_columns(dim))
    steps = len(states)
    step_columns = draw(proposal_columns(dim, st.just(steps)))
    move = st.sampled_from(MOVES)
    moves = draw(st.lists(move, min_size=steps, max_size=steps))
    return ChainHistory(
        draw(st.booleans()), seed_states, seed_densities, *draw(proposal_columns(dim)),
        states, densities, *step_columns, np.array(moves, dtype=MOVE_DTYPE),
    )


class TestDocumentRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(history=histories())
    def test_history_columns_and_text_come_back(self, history):
        text = json.dumps(history_to_dict(history))
        back = history_from_dict(json.loads(text))
        assert back.proposal_sourced == history.proposal_sourced
        for column in dataclasses.fields(ChainHistory)[1:]:
            ours, theirs = getattr(history, column.name), getattr(back, column.name)
            assert theirs.dtype == ours.dtype and np.array_equal(theirs, ours), column.name
        assert json.dumps(history_to_dict(back)) == text

    @settings(max_examples=40, deadline=None)
    @given(
        columns=st.integers(1, 7).flatmap(lambda dim: proposal_columns(dim, st.integers(1, 5))),
        sigma=st.floats(0.0, 1.0) | st.just(float("nan")),
    )
    def test_sketch_columns_and_text_come_back(self, columns, sigma):
        sketch = RoughSketch(*columns, "plate", sigma, 50.0)
        text = sketch_to_document(sketch)
        doc = json.loads(text)
        records = doc["proposals"]
        read_back = (
            rows([r["state"] for r in records]),
            np.array([r["density"] for r in records], dtype=float),
            np.array([r["accepted"] for r in records], dtype=bool),
            np.array([OUTCOME_CODES[r["outcome"]] for r in records], dtype=np.int8),
        )
        for ours, theirs in zip(columns, read_back):
            assert theirs.dtype == ours.dtype and np.array_equal(theirs, ours)
        back = RoughSketch(*read_back, doc["source_object"], doc["position_sigma"], doc["kappa"])
        assert sketch_to_document(back) == text
