"""Active and transfer learning loops combining the two samplers.

Active learning: a random-walk sketch of the target shapes the adaptive
proposal, demonstrated grasps become jump-region centers, and each
iteration either takes a local kernel-adaptive step or attempts a darting
jump. Transfer learning reruns the same loop on a novel object, reusing a
previously learned chain as adaptation history and either the source
object's modes or fresh demonstrations as region centers; no new sketch is
built.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import quaternions as quat
from .darting import DartingConfig, JumpRegion, build_jump_region, symmetric_acceptance
from .errors import EmptyHistory, InvalidConfig, InvalidDemonstration
from .grasping import Grasp, _outcomes, canonicalize_grasp_vector, make_target, workspace_bounds
from .gripper import GripperModel
from .history import ChainHistory, rows
from .kameleon import KameleonConfig, LocalStep, _run_chain
from .objects import ObjectModel
from .targets import TargetFn
from .vmf import VonMisesFisher, draw_vmf, orient_vmf

class Tally(NamedTuple):
    success: int
    slipped: int
    collision: int
    miss: int

    @property
    def total(self) -> int:
        return sum(self)


@dataclass
class RoughSketch:
    """Proposal rows: states, densities, decisions and outcome codes."""

    proposals: np.ndarray
    densities: np.ndarray
    accepted: np.ndarray
    outcomes: np.ndarray
    source_object: str
    position_sigma: float
    kappa: float

    def __post_init__(self) -> None:
        if not len(self.proposals):
            raise ValueError("a rough sketch must contain at least one proposal")


def _state_covariance(states: np.ndarray) -> np.ndarray:
    """Symmetrized sample covariance of the states; zero for a single state."""
    stacked = np.asarray(states)
    cov = np.cov(stacked.T) if len(stacked) > 1 else np.zeros((stacked.shape[1],) * 2)
    return 0.5 * (cov + cov.T)


@dataclass
class LearnedModel:
    object_name: str
    chain: ChainHistory
    modes: list[Grasp]
    regions: list[JumpRegion]
    config: dict = field(default_factory=dict)
    mode_densities: list[float] | None = None

    def mode_qualities(self) -> list[float]:
        """Mode target densities on this model's object (0.0 if unknown)."""
        if self.mode_densities is None:
            return [0.0] * len(self.modes)
        return list(self.mode_densities)

    def chain_states(self) -> np.ndarray:
        """The chain's seed states, then its step states; EmptyHistory when
        there are none, so a transfer from it can be refused up front."""
        states = rows([*self.chain.seed_states, *self.chain.states])
        if not len(states):
            raise EmptyHistory(f"the {self.object_name} source model has an empty chain")
        return states


def tally_outcomes(model: "LearnedModel | ChainHistory") -> Tally:
    """Outcome counts over every evaluated proposal, burn-in included."""
    codes = (model.chain if isinstance(model, LearnedModel) else model).outcomes
    return Tally(*np.bincount(codes[codes >= 0], minlength=len(Tally._fields)).tolist())


SKETCH_PREFETCH = 64  # most walk iterations proposed and evaluated together


def build_rough_sketch(
    obj: ObjectModel,
    gripper: GripperModel,
    iterations: int,
    start: Grasp,
    position_sigma: float,
    kappa: float,
    rng: np.random.Generator,
    *,
    history: ChainHistory | None = None,
) -> RoughSketch:
    """Random-walk MH trace: Gaussian position step, vMF orientation step.

    Every proposal is recorded regardless of acceptance; the proposals, not
    the chain, are the sketch. The walk is recorded in `history` (a fresh
    proposal-sourced one unless given, as the random-walk baseline
    experiment does to tally it), and the sketch's proposals are that
    history's proposal rows. Raises InvalidConfig on a negative or
    non-finite `position_sigma` or `kappa` before drawing anything.

    The walk prefetches its rejection branch (Brockwell, J. Comput. Graph.
    Stat. 2006). An iteration draws a Gaussian step, a vMF draw and one
    uniform, in that order, whatever the target says, so the walk keeps the
    draws of its next iterations in a buffer, made once and in stream
    order. While proposals are rejected the state stays, so from the
    current state it builds the proposals of the next iterations along the
    all-reject path, evaluates them in one `_outcomes` call and decides one
    per call of `walk`. An acceptance drops the proposals not yet decided
    but keeps their draws for the iterations they belong to. A batch is as
    long as the current run of rejections (at least 1), at most
    SKETCH_PREFETCH and the iterations left, so a walk that accepts often
    evaluates one proposal at a time and no draw is made past the last
    iteration. Each proposal, decision and the generator state are those
    of the walk that evaluates one proposal per iteration.
    """
    for name, value in (("position_sigma", position_sigma), ("kappa", kappa)):
        if not 0.0 <= value < math.inf:
            raise InvalidConfig(f"{name} must be finite and nonnegative, not {value!r}")
    target = make_target(obj, gripper)
    drawn: deque = deque()  # the draws of the next iterations, in stream order
    pending: deque = deque()  # the evaluated proposals of the first of them
    rejections, left = 0, iterations

    def walk(current: np.ndarray, density: float) -> LocalStep:
        nonlocal rejections, left
        if not pending:
            size = min(max(rejections, 1), SKETCH_PREFETCH, left)
            drawn.extend(
                (rng.standard_normal(3), draw_vmf(kappa, 4, rng), rng.random())
                for _ in range(size - len(drawn))
            )
            mean = VonMisesFisher(current[3:], kappa)
            proposals = np.empty((size, current.size))
            for proposal, (step, vmf_draw, _) in zip(proposals, drawn):
                proposal[:3] = current[:3] + position_sigma * step
                proposal[3:] = quat.canonicalize(orient_vmf(mean, vmf_draw))
            outcomes = _outcomes(proposals[:, :3], proposals[:, 3:], obj, gripper)
            pending.extend(zip(proposals, outcomes))
        proposal, outcome = pending.popleft()
        accepted = drawn.popleft()[2] < symmetric_acceptance(outcome.quality, density)
        if accepted:
            pending.clear()
        rejections = 0 if accepted else rejections + 1
        left -= 1
        return LocalStep(proposal, outcome.quality, outcome.kind, accepted)

    current = start.to_vector()
    value = target(current)
    if value.density <= 0.0:
        raise InvalidDemonstration("sketch start state has zero density")
    history = history if history is not None else ChainHistory(proposal_sourced=True)
    _run_chain(target, current, value, iterations, history, rng, walk=walk)
    return RoughSketch(
        history.proposals, history.proposal_densities, history.accepted, history.outcomes,
        obj.name, position_sigma, kappa,
    )


def random_sketch(
    obj: ObjectModel,
    gripper: GripperModel,
    size: int,
    rng: np.random.Generator,
) -> RoughSketch:
    """Uniform poses over the workspace box: a sketch with no target signal.

    Densities are stored as zero without evaluating the target; nothing in
    the pipeline reads sketch densities, and evaluating them would silently
    double the experiment's evaluation budget.
    """
    lo, hi = workspace_bounds(obj, gripper)
    states = [np.concatenate([rng.uniform(lo, hi), quat.random_uniform(rng)]) for _ in range(size)]
    return RoughSketch(
        rows(states), np.zeros(size), np.zeros(size, bool), np.full(size, -1, np.int8),
        obj.name, float("nan"), float("nan"),
    )


def run_combined_chain(
    target: TargetFn,
    initial_state: np.ndarray,
    iterations: int,
    kameleon_config: KameleonConfig,
    darting_config: DartingConfig,
    regions: list[JumpRegion],
    history: ChainHistory,
    rng: np.random.Generator,
    *,
    postprocess: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ChainHistory:
    """The per-iteration gate: local Kameleon step or darting jump attempt.

    u1 < p_check takes the local step (so p_check = 0.6 means a 40% jump
    attempt rate). Darting iterations whose state is outside every region
    re-count the current state's outcome. The initial state's evaluation
    is not tallied, so the recorded proposals number exactly `iterations`.
    """
    current = np.asarray(initial_state, dtype=float)
    return _run_chain(
        target, current, target(current), iterations, history, rng,
        kameleon=kameleon_config, darting=darting_config, regions=regions, postprocess=postprocess,
    )


def _learn(
    obj: ObjectModel,
    target: TargetFn,
    modes: list[Grasp],
    mode_densities: list[float],
    covariance: np.ndarray,
    history: ChainHistory,
    kameleon_config: KameleonConfig,
    darting_config: DartingConfig,
    iterations: int,
    rng: np.random.Generator,
) -> LearnedModel:
    """The tail both learners share: regions on the modes from one
    covariance, a uniformly chosen mode as the start, and burn_in +
    iterations combined steps."""
    regions = [
        build_jump_region(mode.to_vector(), covariance, darting_config.epsilon) for mode in modes
    ]
    initial = modes[int(rng.integers(len(modes)))].to_vector()
    run_combined_chain(
        target, initial, kameleon_config.burn_in + iterations, kameleon_config, darting_config,
        regions, history, rng, postprocess=canonicalize_grasp_vector,
    )
    return LearnedModel(obj.name, history, list(modes), regions, mode_densities=mode_densities)


def active_learn(
    obj: ObjectModel,
    gripper: GripperModel,
    sketch: RoughSketch,
    demonstrations: list[Grasp],
    kameleon_config: KameleonConfig,
    darting_config: DartingConfig,
    iterations: int,
    rng: np.random.Generator,
) -> LearnedModel:
    """Sketch-initialized combined run with demonstrations as jump modes.

    Runs burn_in + iterations total steps. Demonstrations must have
    positive density on the object; they seed the chain history as
    accepted states, and one of them (uniformly chosen) starts the chain.
    """
    if not demonstrations:
        raise InvalidDemonstration("at least one demonstrated grasp is required")
    target = make_target(obj, gripper)
    mode_densities = [float(target(demo.to_vector()).density) for demo in demonstrations]
    if min(mode_densities) <= 0.0:
        raise InvalidDemonstration(f"demonstration has zero density on {obj.name}")

    history = ChainHistory(
        proposal_sourced=True,
        seed_proposals=sketch.proposals,
        seed_proposal_densities=sketch.densities,
        seed_accepted=sketch.accepted,
        seed_outcomes=sketch.outcomes,
    )
    history.seed_state(rows([demo.to_vector() for demo in demonstrations]), mode_densities)
    return _learn(
        obj, target, demonstrations, mode_densities, _state_covariance(sketch.proposals), history,
        kameleon_config, darting_config, iterations, rng,
    )


def transfer_learn(
    novel_obj: ObjectModel,
    gripper: GripperModel,
    source: LearnedModel,
    modes: list[Grasp] | None,
    kameleon_config: KameleonConfig,
    darting_config: DartingConfig,
    iterations: int,
    rng: np.random.Generator,
) -> LearnedModel:
    """Rerun the combined loop on a novel object, reusing the source chain.

    The reused chain states are the adaptation history (no sketch is
    built); jump regions are centered on `modes` (None: the source's modes)
    using the source chain covariance. Modes with zero density on the novel
    object are retained as region centers, and the chain may start on one:
    the zero-density acceptance rule lets it recover, or the run completes
    with no successes, both valid outcomes. A source chain with no state
    raises EmptyHistory before any evaluation.
    """
    modes = list(source.modes if modes is None else modes)
    if not modes:
        raise InvalidDemonstration("transfer needs at least one mode")

    chain, source_states = source.chain, source.chain_states()
    history = ChainHistory(proposal_sourced=False)
    history.seed_state(source_states, np.concatenate([chain.seed_densities, chain.densities]))

    target = make_target(novel_obj, gripper)
    mode_densities = [float(target(mode.to_vector()).density) for mode in modes]
    return _learn(
        novel_obj, target, modes, mode_densities, _state_covariance(source_states), history,
        kameleon_config, darting_config, iterations, rng,
    )
