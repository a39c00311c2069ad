"""The benchmark's three workloads, driven through graspmc's public API.

A workload builds its inputs from the seed in its constructor (set-up) and
makes one untimed `warm_up()` pass. `run_round()` then runs a fixed list of
units (one experiment run, one chain, or one object's pose batch). Each
unit is timed alone; right after its timer stops, the unit's output is
checked and reduced to a small summary, so outputs are not kept alive
across the run. `check_rounds(units)` adds the checks that compare units
with each other; `global_failures()` lists failed checks that belong to no
single unit.

graspmc functions are called through this module's globals, so that the
tracer can patch them here as well as in graspmc's own modules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from graspmc import quaternions as quat
from graspmc.darting import DartingConfig, build_jump_region, jump_transform
from graspmc.experiments import (
    ACTIVE_BIASED_INIT,
    ACTIVE_RANDOM_INIT,
    RANDOM_WALK_BASELINE,
    TRANSFER_ACTUAL_MODES,
    TRANSFER_SIMILAR_MODES,
    ExperimentConfig,
    run_experiment,
)
from graspmc.grasping import SUCCESS, Grasp, evaluate_grasp, workspace_bounds
from graspmc.gripper import default_gripper, probe_points
from graspmc.history import ChainHistory
from graspmc.kameleon import KameleonConfig
from graspmc.learning import run_combined_chain
from graspmc.objects import object_catalog
from graspmc.serialization import model_from_document, model_to_document
from graspmc.targets import gaussian_mixture_target


@dataclass
class Unit:
    """One timed operation: its time, its budgeted evaluations, the summary
    its output was reduced to, and what went wrong with it."""

    name: str
    seconds: float = 0.0
    evaluations: int = 0
    summary: object = None
    error: str | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


def seed_sequence(seed: int, workload: str) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, sum(workload.encode())])


class Workload:
    name: str

    def __init__(self) -> None:
        # runs a unit's work; the traced run replaces it with a root span
        self.call: Callable = lambda work: work()

    def unit(self, name: str, work: Callable, evaluations: Callable, digest: Callable) -> Unit:
        """Time work(); then count its evaluations and digest its output
        into (summary, failures), untimed. Exceptions fail the unit."""
        unit = Unit(name)
        start = time.perf_counter()
        try:
            output = self.call(work)
        except Exception as exc:  # a failed operation is counted, not fatal
            unit.seconds = time.perf_counter() - start
            unit.error = f"{type(exc).__name__}: {exc}"
            return unit
        unit.seconds = time.perf_counter() - start
        try:
            unit.evaluations = evaluations(output)
            unit.summary, unit.failures = digest(output)
        except Exception as exc:
            unit.error = f"checking the output raised {type(exc).__name__}: {exc}"
        return unit

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self) -> list[Unit]:
        raise NotImplementedError

    def check_rounds(self, units: list[Unit]) -> None:
        """Checks across units; each failure is added to the unit it concerns."""

    def global_failures(self) -> list[str]:
        return []

    def instrument(self, tracer) -> None:
        """Wrap callables the workload built before tracing was installed."""

    def probe(self) -> None:
        """Representative work, run traced and untraced to measure what
        tracing costs."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# sweep: a slice of the acceptance sweep at the published settings


SOURCE_PRESETS = (RANDOM_WALK_BASELINE, ACTIVE_RANDOM_INIT, ACTIVE_BIASED_INIT)
TRANSFER_PRESETS = (TRANSFER_SIMILAR_MODES, TRANSFER_ACTUAL_MODES)
TRANSFER_PAIRS = (("pitcher", "tall_pitcher"), ("pan", "small_pan"), ("plate", "soup_plate"))
LEARNING_PRESETS = (ACTIVE_RANDOM_INIT, ACTIVE_BIASED_INIT, TRANSFER_ACTUAL_MODES)
EXPERIMENT_SEED = 0  # the first seed of the acceptance sweep


def _budget(output) -> int:
    record = output[0]
    return record.total + record.sketch_evaluations


class Sweep(Workload):
    """All five presets on pitcher, pan and plate: the three source presets
    on the object and both transfer presets on its partner, the source model
    passed through its JSON document as the CLI passes it.

    Every run uses acceptance seed EXPERIMENT_SEED, whatever the run seed:
    the length of the demonstration search, and with it a round's time,
    swings about twofold between experiment seeds."""

    name = "sweep"

    def __init__(self, seed: int):
        super().__init__()
        self.experiment_seed = EXPERIMENT_SEED
        self.gripper = default_gripper()
        probe_points(self.gripper)
        self.catalog = {obj.name: obj for obj in object_catalog()}
        self.configs = {
            (preset, obj): ExperimentConfig(preset, obj, self.experiment_seed, keep_trace=False)
            for source, partner in TRANSFER_PAIRS
            for preset, obj in [(p, source) for p in SOURCE_PRESETS]
            + [(p, partner) for p in TRANSFER_PRESETS]
        }
        self.warm_tallies = None

    def warm_up(self) -> None:
        record, _ = run_experiment(self.configs[(RANDOM_WALK_BASELINE, TRANSFER_PAIRS[0][0])])
        self.warm_tallies = record.tallies

    def probe(self) -> None:
        run_experiment(self.configs[(RANDOM_WALK_BASELINE, TRANSFER_PAIRS[0][0])], gripper=self.gripper)

    def run_round(self) -> list[Unit]:
        units = []
        for source, partner in TRANSFER_PAIRS:
            document = {}
            for preset in SOURCE_PRESETS:
                config = self.configs[(preset, source)]

                def learn(config=config):
                    record, model = run_experiment(config, gripper=self.gripper)
                    if config.experiment == ACTIVE_BIASED_INIT:
                        document["text"] = model_to_document(model)
                    return record, model

                units.append(self.unit(f"{preset}/{source}", learn, _budget, self.digest(config)))
            for preset in TRANSFER_PRESETS:
                config = self.configs[(preset, partner)]

                def transfer(config=config):
                    source_model = model_from_document(document["text"])
                    return run_experiment(config, gripper=self.gripper, source=source_model)

                units.append(self.unit(f"{preset}/{partner}", transfer, _budget, self.digest(config)))
        return units

    def digest(self, config: ExperimentConfig) -> Callable:
        def checked(output):
            record, model = output
            failures = check_record(record, config)
            if model is not None:
                obj = self.catalog[config.object_name]
                failures += check_modes(model, obj, self.gripper, config.experiment in LEARNING_PRESETS)
            if config.experiment == ACTIVE_BIASED_INIT:
                failures += check_round_trip(model, model_from_document(model_to_document(model)))
            return record.tallies, failures

        return checked

    def check_rounds(self, units: list[Unit]) -> None:
        by_name: dict[str, list[Unit]] = {}
        for unit in units:
            if unit.error is None:
                by_name.setdefault(unit.name, []).append(unit)
        for name, repeats in by_name.items():
            for unit in repeats[1:]:
                unit.failures += check_same_tallies(unit.summary, repeats[0].summary, "the first round")
        for unit in by_name.get(f"{RANDOM_WALK_BASELINE}/{TRANSFER_PAIRS[0][0]}", []):
            unit.failures += check_same_tallies(unit.summary, self.warm_tallies, "the warm-up")
        for source, _ in TRANSFER_PAIRS:
            baselines = by_name.get(f"{RANDOM_WALK_BASELINE}/{source}", [])
            for preset in (ACTIVE_RANDOM_INIT, ACTIVE_BIASED_INIT):
                for baseline, active in zip(baselines, by_name.get(f"{preset}/{source}", [])):
                    active.failures += check_beats_baseline(active.summary, baseline.summary)


def check_record(record, config: ExperimentConfig) -> list[str]:
    """The budget: burn_in + iterations tallied evaluations, plus a sketch
    of the same size for active-biased-init."""
    failures = []
    budget = config.burn_in + config.iterations
    if record.total != budget:
        failures.append(f"tally total {record.total} != burn_in + iterations = {budget}")
    if config.experiment == ACTIVE_BIASED_INIT and record.sketch_evaluations != budget:
        failures.append(f"sketch_evaluations {record.sketch_evaluations} != {budget}")
    return failures


def check_same_tallies(tallies, reference, what: str) -> list[str]:
    return [] if tallies == reference else [f"tallies {tallies} differ from {what}'s {reference}"]


def check_beats_baseline(active, baseline) -> list[str]:
    """Acceptance criterion 7 for one seed: an active preset finds more
    successes than the random-walk baseline on the same object."""
    if active.success > baseline.success:
        return []
    return [f"{active.success} successes do not beat the baseline's {baseline.success}"]


def check_modes(model, obj, gripper, demonstrated: bool) -> list[str]:
    """Modes re-evaluated as the target evaluates them: stored density equal,
    and a success wherever the modes were demonstrated on this object."""
    failures = []
    for mode, density in zip(model.modes, model.mode_qualities()):
        outcome = evaluate_grasp(Grasp.from_vector(mode.to_vector()), obj, gripper)
        if outcome.quality != density:
            failures.append(f"mode quality {outcome.quality!r} != stored density {density!r}")
        if demonstrated and outcome.kind != SUCCESS:
            failures.append(f"demonstrated mode evaluates to {outcome.kind}")
    return failures


def check_round_trip(model, back) -> list[str]:
    """`back`, the model read back from its document, equals it bit for bit.

    Mode vectors are left out: reading a mode back canonicalises its
    quaternion again, which is not idempotent in floating point and moves
    the last bits on some seeds."""
    pairs = [
        ("seed states", model.chain.seed_states, back.chain.seed_states),
        ("states", model.chain.states, back.chain.states),
        ("seed densities", model.chain.seed_densities, back.chain.seed_densities),
        ("densities", model.chain.densities, back.chain.densities),
        ("mode densities", model.mode_densities, back.mode_densities),
    ]
    for field_name in ("center", "rotation", "scales", "epsilon", "volume"):
        pairs.append(
            (
                f"region {field_name}",
                [getattr(r, field_name) for r in model.regions],
                [getattr(r, field_name) for r in back.regions],
            )
        )
    return [
        f"{what} differ after the document round trip"
        for what, ours, theirs in pairs
        if len(ours) != len(theirs) or not all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    ]


# --------------------------------------------------------------------------
# synthetic: the combined chain on a cheap 7-D multimodal target


DIM = 7
MODES = 3
SIGMA = 0.1
CHAINS = 4
ITERATIONS = 3000
BURN_IN = 500
SHARE_TOLERANCE = 0.1
KAMELEON = KameleonConfig(gamma=0.05, nu=2.38 / np.sqrt(DIM), subsample_size=100, burn_in=BURN_IN)
DARTING = DartingConfig(p_check=0.6, epsilon=0.7)


class Synthetic(Workload):
    """Four combined chains on an equal-weight Gaussian mixture whose modes
    sit 40 standard deviations apart, so only darting connects them.

    The seed places the whole problem by a random rigid motion and draws
    the chains' generators; mode spacing and region shape are fixed, so
    every seed asks for the same work up to Monte Carlo noise."""

    name = "synthetic"

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed_sequence(seed, self.name))
        rotation, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
        offset = rng.uniform(-1.0, 1.0, DIM)
        spacing = 40 * SIGMA / np.sqrt(2.0)  # centres on orthogonal axes, 40 sigma apart
        self.centers = offset + spacing * rotation[:, :MODES].T
        self.weights = np.full(MODES, 1.0 / MODES)  # gaussian_mixture_target is equal-weight
        self.target = gaussian_mixture_target(self.centers, SIGMA)
        rotation, _ = np.linalg.qr(rng.standard_normal((DIM, DIM)))
        covariance = rotation @ np.diag(np.linspace(0.5, 1.0, DIM)) @ rotation.T
        covariance = 0.5 * (covariance + covariance.T)
        self.regions = [build_jump_region(c, covariance, DARTING.epsilon) for c in self.centers]
        self.chain_seeds = rng.integers(0, 2**63, CHAINS)
        self.global_checks: list[str] = []

    def chain(self, index: int, iterations: int = ITERATIONS) -> ChainHistory:
        history = ChainHistory()
        for center in self.centers:
            history.seed_state(center, self.target(center).density)
        return run_combined_chain(
            self.target,
            self.centers[index % MODES],
            iterations,
            KAMELEON,
            DARTING,
            self.regions,
            history,
            np.random.default_rng(self.chain_seeds[index]),
        )

    def warm_up(self) -> None:
        self.chain(0, iterations=400)
        plain = KameleonConfig(gamma=KAMELEON.gamma, nu=0.0, subsample_size=100, burn_in=BURN_IN)
        self.global_checks = check_random_walk_reduction(self.target, self.centers[0], plain)
        self.global_checks += check_jump_round_trip(self.regions)

    def run_round(self) -> list[Unit]:
        return [
            self.unit(
                f"chain{i}",
                lambda i=i: self.chain(i),
                len,
                lambda history: (None, check_chain(history, self.centers, self.weights)),
            )
            for i in range(CHAINS)
        ]

    def global_failures(self) -> list[str]:
        return self.global_checks

    def instrument(self, tracer) -> None:
        self.target = tracer.wrap(self.target, "target")

    def probe(self) -> None:
        self.chain(0)


def check_chain(history: ChainHistory, centers: np.ndarray, weights: np.ndarray) -> list[str]:
    """One record per iteration, and after burn-in each mode's share of the
    states (nearest centre) within SHARE_TOLERANCE of its mixture weight."""
    failures = []
    if len(history) != ITERATIONS:
        failures.append(f"history length {len(history)} != {ITERATIONS} iterations")
    states = np.asarray(history.states[BURN_IN:])
    nearest = np.argmin(np.linalg.norm(states[:, None, :] - centers[None, :, :], axis=2), axis=1)
    shares = np.bincount(nearest, minlength=len(centers)) / len(states)
    worst = float(np.max(np.abs(shares - weights)))
    if worst > SHARE_TOLERANCE:
        failures.append(f"mode shares {np.round(shares, 3).tolist()} off weights by {worst:.3f}")
    return failures


def random_walk_metropolis(target, x0, steps, gamma, rng) -> np.ndarray:
    """Plain random-walk Metropolis that also draws the combined chain's
    per-iteration gate variable, so its draws line up with a nu = 0 chain."""
    x = np.asarray(x0, dtype=float)
    density = target(x).density
    chain = []
    for _ in range(steps):
        rng.uniform()  # the local-or-jump gate
        proposal = x + gamma * rng.standard_normal(x.size)
        proposal_density = target(proposal).density
        alpha = 0.0 if proposal_density <= 0.0 else min(1.0, proposal_density / density)
        if rng.uniform() < alpha:
            x, density = proposal, proposal_density
        chain.append(x)
    return np.asarray(chain)


def check_random_walk_reduction(
    target, start: np.ndarray, kameleon: KameleonConfig, steps: int = 300
) -> list[str]:
    """With nu = 0 and no regions, the combined chain is random-walk
    Metropolis, draw for draw (acceptance criterion 3's property)."""
    history = run_combined_chain(
        target, start, steps, kameleon, DARTING, [], ChainHistory(), np.random.default_rng(7)
    )
    reference = random_walk_metropolis(target, start, steps, kameleon.gamma, np.random.default_rng(7))
    if not np.array_equal(np.asarray(history.states), reference):
        return ["the nu = 0 chain differs from random-walk Metropolis"]
    return []


def check_jump_round_trip(regions, points: int = 50) -> list[str]:
    """Jumping a -> b -> a returns every point within 1e-9."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for a in regions:
        for b in regions:
            for x in a.center + 0.3 * rng.standard_normal((points, a.dim)):
                back = jump_transform(jump_transform(x, a, b), b, a)
                worst = max(worst, float(np.linalg.norm(back - x)))
    return [f"jump round trip error {worst:.2e} > 1e-9"] if worst > 1e-9 else []


# --------------------------------------------------------------------------
# poses: the evaluation cascade on near-surface poses, in two frames


POSES_PER_OBJECT = 100
POSE_SEED = 20161118  # the pose set is fixed; the run seed moves the frames
# pose classes and their share of a batch
POSE_MIX = (("clear", 0.35), ("tilted", 0.3), ("rolled", 0.12), ("standoff", 0.15), ("far", 0.08))
POINTS, ROLLS = 4, 8  # a clear or tilted grip is the best of POINTS x ROLLS candidates
CLEARANCE_PITCH = 0.015
SHELL = 1e-3
MIN_PER_KIND = 40  # per round, over all nine objects
OUTCOME_KINDS = ("success", "slipped", "collision", "miss_cull", "miss_contact")
# The twelve rotations that map coordinate axes onto coordinate axes with
# exact rotation matrices (quaternion entries in {0, 1} or {-1/2, 1/2}). A
# general rotation is left out: it moves the central-difference stencil of
# the contact normals, which changes quality at contacts on CSG edges.
AXIS_ROTATIONS = [np.eye(4)[i] for i in range(4)] + [
    np.array([0.5, x, y, z]) for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)
]


def perpendicular(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random unit vectors perpendicular to each row of v."""
    u = rng.standard_normal(v.shape)
    u -= v * np.sum(u * v, axis=-1, keepdims=True)
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def frames(closing: np.ndarray, approach: np.ndarray) -> np.ndarray:
    """Rotation matrices (columns closing, approach x closing, approach) of
    gripper frames with unit, mutually perpendicular axes."""
    return np.stack([closing, np.cross(approach, closing), approach], axis=-1)


def surface_pool(obj, gripper, rng: np.random.Generator, count: int):
    """count points on the SDF shell |d| < SHELL, their outward normals, and
    the material depth behind each along the inward normal (up to the jaw
    span), all in a few vectorized SDF calls."""
    points = np.empty((0, 3))
    while len(points) < count:
        batch = rng.uniform(obj.bounds_lo, obj.bounds_hi, (4096, 3))
        points = np.concatenate([points, batch[np.abs(obj.distance(batch)) < SHELL]])
    points = points[:count]
    normals = obj.normal(points)
    ts = np.linspace(2e-4, gripper.jaw_span, 96)
    inside = obj.distance(points[:, None, :] - ts[None, :, None] * normals[:, None, :]) < 0.0
    exits = np.argmin(inside, axis=1)  # first sample back outside the material
    depths = np.where(inside.all(axis=1), gripper.jaw_span, ts[exits])
    return points, normals, depths


def grips(obj, gripper, rng, pool, count: int, tilt: float, points: int, rolls: int):
    """count grips, each on the best of `points` surface points x `rolls`
    rolls: the tool centre on the material's middle (or just outside it
    when it is wider than the jaws), the closing axis the surface normal
    tilted by about `tilt` radians, a random roll about it. Best means the
    gripper body keeps the most clearance from the object on a coarse probe
    lattice. Returns positions (count, 3) and rotation matrices."""
    point, normal, depth = (x.reshape(count, points, *x.shape[1:]) for x in pool)
    offset = np.where(depth < gripper.jaw_span, -0.5 * depth, 1e-3)[..., None]
    position = point + offset * normal + rng.normal(0.0, 0.002, point.shape)
    closing = normal + rng.normal(0.0, tilt, normal.shape)
    closing /= np.linalg.norm(closing, axis=-1, keepdims=True)
    base = perpendicular(closing, rng)
    side = np.cross(closing, base)
    angle = rng.uniform(-np.pi, np.pi, (count, points, rolls, 1))
    approach = np.cos(angle) * base[:, :, None] + np.sin(angle) * side[:, :, None]
    rotation = frames(np.broadcast_to(closing[:, :, None], approach.shape), approach)
    rotation = rotation.reshape(count, points * rolls, 3, 3)
    position = np.repeat(position, rolls, axis=1)
    probes = probe_points(gripper, CLEARANCE_PITCH)
    bodies = np.einsum("pj,gcij->gcpi", probes, rotation) + position[:, :, None, :]
    clearance = obj.distance(bodies.reshape(-1, 3)).reshape(count, points * rolls, -1).min(axis=-1)
    best = np.argmax(clearance, axis=1)
    chosen = np.arange(count)
    return position[chosen, best], rotation[chosen, best]


def pose_set(obj, gripper, rng: np.random.Generator, count: int) -> list[Grasp]:
    """A batch of POSE_MIX poses: clear and tilted grips, randomly rolled
    grips, stand-offs whose jaws close on air, and far poses outside the
    workspace box."""
    sizes = {kind: round(share * count) for kind, share in POSE_MIX}
    candidates = {"clear": POINTS, "tilted": POINTS, "rolled": 1, "standoff": 1, "far": 0}
    pool = surface_pool(obj, gripper, rng, sum(sizes[k] * candidates[k] for k in sizes))
    taken = 0
    poses = []
    for kind, size in sizes.items():
        share = [x[taken:taken + size * candidates[kind]] for x in pool]
        taken += size * candidates[kind]
        if kind == "far":
            lo, hi = workspace_bounds(obj, gripper)
            direction = rng.standard_normal((size, 3))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            reach = 0.5 * float(np.linalg.norm(hi - lo)) + rng.uniform(0.02, 0.1, (size, 1))
            positions = 0.5 * (lo + hi) + reach * direction
            orientations = [quat.random_uniform(rng) for _ in range(size)]
        else:
            if kind == "standoff":
                point, normal, _ = share
                positions = point + rng.uniform(0.045, 0.07, (size, 1)) * normal
                rotations = frames(normal, perpendicular(normal, rng))
            else:
                tilt = 0.6 if kind == "tilted" else 0.1
                rolls = 1 if kind == "rolled" else ROLLS
                positions, rotations = grips(obj, gripper, rng, share, size, tilt, candidates[kind], rolls)
            orientations = [quat.from_rotation_matrix(m) for m in rotations]
        poses += [Grasp(p, q) for p, q in zip(positions, orientations)]
    return poses


def outcome_kind(outcome, grasp, obj, gripper) -> str:
    """The outcome's kind, with a miss split by whether the workspace cull
    rejected the pose or the jaws closed on nothing."""
    if outcome.kind != "miss":
        return outcome.kind
    lo, hi = workspace_bounds(obj, gripper)
    return "miss_cull" if np.any(grasp.position < lo) or np.any(grasp.position > hi) else "miss_contact"


class Poses(Workload):
    """Every catalog object with a fixed near-surface pose batch, each pose
    evaluated on the object and again on a copy rigidly moved by the seed."""

    name = "poses"

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed_sequence(seed, self.name))
        poses_rng = np.random.default_rng(POSE_SEED)
        self.gripper = default_gripper()
        probe_points(self.gripper)
        self.batches = []
        for obj in object_catalog():
            rotation = AXIS_ROTATIONS[int(rng.integers(len(AXIS_ROTATIONS)))]
            translation = rng.uniform(-0.3, 0.3, 3)
            moved = obj.transformed(rotation, translation)
            matrix = quat.rotation_matrix(rotation)
            poses = pose_set(obj, self.gripper, poses_rng, POSES_PER_OBJECT)
            moved_poses = [
                Grasp(matrix @ g.position + translation, quat.multiply(rotation, g.orientation))
                for g in poses
            ]
            self.batches.append((obj, moved, poses, moved_poses))
        self.reference: dict[str, list] = {}

    def evaluate_batch(self, index: int) -> tuple[list, list]:
        obj, moved, poses, moved_poses = self.batches[index]
        canonical = [evaluate_grasp(g, obj, self.gripper) for g in poses]
        in_moved = [evaluate_grasp(g, moved, self.gripper) for g in moved_poses]
        return canonical, in_moved

    def warm_up(self) -> None:
        for index, (obj, *_rest) in enumerate(self.batches):
            self.reference[obj.name] = self.evaluate_batch(index)[0]

    def probe(self) -> None:
        for index in range(len(self.batches)):
            self.evaluate_batch(index)

    def run_round(self) -> list[Unit]:
        units = []
        for index, (obj, moved, poses, _) in enumerate(self.batches):

            def digest(output, obj=obj, moved=moved, poses=poses):
                canonical, in_moved = output
                counts = dict.fromkeys(OUTCOME_KINDS, 0)
                for outcome, grasp in zip(canonical, poses):
                    counts[outcome_kind(outcome, grasp, obj, self.gripper)] += 1
                failures = check_outcomes(canonical, in_moved, self.reference[obj.name])
                return counts, failures + check_lipschitz(obj) + check_lipschitz(moved)

            units.append(
                self.unit(
                    obj.name,
                    lambda i=index: self.evaluate_batch(i),
                    lambda out: len(out[0]) + len(out[1]),
                    digest,
                )
            )
        return units

    def check_rounds(self, units: list[Unit]) -> None:
        per_round = len(self.batches)
        for first in range(0, len(units), per_round):
            round_units = units[first:first + per_round]
            counts = dict.fromkeys(OUTCOME_KINDS, 0)
            for unit in round_units:
                for kind, n in (unit.summary or {}).items():
                    counts[kind] += n
            failures = check_kinds(counts)
            for unit in round_units:
                unit.failures += failures


def check_kinds(counts: dict[str, int]) -> list[str]:
    return [
        f"{kind} occurred {counts.get(kind, 0)} times in a round, fewer than {MIN_PER_KIND}"
        for kind in OUTCOME_KINDS
        if counts.get(kind, 0) < MIN_PER_KIND
    ]


def check_outcomes(canonical, in_moved, reference) -> list[str]:
    """Per pose: the same kind and quality (within 1e-6) in the moved frame,
    the same outcome as the warm-up pass, and quality > 0 iff success."""
    failures = []
    for first, moved, again in zip(canonical, in_moved, reference):
        if moved.kind != first.kind or abs(moved.quality - first.quality) > 1e-6:
            failures.append(f"moved frame gives {moved}, canonical {first}")
        if again != first:
            failures.append(f"same pose gave {again}, then {first}")
        if (first.quality > 0.0) != (first.kind == SUCCESS):
            failures.append(f"quality {first.quality} with outcome {first.kind}")
    return failures


def check_lipschitz(obj, pairs: int = 2000, seed: int = 5) -> list[str]:
    """|d(a) - d(b)| <= |a - b| on point pairs at scales from 0.1 mm to 10 cm."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(obj.bounds_lo - 0.05, obj.bounds_hi + 0.05, (pairs, 3))
    steps = rng.standard_normal((pairs, 3)) * 10.0 ** rng.uniform(-4, -1, (pairs, 1))
    gap = np.abs(obj.distance(a) - obj.distance(a + steps)) - np.linalg.norm(steps, axis=1)
    worst = float(np.max(gap))
    return [f"SDF of {obj.name} breaks 1-Lipschitz by {worst:.2e}"] if worst > 1e-12 else []


WORKLOADS = {w.name: w for w in (Sweep, Synthetic, Poses)}
