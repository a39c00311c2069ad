"""Show that every output check of the benchmark trips on a wrong input.

    OPENBLAS_NUM_THREADS=1 python3 bench/check_bites.py

Each check runs twice: on a right input, where it must report nothing,
and on a deliberately wrong one, where it must report a failure. The
script prints one line per check and exits with 1 if any check stays
silent on its wrong input or complains about its right one. It takes
about half a minute.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as w  # noqa: E402
from graspmc import sdf  # noqa: E402
from graspmc.experiments import ExperimentConfig, run_experiment  # noqa: E402
from graspmc.grasping import Grasp  # noqa: E402
from graspmc.kameleon import KameleonConfig  # noqa: E402
from graspmc.learning import Tally  # noqa: E402
from graspmc.objects import ObjectModel, get_object  # noqa: E402
from graspmc.serialization import model_from_document, model_to_document  # noqa: E402


class Doubled(sdf.Sdf):
    """Twice a child's distance: right signs, but 2-Lipschitz."""

    def __init__(self, child):
        self.child = child

    def distance(self, points):
        return 2.0 * self.child.distance(points)


def nudged(values: list) -> list:
    """A copy with the first entry moved by one unit in the last place."""
    first = np.nextafter(np.asarray(values[0], dtype=float), np.inf)
    return [first] + list(values[1:])


def sweep_cases():
    small = dict(object_name="plate", seed=0, iterations=40, burn_in=10, keep_trace=False)
    biased = ExperimentConfig("active-biased-init", **small)
    record, model = run_experiment(biased)
    baseline, _ = run_experiment(ExperimentConfig("random-walk-baseline", **small))
    obj, gripper = get_object("plate"), w.default_gripper()
    t = record.tallies
    moved_tallies = Tally(t.success - 1, t.slipped, t.collision, t.miss + 1)
    back = model_from_document(model_to_document(model))
    back_nudged = model_from_document(model_to_document(model))
    back_nudged.chain.states = nudged(back_nudged.chain.states)
    off_modes = [Grasp(m.position + 0.2, m.orientation) for m in model.modes]
    return [
        ("sweep: tally total is burn_in + iterations",
         lambda: w.check_record(record, biased),
         lambda: w.check_record(dataclasses.replace(record, tallies=Tally(*t[:3], t.miss - 1)), biased)),
        ("sweep: sketch_evaluations is the budget",
         lambda: w.check_record(record, biased),
         lambda: w.check_record(dataclasses.replace(record, sketch_evaluations=49), biased)),
        ("sweep: mode quality equals stored density",
         lambda: w.check_modes(model, obj, gripper, True),
         lambda: w.check_modes(
             dataclasses.replace(model, mode_densities=nudged(model.mode_densities)), obj, gripper, True)),
        ("sweep: demonstrated modes are successes",
         lambda: w.check_modes(model, obj, gripper, True),
         lambda: w.check_modes(
             dataclasses.replace(model, modes=off_modes, mode_densities=[0.0] * len(off_modes)),
             obj, gripper, True)),
        ("sweep: document round trip is bit-identical",
         lambda: w.check_round_trip(model, back),
         lambda: w.check_round_trip(model, back_nudged)),
        ("sweep: same config gives the same tallies",
         lambda: w.check_same_tallies(t, record.tallies, "the warm-up"),
         lambda: w.check_same_tallies(moved_tallies, record.tallies, "the warm-up")),
        ("sweep: active preset beats the baseline",
         lambda: w.check_beats_baseline(record.tallies, baseline.tallies),
         lambda: w.check_beats_baseline(baseline.tallies, record.tallies)),
    ]


def synthetic_cases():
    workload = w.Synthetic(0)
    history = workload.chain(0)
    short = dataclasses.replace(history, states=history.states[:-1])
    plain = KameleonConfig(gamma=w.KAMELEON.gamma, nu=0.0, subsample_size=100)
    adaptive = dataclasses.replace(plain, nu=0.5, burn_in=100)
    region = workload.regions[1]
    skewed = dataclasses.replace(region, rotation=1.01 * region.rotation)
    return [
        ("synthetic: history length is the iteration count",
         lambda: w.check_chain(history, workload.centers, workload.weights),
         lambda: w.check_chain(short, workload.centers, workload.weights)),
        ("synthetic: mode shares match the mixture weights",
         lambda: w.check_chain(history, workload.centers, workload.weights),
         lambda: w.check_chain(history, workload.centers, np.array([0.6, 0.2, 0.2]))),
        ("synthetic: nu = 0 chain is random-walk Metropolis",
         lambda: w.check_random_walk_reduction(workload.target, workload.centers[0], plain),
         lambda: w.check_random_walk_reduction(workload.target, workload.centers[0], adaptive)),
        ("synthetic: jump there and back returns the point",
         lambda: w.check_jump_round_trip(workload.regions),
         lambda: w.check_jump_round_trip([workload.regions[0], skewed])),
    ]


def poses_cases():
    workload = w.Poses(0)
    workload.warm_up()
    obj, moved, poses, _ = workload.batches[0]
    canonical, in_moved = workload.evaluate_batch(0)
    reference = workload.reference[obj.name]
    shifted = obj.transformed(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.001, 0.0, 0.0]))
    wrong_frame = [w.evaluate_grasp(g, shifted, workload.gripper) for g in poses]
    changed = next(i for i, o in enumerate(reference) if o.kind == "success")
    wrong_reference = list(reference)
    halved = 0.5 * reference[changed].quality
    wrong_reference[changed] = dataclasses.replace(reference[changed], quality=halved)
    bad_outcome = type("Outcome", (), {"kind": "slipped", "quality": 0.3})()
    counts = dict.fromkeys(w.OUTCOME_KINDS, 100)
    doubled = ObjectModel(obj.name, Doubled(obj.shape), obj.bounds_lo, obj.bounds_hi)
    return [
        ("poses: moved frame gives the same kind and quality",
         lambda: w.check_outcomes(canonical, in_moved, reference),
         lambda: w.check_outcomes(canonical, wrong_frame, reference)),
        ("poses: the same pose again gives the same outcome",
         lambda: w.check_outcomes(canonical, in_moved, reference),
         lambda: w.check_outcomes(canonical, in_moved, wrong_reference)),
        ("poses: quality > 0 exactly when success",
         lambda: w.check_outcomes(canonical[:1], in_moved[:1], reference[:1]),
         lambda: w.check_outcomes([bad_outcome], [bad_outcome], [bad_outcome])),
        ("poses: every outcome kind occurs often enough",
         lambda: w.check_kinds(counts),
         lambda: w.check_kinds({**counts, "miss_cull": w.MIN_PER_KIND - 1})),
        ("poses: every SDF is 1-Lipschitz",
         lambda: w.check_lipschitz(obj) + w.check_lipschitz(moved),
         lambda: w.check_lipschitz(doubled)),
    ]


def main() -> int:
    bad = 0
    for cases in (sweep_cases, synthetic_cases, poses_cases):
        for name, right, wrong in cases():
            on_right, on_wrong = right(), wrong()
            ok = not on_right and bool(on_wrong)
            bad += not ok
            status = "bites" if ok else "DOES NOT BITE"
            detail = on_wrong[0] if on_wrong else f"right input reported {on_right}"
            print(f"{status:13} {name}: {detail}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
