"""Golden tallies: per-seed outcome counts at the published settings.

The grid is seeds {0, 1}. On each seed, random-walk-baseline,
active-random-init and active-biased-init run on pitcher, pan and plate,
and both transfer presets run on their partners tall_pitcher, small_pan
and soup_plate, fed the active-biased-init model of the partner's source
object. Every tally must match `golden_tallies.json` exactly. A change
that moves one regenerates the file and declares the drift and its cause.

Regenerate from the repository root with

    PYTHONPATH=src python tests/test_golden_tallies.py --write
"""

import json
import sys
from pathlib import Path

from graspmc.experiments import (
    ACTIVE_BIASED_INIT,
    ACTIVE_RANDOM_INIT,
    RANDOM_WALK_BASELINE,
    TRANSFER_ACTUAL_MODES,
    TRANSFER_SIMILAR_MODES,
    ExperimentConfig,
    run_experiment,
)

GOLDEN = Path(__file__).with_name("golden_tallies.json")
SEEDS = (0, 1)
TRANSFER_PAIRS = (("pitcher", "tall_pitcher"), ("pan", "small_pan"), ("plate", "soup_plate"))
SOURCE_PRESETS = (RANDOM_WALK_BASELINE, ACTIVE_RANDOM_INIT, ACTIVE_BIASED_INIT)
TRANSFER_PRESETS = (TRANSFER_SIMILAR_MODES, TRANSFER_ACTUAL_MODES)


def grid_tallies() -> dict[str, dict[str, int]]:
    """Tallies of every run in the grid, keyed `preset/object/seed`."""
    tallies = {}

    def run(preset, object_name, seed, source=None):
        config = ExperimentConfig(preset, object_name, seed, keep_trace=False)
        record, model = run_experiment(config, source=source)
        tallies[f"{preset}/{object_name}/{seed}"] = record.tallies._asdict()
        return model

    for seed in SEEDS:
        for source_object, partner in TRANSFER_PAIRS:
            models = {preset: run(preset, source_object, seed) for preset in SOURCE_PRESETS}
            for preset in TRANSFER_PRESETS:
                run(preset, partner, seed, source=models[ACTIVE_BIASED_INIT])
    return tallies


def test_tallies_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert grid_tallies() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(grid_tallies(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
