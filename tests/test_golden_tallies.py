"""Golden tallies and trace digests: per-seed results at the published settings.

The grid is seeds {0, 1}. On each seed, random-walk-baseline,
active-random-init and active-biased-init run on pitcher, pan and plate,
and both transfer presets run on their partners tall_pitcher, small_pan
and soup_plate, fed the active-biased-init model of the partner's source
object. Every tally must match `golden_tallies.json` exactly. Every run's
SHA-256 digests must match `golden_traces.json`: one over its JSON trace
and, for the presets that learn, one over its model document. The model is
hashed with its `config` echo emptied, since that echo repeats the run's
inputs, not what the run computed. A change that moves one regenerates the
files and declares the drift and its cause.

Regenerate from the repository root with

    PYTHONPATH=src python tests/test_golden_tallies.py --write
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from graspmc.experiments import (
    ACTIVE_BIASED_INIT,
    ACTIVE_RANDOM_INIT,
    RANDOM_WALK_BASELINE,
    TRANSFER_ACTUAL_MODES,
    TRANSFER_SIMILAR_MODES,
    ExperimentConfig,
    run_experiment,
)
from graspmc.serialization import model_to_document

GOLDEN = Path(__file__).with_name("golden_tallies.json")
GOLDEN_TRACES = Path(__file__).with_name("golden_traces.json")
SEEDS = (0, 1)
TRANSFER_PAIRS = (("pitcher", "tall_pitcher"), ("pan", "small_pan"), ("plate", "soup_plate"))
SOURCE_PRESETS = (RANDOM_WALK_BASELINE, ACTIVE_RANDOM_INIT, ACTIVE_BIASED_INIT)
TRANSFER_PRESETS = (TRANSFER_SIMILAR_MODES, TRANSFER_ACTUAL_MODES)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_results() -> tuple[dict[str, dict[str, int]], dict[str, dict[str, str]]]:
    """Tallies and digests of every run in the grid, keyed `preset/object/seed`."""
    tallies, digests = {}, {}

    def run(preset, object_name, seed, source=None):
        config = ExperimentConfig(preset, object_name, seed, keep_trace=True)
        record, model = run_experiment(config, source=source)
        key = f"{preset}/{object_name}/{seed}"
        tallies[key] = record.tallies._asdict()
        digests[key] = {"trace": sha256(json.dumps(record.trace))}
        if model is not None:
            digests[key]["model"] = sha256(model_to_document(dataclasses.replace(model, config={})))
        return model

    for seed in SEEDS:
        for source_object, partner in TRANSFER_PAIRS:
            models = {preset: run(preset, source_object, seed) for preset in SOURCE_PRESETS}
            for preset in TRANSFER_PRESETS:
                run(preset, partner, seed, source=models[ACTIVE_BIASED_INIT])
    return tallies, digests


@pytest.fixture(scope="module")
def grid():
    return grid_results()


def test_tallies_match_golden_file(grid):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert grid[0] == golden


def test_traces_match_golden_digests(grid):
    golden = json.loads(GOLDEN_TRACES.read_text(encoding="utf-8"))
    assert grid[1] == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    tallies, digests = grid_results()
    for path, content in ((GOLDEN, tallies), (GOLDEN_TRACES, digests)):
        path.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n", encoding="utf-8")
