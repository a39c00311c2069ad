"""Versioned JSON documents for learned models and chain histories, and
the rough sketch's output document.

Floats round-trip losslessly (json uses repr-based shortest round-trip
encoding), which the transfer-learning input format requires.
"""

from __future__ import annotations

import json

import numpy as np

from . import quaternions as quat
from .darting import JumpRegion
from .errors import GraspMCError, read_document
from .grasping import GRASP_DIM, Grasp
from .history import MOVE_DTYPE, MOVES, OUTCOME_CODES, OUTCOME_LABELS, ChainHistory, rows
from .learning import LearnedModel, RoughSketch
from .objects import OBJECT_NAMES

MODEL_SCHEMA = "graspmc.model/1"


def _records(states, densities, accepted, outcomes) -> list[dict]:
    return [
        {"state": state, "density": density, "accepted": flag, "outcome": OUTCOME_LABELS[code]}
        for state, density, flag, code in zip(
            states.tolist(), densities.tolist(), accepted.tolist(), outcomes.tolist()
        )
    ]


_NUMBER = (int, float)  # json.loads gives a number exactly one of these types
_FLAG = (bool,)


def _typed(name: str, value, types: tuple = _NUMBER):
    """`value` if it is a JSON value of one of `types` or a nested list of
    them; raises TypeError on anything else, so a boolean or a string is
    no number and a number or a string no flag."""
    if type(value) is list:
        for entry in value:
            if type(entry) not in types:
                _typed(name, entry, types)
    elif type(value) not in types:
        raise TypeError(f"{name} must hold {' or '.join(t.__name__ for t in types)}, not {value!r}")
    return value


def _columns(records: list[dict]) -> tuple[np.ndarray, ...]:
    """The state, density, accepted and outcome-code columns of `records`."""
    return (
        rows(_typed("states", [r["state"] for r in records])),
        np.array(_typed("densities", [r["density"] for r in records]), dtype=float),
        np.array(_typed("accepted", [r["accepted"] for r in records], _FLAG), dtype=bool),
        np.array([OUTCOME_CODES[r.get("outcome")] for r in records], dtype=np.int8),
    )


def history_to_dict(history: ChainHistory) -> dict:
    h = history
    return {
        "proposal_sourced": h.proposal_sourced,
        "seed_states": h.seed_states.tolist(),
        "seed_densities": h.seed_densities.tolist(),
        "seed_proposals": _records(
            h.seed_proposals, h.seed_proposal_densities, h.seed_accepted, h.seed_outcomes
        ),
        "states": h.states.tolist(),
        "densities": h.densities.tolist(),
        "accepted": h.accepted.tolist(),
        "proposals": _records(h.proposals, h.proposal_densities, h.accepted, h.outcomes),
        "moves": h.moves.tolist(),
    }


def _check_densities(name: str, densities) -> None:
    if np.ndim(densities) != 1 or not np.all(np.isfinite(densities) & (densities >= 0.0)):
        raise ValueError(f"{name} must be a list of finite nonnegative reals")


def history_from_dict(doc: dict) -> ChainHistory:
    """The history written by `history_to_dict`; each step's decision is
    read from its proposal record, not the document's repeated list.
    Raises ValueError on a negative or non-finite density, or on seed or
    step columns of different lengths, or on a move that is not one of
    `MOVES`, and TypeError unless its states and densities are JSON numbers
    and its flags JSON booleans."""
    unknown = [move for move in doc["moves"] if move not in MOVES]
    if unknown:
        raise ValueError(f"unknown moves {unknown[:3]!r}; a chain records only {MOVES!r}")
    h = ChainHistory(
        _typed("proposal_sourced", doc["proposal_sourced"], _FLAG),
        rows(_typed("seed_states", doc["seed_states"])),
        np.array(_typed("seed_densities", doc["seed_densities"]), dtype=float),
        *_columns(doc["seed_proposals"]),
        rows(_typed("states", doc["states"])),
        np.array(_typed("densities", doc["densities"]), dtype=float),
        *_columns(doc["proposals"]),
        np.array(doc["moves"], dtype=MOVE_DTYPE),
    )
    for name in ("seed_densities", "seed_proposal_densities", "densities", "proposal_densities"):
        _check_densities(name, getattr(h, name))
    if len(h.seed_states) != len(h.seed_densities):
        raise ValueError("seed states and seed densities differ in length")
    if not len(h.states) == len(h.densities) == len(h.proposals) == len(h.moves):
        raise ValueError("the chain's states, densities, proposals and moves differ in length")
    return h


def _region_to_dict(region: JumpRegion) -> dict:
    return {
        "center": region.center.tolist(),
        "rotation": region.rotation.tolist(),
        "scales": region.scales.tolist(),
        "epsilon": region.epsilon,
        "volume": region.volume,
        "sqrt_scales": False,  # semi-axes are epsilon * scales; the key keeps the format
    }


def _region_from_dict(doc: dict) -> JumpRegion:
    if doc["sqrt_scales"]:
        raise GraspMCError("jump regions with square-root semi-axes are not supported")
    arrays = ("center", "rotation", "scales")
    region = JumpRegion(
        *(np.asarray(_typed(key, doc[key]), dtype=float) for key in arrays),
        *(float(_typed(key, doc[key])) for key in ("epsilon", "volume")),
    )
    if not (0.0 < region.epsilon < np.inf and 0.0 < region.volume < np.inf):
        raise ValueError(
            f"region epsilon {region.epsilon!r} and volume {region.volume!r}"
            " must be positive and finite"
        )
    shapes = (region.center.shape, region.rotation.shape, region.scales.shape)
    if shapes != ((GRASP_DIM,), (GRASP_DIM, GRASP_DIM), (GRASP_DIM,)):
        raise ValueError(f"region center, rotation and scales have shapes {shapes}")
    return region


def _check_grasps(name: str, block: np.ndarray) -> None:
    """Raises ValueError unless every row is a finite grasp vector whose
    quaternion `quaternions.canonicalize` can normalize."""
    if not len(block):
        return
    if block.shape[1] != GRASP_DIM or not np.all(np.isfinite(block)):
        raise ValueError(f"{name} must be finite {GRASP_DIM}-vectors")
    if np.any(np.linalg.norm(block[:, 3:], axis=1) <= quat.MIN_NORM):
        raise ValueError(f"{name} hold a zero quaternion")


def model_to_document(model: LearnedModel) -> str:
    doc = {
        "schema": MODEL_SCHEMA,
        "object": model.object_name,
        "config": model.config,
        "modes": [m.to_vector().tolist() for m in model.modes],
        "mode_densities": model.mode_densities,
        "regions": [_region_to_dict(r) for r in model.regions],
        "chain": history_to_dict(model.chain),
    }
    return json.dumps(doc)


def model_from_document(text: str) -> LearnedModel:
    return read_document(text, MODEL_SCHEMA, _model_from_dict)


def _model_from_dict(doc: dict) -> LearnedModel:
    """Raises ValueError unless the object is a catalog name, the modes and
    the chain's states and proposals are finite grasp vectors, the regions
    are grasp-sized with a positive finite epsilon and volume, and there is
    one finite nonnegative density per mode. Raises TypeError unless the
    modes, their densities, the regions' fields and the chain's states and
    densities are JSON numbers, and the chain's flags JSON booleans."""
    if doc["object"] not in OBJECT_NAMES:
        raise ValueError(f"unknown object {doc['object']!r}")
    modes = rows(_typed("modes", doc["modes"]))
    chain = history_from_dict(doc["chain"])
    _check_grasps("modes", modes)
    for name in ("seed_states", "seed_proposals", "states", "proposals"):
        _check_grasps(name, getattr(chain, name))
    densities = doc.get("mode_densities")
    if densities is not None:
        densities = [float(d) for d in _typed("mode_densities", densities)]
        _check_densities("mode_densities", np.array(densities))
        if len(densities) != len(modes):
            raise ValueError(f"{len(densities)} mode densities for {len(modes)} modes")
    return LearnedModel(
        doc["object"],
        chain,
        [Grasp.from_vector(m) for m in modes],
        [_region_from_dict(r) for r in doc["regions"]],
        dict(doc.get("config") or {}),
        mode_densities=densities,
    )


SKETCH_SCHEMA = "graspmc.sketch/1"


def sketch_to_document(sketch: RoughSketch) -> str:
    doc = {
        "schema": SKETCH_SCHEMA,
        "source_object": sketch.source_object,
        "position_sigma": sketch.position_sigma,
        "kappa": sketch.kappa,
        "proposals": _records(sketch.proposals, sketch.densities, sketch.accepted, sketch.outcomes),
    }
    return json.dumps(doc)

