"""Versioned JSON documents for learned models and chain histories.

Floats round-trip losslessly (json uses repr-based shortest round-trip
encoding), which the transfer-learning input format requires.
"""

from __future__ import annotations

import json

import numpy as np

from . import quaternions as quat
from .darting import JumpRegion
from .errors import GraspMCError, read_document
from .grasping import Grasp
from .history import MOVE_DTYPE, OUTCOME_CODES, OUTCOME_LABELS, ChainHistory, rows
from .learning import LearnedModel, RoughSketch

MODEL_SCHEMA = "graspmc.model/1"


def _records(states, densities, accepted, outcomes) -> list[dict]:
    return [
        {"state": state, "density": density, "accepted": flag, "outcome": OUTCOME_LABELS[code]}
        for state, density, flag, code in zip(
            states.tolist(), densities.tolist(), accepted.tolist(), outcomes.tolist()
        )
    ]


def _columns(records: list[dict]) -> tuple[np.ndarray, ...]:
    """The state, density, accepted and outcome-code columns of `records`."""
    return (
        rows([r["state"] for r in records]),
        np.array([r["density"] for r in records], dtype=float),
        np.array([r["accepted"] for r in records], dtype=bool),
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


def history_from_dict(doc: dict) -> ChainHistory:
    """The history written by `history_to_dict`; each step's decision is
    read from its proposal record, not the document's repeated list."""
    return ChainHistory(
        bool(doc["proposal_sourced"]),
        rows(doc["seed_states"]),
        np.array(doc["seed_densities"], dtype=float),
        *_columns(doc["seed_proposals"]),
        rows(doc["states"]),
        np.array(doc["densities"], dtype=float),
        *_columns(doc["proposals"]),
        np.array(doc["moves"], dtype=MOVE_DTYPE),
    )


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
    return JumpRegion(
        np.asarray(doc["center"], dtype=float),
        np.asarray(doc["rotation"], dtype=float),
        np.asarray(doc["scales"], dtype=float),
        float(doc["epsilon"]),
        float(doc["volume"]),
    )


def _mode_from_list(values: list[float]) -> Grasp:
    """A stored mode, its quaternion kept bit for bit when already a
    canonical unit: `quaternions.canonicalize` is not idempotent in
    floating point, so canonicalizing again could move its last bits."""
    vector = np.asarray(values, dtype=float)
    grasp = Grasp.from_vector(vector)
    if quat.is_canonical_unit(vector[3:]):
        object.__setattr__(grasp, "orientation", vector[3:].copy())
    return grasp


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
    densities = doc.get("mode_densities")
    return LearnedModel(
        doc["object"],
        history_from_dict(doc["chain"]),
        [_mode_from_list(m) for m in doc["modes"]],
        [_region_from_dict(r) for r in doc["regions"]],
        dict(doc.get("config") or {}),
        mode_densities=None if densities is None else [float(d) for d in densities],
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


def sketch_from_document(text: str) -> RoughSketch:
    return read_document(
        text,
        SKETCH_SCHEMA,
        lambda doc: RoughSketch(
            *_columns(doc["proposals"]),
            doc["source_object"],
            float(doc["position_sigma"]),
            float(doc["kappa"]),
        ),
    )
