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


def _check_densities(name: str, densities) -> None:
    if np.ndim(densities) != 1 or not np.all(np.isfinite(densities) & (densities >= 0.0)):
        raise ValueError(f"{name} must be a list of finite nonnegative reals")


def history_from_dict(doc: dict) -> ChainHistory:
    """The history written by `history_to_dict`; each step's decision is
    read from its proposal record, not the document's repeated list.
    Raises ValueError on a negative or non-finite density, or on seed or
    step columns of different lengths."""
    h = ChainHistory(
        bool(doc["proposal_sourced"]),
        rows(doc["seed_states"]),
        np.array(doc["seed_densities"], dtype=float),
        *_columns(doc["seed_proposals"]),
        rows(doc["states"]),
        np.array(doc["densities"], dtype=float),
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
    region = JumpRegion(
        np.asarray(doc["center"], dtype=float),
        np.asarray(doc["rotation"], dtype=float),
        np.asarray(doc["scales"], dtype=float),
        float(doc["epsilon"]),
        float(doc["volume"]),
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


def _mode_from_list(values) -> Grasp:
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
    """Raises ValueError unless the modes and the chain's states and
    proposals are finite grasp vectors, the regions are grasp-sized, and
    there is one finite nonnegative density per mode."""
    modes = rows(doc["modes"])
    chain = history_from_dict(doc["chain"])
    _check_grasps("modes", modes)
    for name in ("seed_states", "seed_proposals", "states", "proposals"):
        _check_grasps(name, getattr(chain, name))
    densities = doc.get("mode_densities")
    if densities is not None:
        densities = [float(d) for d in densities]
        _check_densities("mode_densities", np.array(densities))
        if len(densities) != len(modes):
            raise ValueError(f"{len(densities)} mode densities for {len(modes)} modes")
    return LearnedModel(
        doc["object"],
        chain,
        [_mode_from_list(m) for m in modes],
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

