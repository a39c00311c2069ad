"""Versioned JSON documents for learned models and chain histories.

Floats round-trip losslessly (json uses repr-based shortest round-trip
encoding), which the transfer-learning input format requires.
"""

from __future__ import annotations

import json

import numpy as np

from . import quaternions as quat
from .darting import JumpRegion
from .grasping import Grasp
from .history import ChainHistory, ProposalRecord
from .learning import LearnedModel

MODEL_SCHEMA = "graspmc.model/1"


def _record_to_dict(record: ProposalRecord) -> dict:
    return {
        "state": record.state.tolist(),
        "density": record.density,
        "accepted": record.accepted,
        "outcome": record.outcome,
    }


def _record_from_dict(doc: dict) -> ProposalRecord:
    return ProposalRecord(
        np.asarray(doc["state"], dtype=float),
        float(doc["density"]),
        bool(doc["accepted"]),
        doc.get("outcome"),
    )


def history_to_dict(history: ChainHistory) -> dict:
    return {
        "proposal_sourced": history.proposal_sourced,
        "seed_states": [s.tolist() for s in history.seed_states],
        "seed_densities": list(history.seed_densities),
        "seed_proposals": [_record_to_dict(r) for r in history.seed_proposals],
        "states": [s.tolist() for s in history.states],
        "densities": list(history.densities),
        "accepted": list(history.accepted),
        "proposals": [_record_to_dict(r) for r in history.proposals],
        "moves": list(history.moves),
    }


def history_from_dict(doc: dict) -> ChainHistory:
    history = ChainHistory(proposal_sourced=bool(doc["proposal_sourced"]))
    history.seed_states = [np.asarray(s, dtype=float) for s in doc["seed_states"]]
    history.seed_densities = [float(d) for d in doc["seed_densities"]]
    history.seed_proposals = [_record_from_dict(r) for r in doc["seed_proposals"]]
    history.states = [np.asarray(s, dtype=float) for s in doc["states"]]
    history.densities = [float(d) for d in doc["densities"]]
    history.accepted = [bool(a) for a in doc["accepted"]]
    history.proposals = [_record_from_dict(r) for r in doc["proposals"]]
    history.moves = [str(m) for m in doc["moves"]]
    return history


def _region_to_dict(region: JumpRegion) -> dict:
    return {
        "center": region.center.tolist(),
        "rotation": region.rotation.tolist(),
        "scales": region.scales.tolist(),
        "epsilon": region.epsilon,
        "volume": region.volume,
        "sqrt_scales": region.sqrt_scales,
    }


def _region_from_dict(doc: dict) -> JumpRegion:
    return JumpRegion(
        np.asarray(doc["center"], dtype=float),
        np.asarray(doc["rotation"], dtype=float),
        np.asarray(doc["scales"], dtype=float),
        float(doc["epsilon"]),
        float(doc["volume"]),
        bool(doc["sqrt_scales"]),
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
    doc = json.loads(text)
    if doc.get("schema") != MODEL_SCHEMA:
        raise ValueError(f"unsupported model schema {doc.get('schema')!r}")
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


def sketch_to_document(sketch) -> str:
    doc = {
        "schema": SKETCH_SCHEMA,
        "source_object": sketch.source_object,
        "position_sigma": sketch.position_sigma,
        "kappa": sketch.kappa,
        "proposals": [_record_to_dict(r) for r in sketch.proposals],
    }
    return json.dumps(doc)


def sketch_from_document(text: str):
    from .learning import RoughSketch

    doc = json.loads(text)
    if doc.get("schema") != SKETCH_SCHEMA:
        raise ValueError(f"unsupported sketch schema {doc.get('schema')!r}")
    return RoughSketch(
        [_record_from_dict(r) for r in doc["proposals"]],
        doc["source_object"],
        float(doc["position_sigma"]),
        float(doc["kappa"]),
    )
