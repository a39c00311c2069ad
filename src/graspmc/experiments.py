"""Named experiment presets, result records, tables, and exports.

The five presets mirror the evaluation design: a pure random-walk
baseline, the combined sampler with a random or a biased (random-walk)
sketch, and the two transfer variants (similar-object or actual-object
modes). Every run is driven by one seed: phase generators (demonstrations,
sketch, chain) are spawned from it in a fixed order, so runs with the same
seed share demonstrations across presets and are exactly reproducible. The
demonstration search of one (object, seed) runs once per process and is
reused by every preset that needs it.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from . import __version__
from .darting import DartingConfig
from .errors import InvalidConfig, MissingSourceModel
from .grasping import DEFAULT_EVALUATION, EvaluationConfig, Grasp, demonstrate_grasps
from .gripper import GripperModel, default_gripper
from .history import OUTCOME_LABELS, ChainHistory
from .kameleon import KameleonConfig
from .learning import (
    ACTUAL_OBJECT_MODES,
    SIMILAR_OBJECT_MODES,
    LearnedModel,
    Tally,
    active_learn,
    build_rough_sketch,
    random_sketch,
    tally_outcomes,
    transfer_learn,
)
from .objects import OBJECT_NAMES, get_object
from .serialization import model_from_document

RESULT_SCHEMA = "graspmc.result/1"
EXPORT_SCHEMA = "graspmc.export/1"

RANDOM_WALK_BASELINE = "random-walk-baseline"
ACTIVE_RANDOM_INIT = "active-random-init"
ACTIVE_BIASED_INIT = "active-biased-init"
TRANSFER_SIMILAR_MODES = "transfer-similar-modes"
TRANSFER_ACTUAL_MODES = "transfer-actual-modes"
EXPERIMENTS = (
    RANDOM_WALK_BASELINE,
    ACTIVE_RANDOM_INIT,
    ACTIVE_BIASED_INIT,
    TRANSFER_SIMILAR_MODES,
    TRANSFER_ACTUAL_MODES,
)
TRANSFER_EXPERIMENTS = (TRANSFER_SIMILAR_MODES, TRANSFER_ACTUAL_MODES)
# (object, seed, count, gripper, evaluation) searches kept: only the last. The
# presets of one seed on one object run one after another and share it; a
# longer-lived cache would make a repeated sweep cheaper than its first pass.
DEMONSTRATION_CACHE_SIZE = 1
# ExperimentConfig's annotations, which are strings under `from __future__ import annotations`
_FIELD_KINDS = {
    "str": str, "int": Integral, "float": Real, "bool": bool, "str | None": (str, type(None))
}
_FIELD_MINIMA = {
    "seed": 0, "iterations": 1, "demonstration_count": 1, "kappa": 0.0, "position_sigma": 0.0
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's full parameterization; defaults follow the evaluated setup."""

    experiment: str
    object_name: str
    seed: int
    iterations: int = 1000
    burn_in: int = 100
    gamma: float = 1e-4
    nu: float = 2.38 / np.sqrt(6.0)
    subsample_size: int = 100
    p_check: float = 0.6
    epsilon: float = 0.7
    scale_floor: float = 1e-6
    kappa: float = 50.0
    position_sigma: float = 0.10
    demonstration_count: int = 5
    source_model: str | None = None
    keep_trace: bool = True

    def __post_init__(self) -> None:
        """Type and range checks, so a bad config fails before any search."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind = _FIELD_KINDS[f.type]
            # bool is Integral: a flag is no count, and a count no flag
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise InvalidConfig(f"{f.name} must be {f.type}, not {value!r}")
            if isinstance(value, Real) and not math.isfinite(value):
                raise InvalidConfig(f"{f.name} must be finite, not {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise InvalidConfig(f"unknown experiment {self.experiment!r}")
        if self.object_name not in OBJECT_NAMES:
            raise InvalidConfig(f"unknown object {self.object_name!r}")
        for name, low in _FIELD_MINIMA.items():
            if getattr(self, name) < low:
                raise InvalidConfig(f"{name} must be at least {low}, not {getattr(self, name)!r}")
        try:
            self.kameleon(), self.darting()
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc

    def kameleon(self) -> KameleonConfig:
        return KameleonConfig(
            gamma=self.gamma,
            nu=self.nu,
            subsample_size=self.subsample_size,
            burn_in=self.burn_in,
        )

    def darting(self) -> DartingConfig:
        return DartingConfig(
            p_check=self.p_check,
            epsilon=self.epsilon,
            scale_floor=self.scale_floor,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(ExperimentConfig)}
        required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
        if set(doc) - known:
            raise InvalidConfig(f"unknown config fields: {sorted(set(doc) - known)}")
        if required - set(doc):
            raise InvalidConfig(f"missing config fields: {sorted(required - set(doc))}")
        return ExperimentConfig(**doc)


@dataclass
class ResultRecord:
    config: dict
    tallies: Tally
    trace: list[dict] = field(default_factory=list)
    duration_seconds: float = 0.0
    sketch_evaluations: int = 0
    version: str = __version__
    created: str = ""

    @property
    def total(self) -> int:
        return self.tallies.total

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA,
            "version": self.version,
            "created": self.created,
            "config": self.config,
            "tallies": {
                "success": self.tallies.success,
                "slipped": self.tallies.slipped,
                "collision": self.tallies.collision,
                "miss": self.tallies.miss,
            },
            "sketch_evaluations": self.sketch_evaluations,
            "duration_seconds": self.duration_seconds,
            "trace": self.trace,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ResultRecord":
        if doc.get("schema") != RESULT_SCHEMA:
            raise ValueError(f"unsupported result schema {doc.get('schema')!r}")
        t = doc["tallies"]
        return ResultRecord(
            config=doc["config"],
            tallies=Tally(t["success"], t["slipped"], t["collision"], t["miss"]),
            trace=doc.get("trace", []),
            duration_seconds=doc.get("duration_seconds", 0.0),
            sketch_evaluations=doc.get("sketch_evaluations", 0),
            version=doc.get("version", ""),
            created=doc.get("created", ""),
        )


def _phase_rngs(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(4)
    names = ("demonstrations", "sketch", "chain", "init")
    return {name: np.random.default_rng(seq) for name, seq in zip(names, children)}


@lru_cache(maxsize=DEMONSTRATION_CACHE_SIZE)
def _demonstrations(
    object_name: str,
    seed: int,
    count: int,
    gripper: GripperModel,
    eval_config: EvaluationConfig,
) -> tuple[Grasp, ...]:
    """The demonstrations of every run with this object and seed, searched
    once for consecutive runs that share them and handed out with read-only
    arrays.

    The search draws only from the seed's own "demonstrations" generator,
    so reusing its grasps cannot change a run. A DemonstrationFailure is not
    cached: it is raised again on every call.
    """
    rng = _phase_rngs(seed)["demonstrations"]
    grasps = tuple(
        grasp
        for grasp, _ in demonstrate_grasps(get_object(object_name), gripper, count, rng, eval_config)
    )
    for grasp in grasps:
        grasp.position.flags.writeable = False
        grasp.orientation.flags.writeable = False
    return grasps


def _trace_rows(history: ChainHistory) -> list[dict]:
    h = history
    return [
        {
            "state": state,
            "density": density,
            "outcome": OUTCOME_LABELS[code],
            "accepted": accepted,
            "jumped": move == "jump" and accepted,
            "move": move,
        }
        for state, density, code, accepted, move in zip(
            h.states.tolist(), h.densities.tolist(), h.outcomes.tolist(), h.accepted.tolist(),
            h.moves.tolist(),
        )
    ]


def run_experiment(
    config: ExperimentConfig,
    *,
    gripper: GripperModel | None = None,
    eval_config: EvaluationConfig = DEFAULT_EVALUATION,
    source: LearnedModel | None = None,
) -> tuple[ResultRecord, LearnedModel | None]:
    """Execute one preset end to end; returns the record and, for presets
    that learn, the LearnedModel artifact.

    Transfer presets need a source model: either passed in directly or
    loaded from config.source_model; otherwise MissingSourceModel.
    """
    gripper = gripper or default_gripper()
    obj = get_object(config.object_name)
    rngs = _phase_rngs(config.seed)
    started = time.perf_counter()
    total = config.burn_in + config.iterations
    sketch_evaluations = 0
    model: LearnedModel | None = None
    if config.experiment in TRANSFER_EXPERIMENTS and source is None:
        if not config.source_model:
            raise MissingSourceModel(f"{config.experiment} requires a source model")
        with open(config.source_model, "r", encoding="utf-8") as fh:
            source = model_from_document(fh.read())
    if config.experiment != TRANSFER_SIMILAR_MODES:
        demos = list(
            _demonstrations(
                config.object_name, config.seed, config.demonstration_count, gripper, eval_config
            )
        )

    if config.experiment in TRANSFER_EXPERIMENTS:
        if config.experiment == TRANSFER_ACTUAL_MODES:
            mode_source, actual = ACTUAL_OBJECT_MODES, demos
        else:
            mode_source, actual = SIMILAR_OBJECT_MODES, None
        model = transfer_learn(
            obj,
            gripper,
            source,
            mode_source,
            actual,
            config.kameleon(),
            config.darting(),
            config.iterations,
            rngs["chain"],
            eval_config,
        )
        history = model.chain
    elif config.experiment == RANDOM_WALK_BASELINE:
        history = ChainHistory(proposal_sourced=True)
        build_rough_sketch(
            obj,
            gripper,
            total,
            demos[int(rngs["init"].integers(len(demos)))],
            config.position_sigma,
            config.kappa,
            rngs["chain"],
            eval_config,
            history=history,
        )
    else:
        if config.experiment == ACTIVE_BIASED_INIT:
            sketch = build_rough_sketch(
                obj,
                gripper,
                total,
                demos[int(rngs["init"].integers(len(demos)))],
                config.position_sigma,
                config.kappa,
                rngs["sketch"],
                eval_config,
            )
            sketch_evaluations = total
        else:
            sketch = random_sketch(obj, gripper, total, rngs["sketch"], eval_config)
        model = active_learn(
            obj,
            gripper,
            sketch,
            demos,
            config.kameleon(),
            config.darting(),
            config.iterations,
            rngs["chain"],
            eval_config,
        )
        history = model.chain

    if model is not None:
        model.config = config.to_dict()
    record = ResultRecord(
        config=config.to_dict(),
        tallies=tally_outcomes(history),
        trace=_trace_rows(history) if config.keep_trace else [],
        duration_seconds=time.perf_counter() - started,
        sketch_evaluations=sketch_evaluations,
        created=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )
    return record, model


def emit_table(records: list[ResultRecord]) -> tuple[str, str]:
    """(csv_text, aligned_text) grouped by experiment then object."""
    if not records:
        raise ValueError("no records to tabulate")
    rows = []
    for record in sorted(
        records,
        key=lambda r: (
            EXPERIMENTS.index(r.config["experiment"]),
            r.config["object_name"],
            r.config["seed"],
        ),
    ):
        t = record.tallies
        rows.append(
            (
                record.config["experiment"],
                record.config["object_name"],
                record.config["seed"],
                t.success,
                t.slipped,
                t.collision,
                t.miss,
            )
        )
    header = ("experiment", "object", "seed", "success", "slipped", "collision", "miss")

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    csv_text = buffer.getvalue()

    widths = [
        max(len(str(header[i])), max(len(str(row[i])) for row in rows)) for i in range(len(header))
    ]
    lines = ["  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(v).ljust(widths[i]) for i, v in enumerate(row)))
    return csv_text, "\n".join(lines) + "\n"


def export_samples(
    model: LearnedModel,
    gripper: GripperModel | None = None,
    *,
    success_only: bool = False,
) -> str:
    """Plot-ready grasp cloud: demonstrated modes plus chain proposals.

    Each record carries the pose, a gripper-orientation segment along the
    approach axis, a span segment along the closing axis, the quality, and
    a demonstrated/learned tag.
    """
    gripper = gripper or default_gripper()
    records = []

    def add(grasp: Grasp, quality: float, category: str) -> None:
        if success_only and quality <= 0.0:
            return
        approach = grasp.approach_axis_world()
        closing = grasp.closing_axis_world()
        tcp = grasp.position
        orientation_segment = [
            tcp.tolist(),
            (tcp + gripper.finger_length * approach).tolist(),
        ]
        span_segment = [
            (tcp - 0.5 * gripper.jaw_span * closing).tolist(),
            (tcp + 0.5 * gripper.jaw_span * closing).tolist(),
        ]
        records.append(
            {
                "position": tcp.tolist(),
                "quaternion": grasp.orientation.tolist(),
                "orientation_segment": orientation_segment,
                "span_segment": span_segment,
                "quality": float(quality),
                "category": category,
            }
        )

    for mode, quality in zip(model.modes, model.mode_qualities()):
        add(mode, quality, "demonstrated")
    chain = model.chain
    for state, density, code in zip(chain.proposals, chain.proposal_densities, chain.outcomes):
        if code >= 0:
            add(Grasp.from_vector(state), density, "learned")

    doc = {"schema": EXPORT_SCHEMA, "object": model.object_name, "records": records}
    return json.dumps(doc)


def result_to_document(record: ResultRecord) -> str:
    return json.dumps(record.to_dict())


def result_from_document(text: str) -> ResultRecord:
    return ResultRecord.from_dict(json.loads(text))
