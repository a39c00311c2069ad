"""Command-line experiment runner.

Verbs: sketch, demonstrate, learn, transfer, report, export, objects. Every run
writes its effective configuration (after defaulting) next to its results;
learn/transfer require --seed (or a --seeds range for sweeps).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import GraspMCError, InvalidConfig
from .experiments import (
    _FIELD_KINDS,
    ACTIVE_BIASED_INIT,
    ACTIVE_RANDOM_INIT,
    RANDOM_WALK_BASELINE,
    TRANSFER_EXPERIMENTS,
    ExperimentConfig,
    emit_table,
    export_samples,
    result_from_document,
    result_to_document,
    run_experiment,
)
from .grasping import demonstrate_grasps
from .gripper import default_gripper
from .learning import build_rough_sketch
from .objects import OBJECT_NAMES, get_object, object_catalog
from .serialization import model_from_document, model_to_document, sketch_to_document

LEARN_EXPERIMENTS = (RANDOM_WALK_BASELINE, ACTIVE_RANDOM_INIT, ACTIVE_BIASED_INIT)

# ExperimentConfig's numeric fields but the seed, each settable by its --flag
_CONFIG_FLAGS = tuple(
    f for f in fields(ExperimentConfig)
    if f.name != "seed" and _FIELD_KINDS[f.type] in (Integral, Real)
)
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; CLI flags override its fields")
    for f in _CONFIG_FLAGS:
        kind = int if _FIELD_KINDS[f.type] is Integral else float
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=kind, default=None)
    parser.add_argument("--no-trace", action="store_true", default=None)


def _seed_range(text: str) -> range:
    """--seeds: the inclusive range a..b of integers a <= b."""
    match = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", text)
    if not match or int(match[1]) > int(match[2]):
        raise argparse.ArgumentTypeError(f"expected a..b with integers a <= b, not {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


def _integer_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, not {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, not {value}")
        return value

    return parse


_NONNEGATIVE = _integer_at_least(0)
_POSITIVE = _integer_at_least(1)


def _finite_nonnegative(text: str) -> float:
    """An argparse type: a finite real number no smaller than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, not {text!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, not {text}")
    return value


def _add_seed_flags(parser: argparse.ArgumentParser) -> None:
    seeds = parser.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--seeds", type=_seed_range, help="inclusive range a..b for sweeps")


def _build_config(args: argparse.Namespace, experiment: str, seed: int) -> ExperimentConfig:
    doc: dict = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"--config {args.config} is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidConfig(f"--config {args.config} does not hold a JSON object")
    doc["experiment"] = experiment
    doc["object_name"] = args.object
    doc["seed"] = seed
    for f in _CONFIG_FLAGS:
        if getattr(args, f.name) is not None:
            doc[f.name] = getattr(args, f.name)
    if args.no_trace:
        doc["keep_trace"] = False
    if getattr(args, "source", None):
        doc["source_model"] = args.source
    return ExperimentConfig.from_dict(doc)


def _run_and_write(config: ExperimentConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record, model = run_experiment(config)
    stem = f"{config.experiment}_{config.object_name}_seed{config.seed}"
    (out_dir / f"{stem}.result.json").write_text(result_to_document(record), encoding="utf-8")
    (out_dir / f"{stem}.config.json").write_text(
        json.dumps(record.config, indent=2), encoding="utf-8"
    )
    if model is not None:
        (out_dir / f"{stem}.model.json").write_text(model_to_document(model), encoding="utf-8")
    counts = " ".join(f"{kind}={n}" for kind, n in record.tallies._asdict().items())
    print(f"{stem}: {counts} ({record.duration_seconds:.1f}s)")


def _cmd_sketch(args: argparse.Namespace) -> None:
    obj = get_object(args.object)
    gripper = default_gripper()
    rng = np.random.default_rng(args.seed)
    demos = demonstrate_grasps(obj, gripper, 1, rng)
    sketch = build_rough_sketch(
        obj, gripper, args.iterations, demos[0][0], args.position_sigma, args.kappa, rng
    )
    Path(args.out).write_text(sketch_to_document(sketch), encoding="utf-8")
    print(f"wrote {args.out}: {len(sketch.proposals)} proposals on {args.object}")


def _cmd_demonstrate(args: argparse.Namespace) -> None:
    obj = get_object(args.object)
    rng = np.random.default_rng(args.seed)
    demos = demonstrate_grasps(obj, default_gripper(), args.count, rng)
    doc = {
        "schema": "graspmc.demos/1",
        "object": args.object,
        "grasps": [
            {"state": g.to_vector().tolist(), "quality": q} for g, q in demos
        ],
    }
    Path(args.out).write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(f"wrote {args.out}: {len(demos)} demonstrated grasps on {args.object}")


def _cmd_run(args: argparse.Namespace) -> None:
    """learn and transfer: one run of the preset per seed."""
    for seed in args.seeds or [args.seed]:
        config = _build_config(args, args.experiment, seed)
        _run_and_write(config, Path(args.out_dir))


def _cmd_report(args: argparse.Namespace) -> None:
    records = [
        result_from_document(Path(p).read_text(encoding="utf-8")) for p in args.results
    ]
    csv_text, table_text = emit_table(records)
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.csv}")
    sys.stdout.write(table_text)


def _cmd_export(args: argparse.Namespace) -> None:
    model = model_from_document(Path(args.model).read_text(encoding="utf-8"))
    doc = export_samples(model, success_only=args.success_only)
    Path(args.out).write_text(doc, encoding="utf-8")
    print(f"wrote {args.out}")


def _cmd_objects(args: argparse.Namespace) -> None:
    for obj in object_catalog():
        lo, hi = obj.bounds_lo, obj.bounds_hi
        size = hi - lo
        print(f"{obj.name:14s} size {size[0]*1e3:5.0f} x {size[1]*1e3:5.0f} x {size[2]*1e3:5.0f} mm")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="graspmc", description="Kernel-adaptive, mode-hopping MCMC grasp learning"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sketch", help="run a random-walk sketch on an object")
    p.add_argument("--object", choices=OBJECT_NAMES, required=True)
    p.add_argument("--seed", type=_NONNEGATIVE, required=True)
    p.add_argument(
        "--iterations", type=_POSITIVE, default=_DEFAULTS["burn_in"] + _DEFAULTS["iterations"]
    )
    p.add_argument(
        "--position-sigma", type=_finite_nonnegative, default=_DEFAULTS["position_sigma"]
    )
    p.add_argument("--kappa", type=_finite_nonnegative, default=_DEFAULTS["kappa"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sketch)

    p = sub.add_parser("demonstrate", help="generate demonstrated grasps")
    p.add_argument("--object", choices=OBJECT_NAMES, required=True)
    p.add_argument("--seed", type=_NONNEGATIVE, required=True)
    p.add_argument("--count", type=_POSITIVE, default=_DEFAULTS["demonstration_count"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_demonstrate)

    p = sub.add_parser("learn", help="run a baseline or active-learning preset")
    p.add_argument("--experiment", choices=LEARN_EXPERIMENTS, required=True)
    p.add_argument("--object", choices=OBJECT_NAMES, required=True)
    _add_seed_flags(p)
    p.add_argument("--out-dir", default="results")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("transfer", help="run a transfer-learning preset")
    p.add_argument("--experiment", choices=TRANSFER_EXPERIMENTS, required=True)
    p.add_argument("--object", choices=OBJECT_NAMES, required=True, help="the novel object")
    p.add_argument("--source", required=True, help="LearnedModel JSON from a learn run")
    _add_seed_flags(p)
    p.add_argument("--out-dir", default="results")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="tabulate result documents")
    p.add_argument("results", nargs="+")
    p.add_argument("--csv", help="also write a comma-separated table")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("export", help="export a plot-ready grasp cloud")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--success-only", action="store_true")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("objects", help="list the object catalog")
    p.set_defaults(func=_cmd_objects)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except GraspMCError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
