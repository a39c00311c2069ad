"""Span tracing of graspmc's public functions, installed from outside.

`Tracer.install()` replaces each traced public function with a timing
wrapper in every module that holds a reference to it (the defining module
and every `from .x import f` caller), and on the class for methods. Each
call records one span in memory: name, start, end, parent span and a
detail taken from the call's arguments or result. Nothing under `src/` is
edited; `uninstall()` puts the originals back.

SDF tree evaluations are counted rather than spanned: the first traced
`ObjectModel.distance`/`normal` call on a shape puts a counting wrapper on
that shape's root `distance`, so a central-difference normal counts as the
six tree evaluations it makes.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable

import numpy as np

import graspmc.darting as darting
import graspmc.experiments as experiments
import graspmc.grasping as grasping
import graspmc.kameleon as kameleon
import graspmc.learning as learning
import graspmc.linalg as linalg
import graspmc.objects as objects
import graspmc.serialization as serialization
import graspmc.vmf as vmf

EVAL_KINDS = ("success", "slipped", "collision", "miss_cull", "miss_contact")
ROOT = "workload"


def _eval_kind(args, kwargs, outcome) -> str:
    """Outcome kind, with a miss split by whether the workspace cull fired."""
    if outcome.kind != grasping.MISS:
        return outcome.kind
    grasp, obj, gripper = args[:3]
    config = args[3] if len(args) > 3 else kwargs.get("config", grasping.DEFAULT_EVALUATION)
    lo, hi = grasping.workspace_bounds(obj, gripper, config)
    culled = np.any(grasp.position < lo) or np.any(grasp.position > hi)
    return "miss_cull" if culled else "miss_contact"


def _darting_move(args, kwargs, step) -> str:
    if step.proposal is None:
        return "recount"
    return "jump" if step.jumped else "reject"


def _iterations(args, kwargs, history) -> int:
    return args[2] if len(args) > 2 else kwargs["iterations"]


# (function, span name, detail(args, kwargs, result) or None)
TRACED = (
    (grasping.evaluate_grasp, "eval", _eval_kind),
    (grasping.demonstrate_grasps, "demo", lambda a, k, found: len(found)),
    (grasping.sample_surface_point, "demo.surface", None),
    (learning.build_rough_sketch, "sketch", None),
    (learning.run_combined_chain, "chain", _iterations),
    (kameleon.kameleon_step, "kameleon", lambda a, k, step: step.accepted),
    (kameleon.covariance_at, "kameleon.cov", None),
    (kameleon.subsample_history, "subsample", None),
    (darting.darting_step, "darting", _darting_move),
    (linalg.sample_gaussian, "linalg", None),
    (linalg.gaussian_logpdf, "linalg", None),
    (vmf.sample_vmf, "vmf", None),
    (serialization.model_to_document, "doc.write", lambda a, k, text: len(text)),
    (serialization.model_from_document, "doc.read", None),
)


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if ".us" in metric:
        return "us"
    special = {
        "sdf.ns_per_point": "ns",
        "sdf.calls_per_eval": "calls/eval",
        "demo.yield": "demos/eval",
        "doc.mb": "MB",
        "trace.overhead_pct": "%",
        "trace.coverage": "ratio",
    }
    if metric in special:
        return special[metric]
    return "ratio" if metric.endswith("_rate") else "count"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.details: list[object] = []
        self.tree_evaluations = [0, 0]  # SDF tree evaluations, points
        self.enabled = [True]  # switched off, the wrappers call straight through
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name, detail: Callable | None = None) -> Callable:
        """fn with a span around each call. `name` is a string or a function
        of the call's arguments; detail(args, kwargs, result) is stored."""
        names, starts, ends, parents, details = (
            self.names, self.starts, self.ends, self.parents, self.details
        )
        stack, enabled = self._stack, self.enabled
        clock = time.perf_counter
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            if not enabled[0]:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name if fixed else name(*args, **kwargs))
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            details.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if detail is not None:
                details[index] = detail(args, kwargs, result)
            return result

        return traced

    def _count_tree(self, shape) -> None:
        if "distance" in vars(shape):
            return
        evaluate, counter = shape.distance, self.tree_evaluations

        def counted(points):
            counter[0] += 1
            counter[1] += np.size(points) // 3
            return evaluate(points)

        shape.distance = counted

    def _sdf_span(self, method: Callable, name: str) -> Callable:
        """Span around an ObjectModel method; detail is (evaluations, points)."""
        counter, enabled = self.tree_evaluations, self.enabled
        delta = []

        def measured(model, *args, **kwargs):
            if not enabled[0]:
                return method(model, *args, **kwargs)
            self._count_tree(model.shape)
            calls, points = counter
            result = method(model, *args, **kwargs)
            delta.append((counter[0] - calls, counter[1] - points))
            return result

        return self.wrap(measured, name, lambda a, k, r: delta.pop())

    def _replace_everywhere(self, original: Callable, replacement: Callable, extra_modules) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("graspmc")]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, extra_modules=()) -> None:
        """Patch every traced function where its callers look it up;
        extra_modules are the benchmark's own modules."""
        for attr in ("distance", "normal"):
            method = getattr(objects.ObjectModel, attr)
            self._patches.append((objects.ObjectModel, attr, method))
            setattr(objects.ObjectModel, attr, self._sdf_span(method, f"sdf.{attr}"))
        for fn, name, detail in TRACED:
            self._replace_everywhere(fn, self.wrap(fn, name, detail), extra_modules)
        self._replace_everywhere(
            experiments.run_experiment,
            self.wrap(experiments.run_experiment, lambda config, *a, **k: f"run.{config.experiment}"),
            extra_modules,
        )
        make_target = grasping.make_target

        def traced_make_target(*args, **kwargs):
            return self.wrap(make_target(*args, **kwargs), "target")

        self._replace_everywhere(make_target, traced_make_target, extra_modules)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans_document(self) -> dict:
        return {"name": self.names, "start": self.starts, "end": self.ends, "parent": self.parents}

    def summary(self, rounds: int, slowdown: float) -> dict[str, float]:
        """Every per-layer metric, from the spans recorded inside root spans.

        Counts and times are per round of the workload; per-call times,
        rates and medians are over all rounds. A layer the workload never
        entered reads 0. `slowdown` is traced over untraced time of the
        same work, measured by the caller."""
        n = len(self.names)
        names = np.array(self.names, dtype=object)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=int)
        parent_names = np.array([self.names[p] if p >= 0 else "" for p in self.parents], dtype=object)
        child_time = np.bincount(parents + 1, weights=duration, minlength=n + 1)[1:]
        self_time = duration - child_time
        details = self.details
        in_root = np.zeros(n, dtype=bool)
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            in_root[i] = name == ROOT or (parent >= 0 and in_root[parent])

        def spans(name: str) -> np.ndarray:
            return np.nonzero((names == name) & in_root)[0]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def median_us(values) -> float:
            return 1e6 * statistics.median(values) if len(values) else 0.0

        m: dict[str, float] = {}

        sdf = np.concatenate([spans("sdf.distance"), spans("sdf.normal")])
        sdf_calls = sum(details[i][0] for i in sdf)
        sdf_points = sum(details[i][1] for i in sdf)
        sdf_self = float(self_time[sdf].sum())
        evals = spans("eval")
        m["sdf.calls"] = sdf_calls / rounds
        m["sdf.points"] = sdf_points / rounds
        m["sdf.self_s"] = sdf_self / rounds
        m["sdf.us_per_call"] = 1e6 * ratio(sdf_self, sdf_calls)
        m["sdf.ns_per_point"] = 1e9 * ratio(sdf_self, sdf_points)
        in_eval = sum(details[i][0] for i in sdf if parent_names[i] == "eval")
        m["sdf.calls_per_eval"] = ratio(in_eval, evals.size)

        m["eval.calls"] = evals.size / rounds
        m["eval.self_s"] = float(self_time[evals].sum()) / rounds
        for kind in EVAL_KINDS:
            m[f"eval.us.{kind}"] = median_us([duration[i] for i in evals if details[i] == kind])

        demos = spans("demo")
        demo_evals = int(np.sum(parent_names[evals] == "demo"))
        m["demo.s"] = float(duration[demos].sum()) / rounds
        m["demo.calls"] = demos.size / rounds
        m["demo.evals"] = demo_evals / rounds
        m["demo.surface_s"] = float(duration[spans("demo.surface")].sum()) / rounds
        m["demo.yield"] = ratio(sum(details[i] for i in demos), demo_evals)

        m["sketch.s"] = float(duration[spans("sketch")].sum()) / rounds
        m["chain.self_s"] = float(self_time[spans("chain")].sum()) / rounds
        m["chain.steps"] = sum(details[i] for i in spans("chain")) / rounds

        # time a step spends outside the target it calls
        target_time = np.where(names == "target", duration, 0.0)
        target_children = np.bincount(parents + 1, weights=target_time, minlength=n + 1)[1:]
        for layer in ("kameleon", "darting"):
            steps = spans(layer)
            m[f"{layer}.steps"] = steps.size / rounds
            m[f"{layer}.self_s"] = float(self_time[steps].sum()) / rounds
            own = float((duration[steps] - target_children[steps]).sum())
            m[f"{layer}.us_per_step"] = 1e6 * ratio(own, steps.size)
        steps = spans("kameleon")
        m["kameleon.cov_s"] = float(duration[spans("kameleon.cov")].sum()) / rounds
        m["subsample.s"] = float(duration[spans("subsample")].sum()) / rounds
        m["kameleon.accept_rate"] = ratio(sum(bool(details[i]) for i in steps), steps.size)
        moves = [details[i] for i in spans("darting")]
        m["darting.jump_accept_rate"] = ratio(moves.count("jump"), len(moves) - moves.count("recount"))
        m["darting.recount_rate"] = ratio(moves.count("recount"), len(moves))

        m["linalg.calls"] = spans("linalg").size / rounds
        m["linalg.self_s"] = float(self_time[spans("linalg")].sum()) / rounds
        m["vmf.samples"] = spans("vmf").size / rounds
        m["vmf.s"] = float(duration[spans("vmf")].sum()) / rounds
        m["target.calls"] = spans("target").size / rounds
        m["target.s"] = float(duration[spans("target")].sum()) / rounds

        m["doc.write_s"] = float(duration[spans("doc.write")].sum()) / rounds
        m["doc.read_s"] = float(duration[spans("doc.read")].sum()) / rounds
        m["doc.mb"] = sum(details[i] for i in spans("doc.write")) / 1e6 / rounds
        for preset in experiments.EXPERIMENTS:
            runs = duration[spans(f"run.{preset}")]
            m[f"run.{preset}.s"] = float(np.median(runs)) if runs.size else 0.0

        roots = spans(ROOT)
        inside = int(in_root.sum()) - roots.size
        wall = float(duration[roots].sum())
        other = float(self_time[roots].sum())
        overhead = wall * (1.0 - 1.0 / slowdown)
        m["trace.wall_s"] = wall / rounds
        m["trace.spans"] = inside / rounds
        m["trace.layers_s"] = (wall - other) / rounds
        m["trace.other_s"] = other / rounds
        m["trace.coverage"] = ratio(wall - other, wall)
        m["trace.overhead_s"] = overhead / rounds
        m["trace.overhead_pct"] = 100.0 * (slowdown - 1.0)
        return {k: float(v) for k, v in m.items()}
