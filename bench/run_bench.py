"""graspmc benchmark runner.

    python3 bench/run_bench.py --workload {sweep,synthetic,poses} --seed N \
        --seconds S --trace {0,1}

Run from the repository root, with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set to 1 (BENCHMARK.json's command does this). The
runner builds the workload's inputs from the seed (set-up), makes one
untimed warm-up pass, then runs whole rounds of the workload until its
units have been timed for at least S seconds, checks every output, and
prints one JSON line last: correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the public functions of
each graspmc layer are wrapped in timing spans and the metrics are the
per-layer ones. A fuller record goes to bench/out/.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SETUP_SAMPLES = 5  # set-ups per run: this process plus four fresh interpreters


def import_workloads():
    """The workloads module, with graspmc imported from this checkout's src/."""
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH))
    import graspmc

    if Path(graspmc.__file__).resolve().parent != REPO / "src" / "graspmc":
        raise SystemExit(f"graspmc imported from {graspmc.__file__}, not from {REPO / 'src'}")
    import workloads

    return workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "synthetic", "poses"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def setup_in_fresh_interpreter(args) -> float:
    """Set-up time of a new process: imports plus building the inputs."""
    command = [
        sys.executable, str(BENCH / "run_bench.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def median(values):
    return float(statistics.median(values))


def slowdown(work, tracer, pairs: int = 3) -> float:
    """Traced over untraced time of the same work: the median of each over
    `pairs` alternating runs, the tracer switched off and on in place."""
    times = {False: [], True: []}
    for _ in range(pairs):
        for enabled in (False, True):
            tracer.enabled[0] = enabled
            start = time.perf_counter()
            work()
            times[enabled].append(time.perf_counter() - start)
    return median(times[True]) / median(times[False])


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(repr(setup_s))
        return 0

    workload.warm_up()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        workload.instrument(tracer)
        workload.call = tracer.wrap(lambda work: work(), tracing.ROOT)

    # whole rounds until the units' own time reaches --seconds
    units, round_times = [], []
    while sum(round_times) < args.seconds or not round_times:
        batch = workload.run_round()
        units += batch
        round_times.append(sum(u.seconds for u in batch))
    measured_s = sum(round_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check_rounds(units)
    global_failures = workload.global_failures()
    failed = [u for u in units if not u.ok]
    evaluations = sum(u.evaluations for u in units)

    if tracer is None:
        setups = [setup_s] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(round_times), "s"),
            "run_s.p50": (median([u.seconds for u in units]), "s"),
            "evals_per_s": (evaluations / measured_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import tracing

        layers = tracer.summary(len(round_times), slowdown(workload.probe, tracer))
        tracer.uninstall()
        metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": round_times,
        "units": [
            {"name": u.name, "seconds": u.seconds, "evaluations": u.evaluations,
             "error": u.error, "failures": u.failures}
            for u in units
        ],
        "global_failures": global_failures,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (out / f"{stem}.spans.json").write_text(json.dumps(tracer.spans_document()))

    for unit in failed:
        print(f"FAILED {unit.name}: {unit.error or '; '.join(unit.failures)}", file=sys.stderr)
    for failure in global_failures:
        print(f"FAILED check: {failure}", file=sys.stderr)
    result = {
        "correct": not failed and not global_failures,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
