"""Benchmark of the SpecASR reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload decode-corpus --seed 1 --seconds 15 --trace 0

Workloads: ``decode-corpus``, ``serve-capacity`` and ``serve-live`` (see
``perfbench/README.md``).  Every input is generated from ``--seed``.

``--trace 0`` times passes of the workload for ``--seconds`` with no wrapper
installed and prints the end-to-end metrics; host time is counted in
reference seconds (``perfbench/calibration.py``).  ``--trace 1`` runs one
untraced and one traced pass, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.perfbench/`` as gzipped Chrome
trace-event JSON.  Either way the outputs are checked; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh processes timed per run; ``setup_s`` is the median of their
#: reference seconds (CPU time scaled by the sampled machine speed).
SETUP_SAMPLES = 5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: time set-up alone in this fresh process and print seconds.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def _setup_seconds(args) -> float:
    """Median set-up reference seconds over fresh interpreter processes.

    Each probe reports its own time from process start to the end of set-up,
    so interpreter start and imports are included.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--seconds",
                "0",
                "--trace",
                "0",
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def _environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def _timed(workload, args) -> tuple[dict, list[str], int, int]:
    from perfbench.calibration import SpeedSampler
    from perfbench.workloads import END_TO_END

    setup_s = _setup_seconds(args)
    state = workload.setup(args.seed)
    problems = workload.prepare(state)
    passes = []
    deadline = time.perf_counter() + args.seconds
    with SpeedSampler() as sampler:
        # Every input draw once, then another pass only if it should still
        # end inside the budget.
        while len(passes) < workload.draws or (
            time.perf_counter() + passes[-1].wall_s <= deadline
        ):
            result = workload.run_pass(state, len(passes))
            problems += result.problems
            if len(passes) >= workload.draws:
                if result.sim != passes[len(passes) % workload.draws].sim:
                    problems.append(f"pass {len(passes)} repeated a draw differently")
                # Only the first pass of each draw feeds the metrics: holding
                # the repeats' outputs would make peak memory grow with
                # machine speed.
                result.sim = result.extra = None
            passes.append(result)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics: dict = {}
    if not problems:
        values, notes = workload.metrics(state, passes)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        for name, unit in END_TO_END:
            print(f"  {name:<22} {values[name]:>14.6g} {unit}")
            if math.isfinite(values[name]):
                metrics[name] = {"value": values[name], "unit": unit}
            else:  # a tail rank that reaches failed requests
                problems.append(f"{name} is missing: too many requests failed")
        wall = statistics.median(p.wall_s for p in passes)
        cpu = statistics.median(p.cpu_s for p in passes)
        print(
            f"  ({len(passes)} timed passes, median wall {wall:.4g} s,"
            f" CPU {cpu:.4g} s; {sampler.samples} speed samples;"
            f" setup median of {SETUP_SAMPLES})"
        )
        for label, value, unit in notes:
            print(f"  also {label:<26} {value:>14.6g} {unit}")
    return metrics, problems, attempted, failed


def _traced(workload, args) -> tuple[dict, list[str], int, int]:
    from perfbench.layers import Counters, per_layer, targets
    from perfbench.tracing import Tracer, installed

    setup_tracer = Tracer()
    with installed(setup_tracer, targets(Counters())):
        state = workload.setup(args.seed)
    problems = workload.prepare(state)
    untraced = workload.run_pass(state, 0)
    tracer, counters = Tracer(), Counters()
    with installed(tracer, targets(counters)):
        traced = workload.run_pass(state, 0)
    problems += untraced.problems + traced.problems
    if traced.sim != untraced.sim:
        problems.append("the traced pass changed the sim outputs")
    layers = per_layer(tracer, counters, setup_tracer, traced.wall_s, untraced.wall_s)
    path = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.trace.json.gz"
    tracer.write(path, _environment(args))
    print(f"  spans written to {path.relative_to(ROOT)}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    attempted = untraced.attempted + traced.attempted
    return metrics, problems, attempted, untraced.failed + traced.failed


def _setup_probe(args) -> int:
    """Time imports and set-up in this fresh process; print reference s."""
    from perfbench.calibration import SpeedSampler

    # Set-up is short: sample the machine's speed more often than in passes.
    with SpeedSampler(interval_s=0.05, from_process_start=True) as sampler:
        from perfbench.workloads import WORKLOADS

        WORKLOADS[args.workload].setup(args.seed)
        print(sampler.reference_s())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        return _setup_probe(args)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("perfbench " + json.dumps(_environment(args)))
    run = _traced if args.trace else _timed
    metrics, problems, attempted, failed = run(workload, args)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
