"""Benchmark for entrate: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload certify-default --seed 2024 --seconds 50 --trace 0

Runs the workload as a closed loop for ``--seconds`` after one untimed
warm-up pass, checks every pass's output, and prints one line per metric
(value, unit, sample count) followed by a last line of JSON:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs a fixed number of passes (sized so the run takes about ``--seconds`` on
the hardware the benchmark was sized on) untraced, then for the sweep on a
process pool with one worker per core, then traced, all over the same
inputs.  It reports the per-layer metrics, the tracing overhead (untraced ÷
traced ops/s) and the pool's parallel efficiency; the spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

Exit codes: 0 all outputs correct; 1 a pass failed its check; 2 usage
error or no ``src/entrate`` in this checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bootstrap import BLAS_THREADS, MissingLibrary, bootstrap

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


@dataclass
class Phase:
    """Timed passes of one closed loop."""

    rates: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        # Pooled over the passes, not their median: on a shared host the
        # core's speed flips between two levels about 1.5x apart for seconds
        # at a time, and the median pass rate jumps with the level the
        # majority of passes landed on.  On the same passes the pooled rate
        # spread half as much across runs as the median.
        return self.ops / sum(self.durations)


def run_phase(workload, seed: int, smoke: bool, *, seconds=None, passes=None, tracer=None) -> Phase:
    """Issue passes 0, 1, 2, ...: exactly ``passes`` of them, or until
    ``seconds`` are used up, stopping when a pass as long as the last one
    would end more than half of it late."""
    phase = Phase()
    start = perf_counter()
    index = 0
    while True:
        inputs = workload.inputs(seed, index, smoke)
        t0 = perf_counter()
        if tracer is None:
            result = workload.run(inputs)
        else:
            with tracer.span("bench.pass"):
                result = workload.run(inputs)
        took = perf_counter() - t0
        phase.rates.append(result.ops / took)
        phase.durations.append(took)
        phase.ops += result.ops
        phase.failed += result.failed
        phase.problems += [f"pass {index}: {p}" for p in result.problems]
        for key, value in result.counts.items():
            phase.counts[key] = phase.counts.get(key, 0) + value
        index += 1
        if passes is not None:
            if index == passes:
                return phase
        elif perf_counter() - start + took / 2 > seconds:
            return phase


def setup_seconds(name: str, seed: int, probes: int) -> list[float]:
    """Spawn-to-ready times of fresh interpreters (see probe.py)."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed)]
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            took = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(took)
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child it waited for
    (the set-up probes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment() -> str:
    import numpy as np
    from workloads import nproc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas['name']} {blas.get('version', '?')}, nproc {nproc()}, "
        f"BLAS threads {BLAS_THREADS}"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal pass sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap()
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer, metric_units
    from workloads import OUT_DIR, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"# entrate benchmark: workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# {environment()}")
    print(f"# seeds: default {workload.default_seed}, held out {workload.held_out_seed}; {workload.why}")
    workload.run(workload.inputs(args.seed, 0, smoke=True))  # warm-up, untimed

    rows = []  # (name, value, unit, samples)
    if args.trace == 0:
        setup = setup_seconds(workload.name, args.seed, 1 if args.smoke else SETUP_PROBES)
        phase = run_phase(workload, args.seed, args.smoke, seconds=args.seconds)
        phases = [phase]
        rows += [
            ("ops_per_s", phase.ops_per_s, "1/s",
             f"{workload.unit}s/s pooled over {len(phase.rates)} passes; "
             f"per-pass median {statistics.median(phase.rates):.6g}"),
            ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
            ("peak_rss_mb", peak_rss_mb(), "MB", "1 benchmark process and its children"),
        ]
    else:
        # a fixed number of passes, so that for one seed and --seconds every
        # count repeats exactly; each phase replays the same inputs
        pooled = workload.pooled()
        share = args.seconds / (2 if pooled is None else 3)
        passes = max(1, round(share / workload.nominal_pass_s))
        untraced = run_phase(workload, args.seed, args.smoke, passes=passes)
        phases = [untraced]
        efficiency = 0.0
        if pooled is not None:
            parallel = run_phase(pooled, args.seed, args.smoke, passes=passes)
            phases.append(parallel)
            efficiency = parallel.ops_per_s / (pooled.workers * untraced.ops_per_s)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, args.seed, args.smoke, passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        for key, value in traced.counts.items():
            tracer.totals[key] += value
        layer = tracer.layer_metrics()
        layer["certify.parallel_efficiency"] = efficiency
        layer["trace.overhead"] = untraced.ops_per_s / traced.ops_per_s
        layer["trace.wall_s"] = sum(traced.durations)
        units = metric_units()
        samples = f"{len(traced.durations)} traced passes"
        rows += [(name, layer[name], unit, samples) for name, unit in units.items()]
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"# {layer['trace.spans']} spans written to {spans.relative_to(OUT_DIR.parent)}")

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [p for ph in phases for p in ph.problems]
    for problem in problems[:20]:
        print(f"# check failed: {problem}")
    for name, value, unit, samples in rows:
        print(f"{name:40s} {value:14.6g} {unit:6s} ({samples})")
    print(f"{'failed_frac':40s} {failed / attempted:14.6g} {'ratio':6s} ({attempted} {workload.unit}s attempted)")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
