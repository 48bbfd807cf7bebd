"""The benchmark's workloads: inputs made from a seed, one pass, and its check.

Every workload is a closed loop with one caller: the next pass is issued only
after the previous one has returned and been checked.  Pass ``i`` of a run
with seed ``s`` draws its inputs from ``pass_seed(s, i)``, so a run covers
many independent inputs and the same seed always gives the same inputs.

Seeds: ``default_seed`` is the one quoted in the README and used to record
reference outputs; ``held_out_seed`` was never used while sizing the
benchmark and is there to confirm a claimed gain on inputs it was not tuned
on.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import entrate.certify
import entrate.cli
from entrate.certify import SweepConfig, cells_for

from bootstrap import ROOT

OUT_DIR = ROOT / ".bench_out"
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# seeds of successive passes lie this far apart, so runs with nearby seeds
# share no inputs
STRIDE = 1_000_003


def pass_seed(seed: int, index: int) -> int:
    return seed + index * STRIDE


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class PassResult:
    ops: int
    failed: int
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepWorkload:
    """``entrate certify`` with its default families and grid, as a library
    call: one ``run_sweep`` per pass."""

    name: str
    why: str
    default_seed: int
    held_out_seed: int
    trials: int
    nominal_pass_s: float
    workers: int = 1
    unit = "trial"

    def inputs(self, seed: int, index: int, smoke: bool = False) -> SweepConfig:
        trials = 1 if smoke else self.trials
        return SweepConfig(trials=trials, base_seed=pass_seed(seed, index))

    def pooled(self) -> "SweepWorkload":
        """The same passes on the process-pool path, one worker per core."""
        return dataclasses.replace(self, workers=max(2, nproc()))

    def run(self, config: SweepConfig) -> PassResult:
        # looked up at call time so a traced run can wrap it
        return check_certificate(entrate.certify.run_sweep(config, workers=self.workers), config)


def check_certificate(cert, config: SweepConfig) -> PassResult:
    """status ok, no violations, and every cell ran the configured trials."""
    problems = []
    expected = {fam: config.trials * len(cells_for(fam, config)) for fam in config.families}
    counts = dict.fromkeys(("trials", "violations", "numerical_failures", "optimizer_stalls"), 0)
    for fam, want in expected.items():
        row = cert.families.get(fam)
        if row is None:
            problems.append(f"family {fam} missing from the certificate")
            continue
        if row["trials"] != want:
            problems.append(f"family {fam} ran {row['trials']} trials, expected {want}")
        for key in counts:
            counts[key] += row[key]
    if cert.status != "ok":
        problems.append(f"certificate status {cert.status!r}")
    if counts["violations"]:
        problems.append(f"{counts['violations']} violations")
    ops = sum(expected.values())
    failed = ops if problems else counts["violations"] + counts["numerical_failures"]
    return PassResult(ops, failed, problems, {f"certify.{k}": v for k, v in counts.items()})


@dataclass(frozen=True)
class SimulateWorkload:
    """``entrate simulate`` through the CLI entry point, one call per pass.

    Pass 0 of every run integrates the reference instance (the default
    seed), whose final CSV row is compared with the values recorded in
    ``reference.json``; the cost of a pass does not depend on the instance.
    """

    name: str
    why: str
    default_seed: int
    held_out_seed: int
    argv: tuple[str, ...]
    smoke_argv: tuple[str, ...]
    nominal_pass_s: float
    unit = "row"

    def inputs(self, seed: int, index: int, smoke: bool = False) -> list[str]:
        instance = self.default_seed if index == 0 else pass_seed(seed, index)
        return [*(self.smoke_argv if smoke else self.argv), "--seed", str(instance)]

    def pooled(self) -> None:
        """simulate has no process-pool path."""
        return None

    def run(self, argv: list[str]) -> PassResult:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{self.name}-{os.getpid()}.csv"
        try:
            code = entrate.cli.main([*argv, "--out", str(out)])
            rows = _read_rows(out) if code == 0 else []
        finally:
            out.unlink(missing_ok=True)
        samples = int(argv[argv.index("--samples") + 1])
        return check_rows(code, rows, samples, REFERENCE.get(self.name), argv)


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_rows(code: int, rows, samples: int, reference: dict | None, argv) -> PassResult:
    """Exit 0, the CSV schema, trace and positivity on every row, and the
    final row of the reference instance within the recorded tolerance."""
    if code != 0:
        return PassResult(samples, samples, [f"simulate exited with code {code}"])
    if not rows or tuple(rows[0]) != entrate.cli.CSV_COLUMNS or len(rows) != samples + 1:
        return PassResult(samples, samples, ["CSV header or row count wrong"])
    data = [[float(x) for x in row] for row in rows[1:]]
    bad = sum(1 for row in data if not (abs(row[1]) <= 1e-8 and row[2] >= -1e-8))
    problems = [f"{bad} rows with trace_err > 1e-8 or min_eig < -1e-8"] if bad else []
    if reference is not None and list(argv) == reference["argv"]:
        want = reference["final_row"]
        atol, rtol = reference["atol"], reference["rtol"]
        off = [
            col
            for col, got, exp in zip(entrate.cli.CSV_COLUMNS, data[-1], want)
            if abs(got - exp) > atol + rtol * abs(exp)
        ]
        if off:
            problems.append(f"final row differs from the reference in {', '.join(off)}")
            bad = samples
    return PassResult(samples, bad, problems)


# nominal_pass_s: one full-size pass on the 2-vCPU Xeon (2.0 GHz) box the
# benchmark was sized on; it only sets how many passes a traced run makes

WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="certify-default",
            why="the entrate certify batch job: all nine families, 62 cells, mixed RK4, see-saw and small linalg",
            default_seed=2024,
            held_out_seed=8128,
            trials=5,
            nominal_pass_s=1.3,
        ),
        SimulateWorkload(
            name="simulate-d64",
            why="full-size 64-dim GKSL integration: BLAS matmuls in apply_generator, no certify or see-saw",
            default_seed=0,
            held_out_seed=6174,
            argv=(
                "simulate", "--dims", "2", "4", "4", "2", "--lindblad-ops", "3",
                "--t-max", "1.0", "--samples", "50",
            ),
            smoke_argv=(
                "simulate", "--dims", "2", "4", "4", "2", "--lindblad-ops", "3",
                "--t-max", "0.04", "--samples", "3",
            ),
            nominal_pass_s=6.5,
        ),
    )
}
