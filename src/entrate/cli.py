"""Command-line front end.

Subcommands
-----------
simulate     integrate an instance and emit a CSV time series
rate         one-step entangling-rate report for a pure-state instance
certify      randomized inequality sweeps, summarized as a JSONL certificate
sweep-rates  scan the cut size d, comparing observed rates to the closed cap

Exit codes: 0 clean; 1 violations found under --strict; 2 usage or file
format problems (including non-pure input where purity is required); 3
numerical failure (integration drift that survives retries).

Instance files are JSON:

    {"state": {"dims": [da, dA, dB, db], "re": ..., "im": ...},
     "generator": {"dims": [da, dA, dB, db],
                   "H": {"re": [[...]], "im": [[...]]} | null,
                   "Ls": [{"re": [[...]], "im": [[...]]}, ...]}}

``state.re/im`` may be a vector (pure state amplitudes) or a square matrix
(density matrix); ``H`` and the ``Ls`` act on the central A ⊗ B factors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certify import FormatError, SweepConfig, _trial_seed, run_sweep
from .dynamics import IntegrationError, LindbladGenerator, evolve, generator_from_json
from .linalg import NumericalFailure, hermitize, partial_trace
from .measures import mutual_information, relative_entropy
from .rates import entangling_rate_fd, entangling_rate_bound, surrogate_rate_fd
from .states import (
    DensityMatrix,
    DimensionSignature,
    PureState,
    closest_separable_state,
    random_gue_hamiltonian,
    random_ginibre_lindblad,
    random_pure,
    schmidt,
    smooth,
    state_from_json,
)

CSV_COLUMNS = (
    "t",
    "trace_err",
    "min_eig",
    "entanglement_entropy_or_surrogate",
    "mutual_information",
    "purity",
)

SWEEP_COLUMNS = ("d", "max_gamma_surrogate_fd", "bound")

PURITY_TOL = 1e-8


def _dims_from_flag(values: list[int]) -> DimensionSignature:
    if len(values) == 2:
        return DimensionSignature.cut(values[0], values[1])
    if len(values) == 4:
        return DimensionSignature(*values)
    raise FormatError("--dims takes two factors (d_A d_B) or four (d_a d_A d_B d_b)")


def _load_instance(path: str):
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read instance {path}: {exc}") from exc
    if not isinstance(obj, dict) or "state" not in obj or "generator" not in obj:
        raise FormatError("instance needs 'state' and 'generator' objects")
    try:
        gen = generator_from_json(obj["generator"])
    except (ValueError, TypeError) as exc:
        raise FormatError(f"bad generator: {exc}") from exc
    try:
        state = state_from_json(obj["state"])
    except (ValueError, TypeError) as exc:
        raise FormatError(f"bad state: {exc}") from exc
    if state.dims != gen.dims:
        raise FormatError("state and generator dims disagree")
    return state, gen


def _random_instance(dims: DimensionSignature, seed: int, n_lindblad: int, with_h: bool):
    rng = np.random.default_rng(seed)
    psi = random_pure(dims, rng)
    ab = dims.d_A * dims.d_B
    h = random_gue_hamiltonian(ab, rng) if with_h else None
    ls = tuple(random_ginibre_lindblad(ab, rng) for _ in range(n_lindblad))
    return psi, LindbladGenerator(dims, h, ls)


def _instance_from_args(args):
    if args.instance:
        return _load_instance(args.instance)
    dims = _dims_from_flag(args.dims) if args.dims else DimensionSignature.cut(2, 2)
    return _random_instance(dims, args.seed, args.lindblad_ops, not args.no_hamiltonian)


def _require_pure(state, what: str) -> PureState:
    if isinstance(state, PureState):
        return state
    purity = state.purity()
    if purity < 1.0 - PURITY_TOL:
        raise FormatError(f"{what} needs a pure state; input has purity {purity:.6f}")
    top = state.eigh()[1][:, -1]
    return PureState(state.dims, top / np.linalg.norm(top))


def _open_out(path):
    return open(path, "w", newline="") if path else sys.stdout


# ------------------------------------------------------------- subcommands

def _cmd_simulate(args) -> int:
    state, gen = _instance_from_args(args)
    if not 0 < args.t_max < math.inf:
        raise FormatError("--t-max must be finite and > 0")
    rho = state.density() if isinstance(state, PureState) else state
    # fixed separable reference: dephased Schmidt mixture for a pure start,
    # product of the initial marginals otherwise; smoothing keeps its
    # spectrum above the support threshold of the relative entropy
    if isinstance(state, PureState):
        reference = smooth(closest_separable_state(schmidt(state)), 1e-9)
    else:
        factors = rho.dims.factors()
        prod = np.kron(
            partial_trace(rho.matrix, factors, keep=(0, 1)),
            partial_trace(rho.matrix, factors, keep=(2, 3)),
        )
        reference = smooth(DensityMatrix(rho.dims, hermitize(prod)), 1e-9)
    times = np.linspace(0.0, args.t_max, args.samples)
    seg = times[1] - times[0]
    seg_steps = max(32, int(math.ceil(seg / 1e-3)))
    handle = _open_out(args.out)
    try:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        current = rho
        for idx, t in enumerate(times):
            if idx > 0:
                for attempt in range(4):
                    try:
                        current = evolve(gen, current, seg, steps=seg_steps)
                        break
                    except IntegrationError as exc:
                        if attempt == 3:
                            raise
                        seg_steps = exc.suggested_steps
            tr = current.matrix.trace()
            writer.writerow(
                [
                    f"{t:.10g}",
                    repr(abs(float(np.real(tr)) - 1.0) + abs(float(np.imag(tr)))),
                    repr(float(current.spectrum.min())),
                    repr(relative_entropy(current, reference)),
                    repr(mutual_information(current)),
                    repr(current.purity()),
                ]
            )
    finally:
        if handle is not sys.stdout:
            handle.close()
    return 0


def _cmd_rate(args) -> int:
    state, gen = _instance_from_args(args)
    psi = _require_pure(state, "rate")
    delta_ts = args.delta_t or [1e-4]
    reports = []
    for dt in delta_ts:
        rep = entangling_rate_fd(
            psi, gen, dt, args.measure, eta=args.eta, eta_ref=args.eta_ref, seed=args.seed
        )
        reports.append({**dataclasses.asdict(rep), "dims": list(rep.dims.factors())})
    text = json.dumps({"reports": reports}, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.strict and any(r["margin"] < 0 for r in reports):
        return 1
    return 0


def _cmd_certify(args) -> int:
    if args.config:
        try:
            obj = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read config {args.config}: {exc}") from exc
        config = SweepConfig.from_json(obj)
    else:
        config = SweepConfig()
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    config = dataclasses.replace(config, **overrides)
    cert = run_sweep(config, workers=args.workers)
    for fam in config.families:
        row = cert.families[fam]
        worst = row["worst_margin"]
        print(
            f"{fam:15s} {row['status']:13s} trials={row['trials']:<6d} "
            f"violations={row['violations']:<4d} failures={row['numerical_failures']:<4d} "
            f"worst_margin={'n/a' if worst is None else format(worst, '.3e')}"
        )
    print(f"status: {cert.status} ({cert.runtime_s:.1f}s)")
    if args.out:
        cert.write(args.out)
        print(f"certificate written to {args.out}")
    if cert.status == "violated":
        return 1 if args.strict else 0
    if cert.status == "inconclusive":
        return 3
    return 0


def _cmd_sweep_rates(args) -> int:
    dims_list = args.dims or [2, 3, 4]
    if any(d < 2 for d in dims_list):
        raise FormatError("sweep-rates cut sizes must be >= 2")
    if args.delta_t and len(args.delta_t) > 1:
        raise FormatError(f"sweep-rates takes one --delta-t, got {len(args.delta_t)}")
    delta_t = (args.delta_t or [1e-4])[0]
    rows = []
    for d in dims_list:
        sig = DimensionSignature.cut(d, d)
        best = -math.inf
        bound = None
        for i in range(args.trials):
            seed = _trial_seed(args.seed, "sweep-rates", {"d": d}, i)
            psi, gen = _random_instance(sig, seed, args.lindblad_ops, not args.no_hamiltonian)
            if bound is None:
                bound = entangling_rate_bound(gen)
            best = max(best, surrogate_rate_fd(psi, gen, delta_t, eta_ref=args.eta_ref))
        rows.append((d, best, bound))
    handle = _open_out(args.out)
    try:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_COLUMNS)
        for d, best, bound in rows:
            writer.writerow([d, repr(best), repr(bound)])
    finally:
        if handle is not sys.stdout:
            handle.close()
    if args.strict and any(best > bound for _, best, bound in rows):
        return 1
    return 0


# ------------------------------------------------------------------ parser

def _at_least(minimum: int):
    """argparse type for a count flag: an integer >= ``minimum``.  A value
    out of range is a usage error (exit 2) naming the flag, never clamped."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _add_instance_flags(sp):
    sp.add_argument("--instance", help="instance JSON file (see module help for the schema)")
    sp.add_argument("--dims", type=int, nargs="+", metavar="D",
                    help="random instance factor dims: 'd_A d_B' or 'd_a d_A d_B d_b'")
    sp.add_argument("--seed", type=int, default=0, help="seed for random instances (default 0)")
    sp.add_argument("--lindblad-ops", type=_at_least(0), default=1, metavar="K",
                    help="number of jump operators for random instances (default 1)")
    sp.add_argument("--no-hamiltonian", action="store_true",
                    help="random instance without a coherent term")


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves it unchanged, and no flag has
    # a mutable default (the repeatable flags default to None)
    parser = argparse.ArgumentParser(
        prog="entrate",
        description="Entangling-rate laboratory for open bipartite systems.",
        epilog="Instance files are JSON:" + __doc__.split("Instance files are JSON:")[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate an instance, emit CSV time series")
    _add_instance_flags(sim)
    sim.add_argument("--t-max", type=float, default=1.0, help="horizon (default 1.0)")
    sim.add_argument("--samples", type=_at_least(2), default=50, help="CSV rows (default 50)")
    sim.add_argument("--out", help="CSV path (default stdout)")
    sim.set_defaults(func=_cmd_simulate)

    rate = sub.add_parser("rate", help="one-step entangling-rate report (pure states only)")
    _add_instance_flags(rate)
    rate.add_argument("--delta-t", type=float, action="append", metavar="DT",
                      help="step size; repeatable (default 1e-4)")
    rate.add_argument("--eta", type=float, default=1e-8,
                      help="smoothing for the analytic derivative (default 1e-8)")
    rate.add_argument("--eta-ref", type=float, default=1e-13,
                      help="regularization of the separable reference (default 1e-13)")
    rate.add_argument("--measure", choices=("surrogate", "bruteforce"), default="surrogate")
    rate.add_argument("--out", help="JSON report path (default stdout)")
    rate.add_argument("--strict", action="store_true", help="exit 1 if any margin is negative")
    rate.set_defaults(func=_cmd_rate)

    cert = sub.add_parser("certify", help="run randomized inequality sweeps")
    cert.add_argument("--config", help="sweep config JSON (defaults are used if omitted)")
    cert.add_argument("--trials", type=int, help="override trials per cell")
    cert.add_argument("--seed", type=int, help="override the base seed")
    cert.add_argument("--out", help="write the JSONL certificate here")
    cert.add_argument("--workers", type=_at_least(1), default=1, help="parallel worker processes")
    cert.add_argument("--strict", action="store_true", help="exit 1 when violations are found")
    cert.set_defaults(func=_cmd_certify)

    sweep = sub.add_parser("sweep-rates", help="max observed rate vs the closed-form cap, per d")
    sweep.add_argument("--dims", type=int, nargs="+", metavar="D", help="cut sizes d (default 2 3 4)")
    sweep.add_argument("--trials", type=_at_least(1), default=50, help="instances per d (default 50)")
    sweep.add_argument("--delta-t", type=float, action="append", metavar="DT",
                       help="finite-difference step (default 1e-4)")
    sweep.add_argument("--eta-ref", type=float, default=1e-13,
                       help="regularization of the separable reference (default 1e-13)")
    sweep.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sweep.add_argument("--lindblad-ops", type=_at_least(0), default=1, metavar="K",
                       help="jump operators per instance (default 1)")
    sweep.add_argument("--no-hamiltonian", action="store_true")
    sweep.add_argument("--out", help="CSV path (default stdout)")
    sweep.add_argument("--strict", action="store_true", help="exit 1 if any observed rate beats the cap")
    sweep.set_defaults(func=_cmd_sweep_rates)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
