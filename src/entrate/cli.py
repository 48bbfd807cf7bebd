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

``simulate`` takes its states from ``dynamics.evolve_series`` a chunk at a
time and measures each chunk with the stacked kernels of ``measures``: the
relative entropy to a fixed separable reference whose log is formed once
(in closed form in the Schmidt product basis for a pure start), the mutual
information and the purity, from the spectra the drift check computed.
Both CSV writers print every number as a plain float repr.

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
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certify import FormatError, SweepConfig, _trial_seed, run_sweep
# evolve, relative_entropy and mutual_information are not called here, but
# perfbench's traced runs wrap these names, so they stay importable from cli
from .dynamics import IntegrationError, LindbladGenerator, _trace_error, evolve, evolve_series, generator_from_json
from .linalg import NumericalFailure, dag, hermitize, partial_trace
from .measures import _mutual_informations, _relative_entropies, mutual_information, relative_entropy
from .rates import _schmidt_logs, entangling_rate_fd, entangling_rate_bound, surrogate_rate_analytic, surrogate_rate_fd
from .states import (
    SUPPORT_TOL,
    DensityMatrix,
    DimensionSignature,
    PureState,
    _purities,
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

# smoothing of simulate's separable reference toward the maximally mixed state
REFERENCE_ETA = 1e-9


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


@contextlib.contextmanager
def _csv_out(path, columns):
    """A CSV writer on the file at ``path`` (stdout if none) that has written
    the header row ``columns``."""
    handle = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(columns)
        yield writer
    finally:
        if handle is not sys.stdout:
            handle.close()


# ------------------------------------------------------------- subcommands

def _reference_log(state, rho: DensityMatrix) -> np.ndarray:
    """ln of the series' fixed separable reference, smoothed by
    ``REFERENCE_ETA``: the dephased Schmidt mixture of a pure start, in closed
    form, or the product of a mixed start's marginals.  No eigenvalue of the
    reference is at or below ``SUPPORT_TOL``, so no state leaks out of its
    support and no row needs the relative entropy's leak check."""
    n = rho.dims.total
    if isinstance(state, PureState):
        # ln f I + sum_n b_n |v_n><v_n| with f = eta/n (rates module
        # docstring); every eigenvalue of the reference is at least f
        v, _, b = _schmidt_logs(schmidt(state), REFERENCE_ETA)
        log_s = (v * b) @ dag(v)
        log_s.flat[:: n + 1] += math.log(REFERENCE_ETA / n)
        floor = REFERENCE_ETA / n
    else:
        factors = rho.dims.factors()
        prod = np.kron(
            partial_trace(rho.matrix, factors, keep=(0, 1)),
            partial_trace(rho.matrix, factors, keep=(2, 3)),
        )
        reference = smooth(DensityMatrix(rho.dims, hermitize(prod)), REFERENCE_ETA)
        log_s = reference.log_on_support()
        floor = float(reference.spectrum.min())
    if floor <= SUPPORT_TOL:
        raise NumericalFailure(f"separable reference has eigenvalue {floor:.3e} <= {SUPPORT_TOL}")
    return log_s


def _numbers(*values) -> list[str]:
    # CSV cells of library numbers, NumPy scalars included, as plain float reprs
    return [repr(float(v)) for v in values]


def _cmd_simulate(args) -> int:
    state, gen = _instance_from_args(args)
    if not 0 < args.t_max < math.inf:
        raise FormatError("--t-max must be finite and > 0")
    rho = state.density() if isinstance(state, PureState) else state
    log_s = _reference_log(state, rho)
    times = np.linspace(0.0, args.t_max, args.samples)
    seg = times[1] - times[0]
    seg_steps = max(32, int(math.ceil(seg / 1e-3)))
    with _csv_out(args.out, CSV_COLUMNS) as writer:
        row = 0
        # each chunk of the series is measured with the stacked kernels
        for mats, lam in evolve_series(gen, rho, seg, args.samples - 1, seg_steps):
            columns = (
                _trace_error(mats),
                lam.min(axis=-1),
                _relative_entropies(mats, lam, log_s),
                _mutual_informations(rho.dims, mats, lam),
                _purities(mats),
            )
            for values in zip(*columns):
                writer.writerow([f"{times[row]:.10g}", *_numbers(*values)])
                row += 1
    return 0


def _cmd_rate(args) -> int:
    state, gen = _instance_from_args(args)
    psi = _require_pure(state, "rate")
    delta_ts = args.delta_t or [1e-4]
    # the closed form does not depend on the step: one value for every report
    analytic = surrogate_rate_analytic(psi, gen, eta=args.eta)
    reports = []
    for dt in delta_ts:
        rep = dataclasses.asdict(entangling_rate_fd(psi, gen, dt, args.measure, seed=args.seed))
        reports.append({**rep, "dims": list(psi.dims.factors()), "gamma_surrogate_analytic": analytic})
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
            best = max(best, surrogate_rate_fd(psi, gen, delta_t))
        rows.append((d, best, bound))
    with _csv_out(args.out, SWEEP_COLUMNS) as writer:
        for d, best, bound in rows:
            writer.writerow([d, *_numbers(best, bound)])
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
    _add_generator_flags(sp)


def _add_generator_flags(sp):
    sp.add_argument("--lindblad-ops", type=_at_least(0), default=1, metavar="K",
                    help="jump operators per random instance (default 1)")
    sp.add_argument("--no-hamiltonian", action="store_true",
                    help="random instances without a coherent term")


def _add_probe_flags(sp):
    sp.add_argument("--delta-t", type=float, action="append", metavar="DT",
                    help="finite-difference step of the rate against the pinched Schmidt reference "
                         "(default 1e-4); rate takes several")


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
    _add_probe_flags(rate)
    rate.add_argument("--eta", type=float, default=1e-8,
                      help="smoothing of the closed-form t = 0 rate, gamma_surrogate_analytic (default 1e-8); "
                           "under dissipation the rate has no finite t = 0 value, and it and gamma_surrogate_fd "
                           "read different cut-offs (eta, delta t): they agree only under closed dynamics")
    rate.add_argument("--measure", choices=("surrogate", "bruteforce"), default="surrogate",
                      help="bruteforce also runs the see-saw REE minimizer (default surrogate)")
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
    _add_probe_flags(sweep)
    sweep.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    _add_generator_flags(sweep)
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
    except (ValueError, OSError) as exc:  # FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
