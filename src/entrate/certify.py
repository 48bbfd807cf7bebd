"""Randomized certification sweeps over the rate inequalities.

Each inequality family is exercised on a grid of instance cells; every trial
draws its own instance from a seed derived by hashing (base seed, family,
cell, trial index), so runs are reproducible cell-by-cell and trials are
independent of scheduling.  Violating trials are dumped with their full
input matrices so they can be replayed bit-for-bit later.

Each family is one record of ``_FAMILY_TABLE``: the tolerance on its
primary check, its cells for a config and the kinds of its counterexample
input fields.  ``FAMILIES``, ``DEFAULT_TOLERANCES``, ``cells_for`` and the
counterexample codecs read it, and ``_family`` is the one lookup that
rejects an unknown name; a family's builder and checks are its branch of
``_build`` and ``_eval``.

A cell's trials run in stacks of five (``_STACK_TRIALS``), so memory and the
cost of a retry stay flat in the trial count.  Each trial draws from its own
generator, seeded and ordered as when trials ran one at a time, and the
samplers and every family's checks then take the stack as a whole; mixing,
whose trials draw their own dimension, takes one stack per dimension.  Only
the see-saws (the axioms' and theorem2's with measure="bruteforce") run
trial by trial: perfbench's tracer reads the iteration count off each
``ree_bruteforce`` result, so it stays one state in, one estimate out.  A
stacked LAPACK call runs the same routine on each matrix, so a trial's
inputs and checks have the same bits in any stack; ``_build``, ``_eval`` and
``replay`` take one trial as the stack of one.  A stack that raises a trial
error runs again one trial at a time, so each error is charged to its own
trial; the trial stays the unit of seeds, counts and counterexamples, and
the cell the unit of the process pool.  A check whose margin is NaN fails
its trial as a NumericalFailure, since no comparison can score it.
``replay`` scores each check at the tol its file recorded, so it names the
check the sweep flagged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import IntegrationError, LindbladGenerator
from .linalg import NumericalFailure, dag, hermitize
from .measures import OptimizerStall, entanglement_entropy, ree_bruteforce
from .rates import (
    InequalityResult,
    InvalidPair,
    SamplerFailure,
    commutator_trace_norm_check,
    dissipative_commutator_check,
    entangling_rate_fd,
    hamiltonian_commutator_check,
    marginal_split_check,
    mi_rate_bound,
    mutual_info_rate_analytic,
    pure_ree_identity_check,
    random_xy_pair,
    small_incremental_mixing_check,
)
from .states import (
    DimensionSignature,
    PureState,
    _densities,
    _finite_real,
    _ginibre,
    _grouped,
    _positive_int,
    _unit_rows,
    matrix_from_json,
    matrix_to_json,
    random_density,
    random_gue_hamiltonian,
    random_ginibre_lindblad,
    random_pure,
    random_unitary,
    schmidt,
    state_from_json,
    state_to_json,
)

__all__ = [
    "FAMILIES",
    "DEFAULT_TOLERANCES",
    "FormatError",
    "SweepConfig",
    "Certificate",
    "run_sweep",
    "replay",
    "cells_for",
]

ORDERING_TOL = 1e-7  # gamma_fd may exceed the surrogate rate by at most this

_MIXING_DIMS = (4, 8, 16)
_BRUTEFORCE_AB_CAP = 6  # axioms only cross-check the see-saw on tiny cuts


class FormatError(ValueError):
    """Malformed sweep config or counterexample file."""


class _Family(NamedTuple):
    tol: float  # on the primary check; axioms fold per-check slack into their margins
    cells: Callable  # SweepConfig -> the family's cells
    fields: dict  # the kind of each input field, to round-trip counterexamples


def _cuts(config) -> list[dict]:
    return [{"d_A": a, "d_B": b} for a in config.dims_grid for b in config.dims_grid]


_FAMILY_TABLE = {
    "prop1": _Family(1e-10, _cuts, {"psi": "pure"}),
    "h_term": _Family(1e-6, _cuts, {"psi": "pure", "H": "matrix"}),
    "l_term": _Family(
        1e-6,
        lambda config: [{"dim": m, "p": p} for m in (4, 8, 9) for p in (1.0 / 8.0, 1.0 / 9.0, 1.0 / 16.0)],
        {"L": "matrix", "X": "matrix", "Y": "matrix", "p": "scalar", "dim": "scalar"},
    ),
    "mixing": _Family(
        1e-6,
        lambda config: [{"p": p} for p in (0.5, 0.25, math.exp(-2.0))],
        {"H": "matrix", "rho1": "matrix", "rho2": "matrix", "p": "scalar", "dim": "scalar"},
    ),
    "kittaneh": _Family(
        1e-9, lambda config: [{"dim": m} for m in (4, 9, 16)], {"A": "matrix", "X": "matrix", "dim": "scalar"}
    ),
    "theorem2": _Family(
        1e-3,
        lambda config: [{"d": d, "delta_t": dt} for d in config.dims_grid for dt in config.delta_ts],
        {"psi": "pure", "H": "matrix", "Ls": "matrix_list", "delta_t": "scalar", "measure": "scalar",
         "seed": "scalar"},
    ),
    "theorem3": _Family(
        1e-3,
        lambda config: [{"d_a": a, "d_b": b} for a in (1, 2, 3) for b in (1, 2, 3)],
        {"rho": "state", "H": "matrix", "Ls": "matrix_list"},
    ),
    "bravyi_lemma1": _Family(
        1e-10, lambda config: [{"dims": [2, 2, 2, 2]}, {"dims": [1, 3, 3, 1]}], {"rho": "state"}
    ),
    "axioms": _Family(0.0, _cuts, {"psi": "pure", "U_a": "matrix", "U_b": "matrix", "seed": "scalar"}),
}
FAMILIES = tuple(_FAMILY_TABLE)
DEFAULT_TOLERANCES = {name: fam.tol for name, fam in _FAMILY_TABLE.items()}


def _family(name) -> _Family:
    try:
        return _FAMILY_TABLE[name]
    except (KeyError, TypeError):  # a name read from JSON may be unhashable
        raise FormatError(f"unknown family {name!r}; known: {', '.join(FAMILIES)}") from None


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[str, ...] = FAMILIES
    trials: int = 200
    base_seed: int = 2024
    measure: str = "surrogate"
    dims_grid: tuple[int, ...] = (2, 3, 4)
    delta_ts: tuple[float, ...] = (1e-3, 1e-4, 1e-5)
    tolerances: dict = field(default_factory=dict)
    fail_fraction: float = 0.10
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        if not isinstance(self.tolerances, dict):
            raise FormatError("tolerances must map family names to numbers")
        for fam in (*self.families, *self.tolerances):
            _family(fam)
        # an empty list certifies nothing, and a repeated family counts twice
        if not self.families or len(set(self.families)) < len(self.families):
            raise FormatError(f"families must be non-empty and distinct, got {list(self.families)}")
        if isinstance(self.base_seed, bool) or not isinstance(self.base_seed, (int, np.integer)):
            raise FormatError(f"base_seed must be an integer, got {self.base_seed!r}")
        try:
            grid = tuple(_positive_int(d, "dims_grid entry") for d in self.dims_grid)
            trials = _positive_int(self.trials, "trials")
            dts = tuple(_finite_real(t, "delta_ts entry") for t in self.delta_ts)
            # a NaN would pass every margin; a negative tolerance demands slack
            # and is kept, as it is how a sweep is made to dump counterexamples
            tols = {fam: _finite_real(v, f"tolerance for {fam}") for fam, v in self.tolerances.items()}
            fail_fraction = _finite_real(self.fail_fraction, "fail_fraction")
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        object.__setattr__(self, "dims_grid", grid)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(self, "delta_ts", dts)
        object.__setattr__(self, "tolerances", tols)
        # a repeated entry runs its cells twice, as a repeated family would
        if not dts or any(t <= 0 for t in dts) or len(set(dts)) < len(dts):
            raise FormatError(f"delta_ts must be non-empty and distinct with entries > 0, got {list(dts)}")
        if self.measure not in ("surrogate", "bruteforce"):
            raise FormatError(f"measure must be 'surrogate' or 'bruteforce', got {self.measure!r}")
        if not grid or any(d < 2 for d in grid) or len(set(grid)) < len(grid):
            raise FormatError(f"dims_grid must be non-empty and distinct with entries >= 2, got {list(grid)}")
        if not 0.0 <= fail_fraction < 1.0:
            raise FormatError("fail_fraction must lie in [0, 1)")
        # checked here, not when the first counterexample is written
        if self.out_dir is not None and not isinstance(self.out_dir, (str, os.PathLike)):
            raise FormatError(f"out_dir must be a path or null, got {self.out_dir!r}")
        object.__setattr__(self, "out_dir", None if self.out_dir is None else os.fspath(self.out_dir))

    @classmethod
    def from_json(cls, obj) -> "SweepConfig":
        if not isinstance(obj, dict):
            raise FormatError("sweep config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise FormatError(f"unknown config keys: {', '.join(sorted(unknown))}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise FormatError(str(exc)) from exc

    def to_json(self) -> dict:
        return asdict(self)

    def tolerance(self, family: str) -> float:
        return float(self.tolerances.get(family, _family(family).tol))


def _trial_seed(base_seed: int, family: str, cell: dict, index: int) -> int:
    payload = json.dumps([base_seed, family, cell, index], sort_keys=True)
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "big")


def _cell_hash(cell: dict) -> str:
    return hashlib.sha256(json.dumps(cell, sort_keys=True).encode()).hexdigest()[:8]


def cells_for(family: str, config: SweepConfig) -> list[dict]:
    return _family(family).cells(config)


# ----------------------------------------------------------- trial builders

def _jump_operators(dim: int, rngs: list) -> list[list[np.ndarray]]:
    # each trial draws its count k in [0, 4), then its k operators; one
    # sampler call draws them all, each trial's generator listed k times
    counts = [int(rng.integers(0, 4)) for rng in rngs]
    drawers = [rng for rng, k in zip(rngs, counts) for _ in range(k)]
    ls = iter(random_ginibre_lindblad(dim, drawers) if drawers else ())
    return [[next(ls) for _ in range(k)] for k in counts]


def _build(family: str, cell: dict, seed, config: SweepConfig):
    """The inputs of the trial with ``seed``; for a list of seeds, a list
    with the inputs of each, built as one stack.  Every trial draws from its
    own generator in the order a one-trial build draws, and the samplers
    finish each kind of sample as one stack (states module docstring)."""
    if not isinstance(seed, list):
        return _build(family, cell, [seed], config)[0]
    seeds, rngs = seed, [np.random.default_rng(s) for s in seed]
    if family in ("prop1", "h_term", "axioms"):
        dims = DimensionSignature.cut(cell["d_A"], cell["d_B"])
        psis = random_pure(dims, rngs)
        if family == "prop1":
            return [{"psi": psi} for psi in psis]
        if family == "h_term":
            return [{"psi": psi, "H": h} for psi, h in zip(psis, random_gue_hamiltonian(dims.total, rngs))]
        u_a, u_b = random_unitary(dims.alice, rngs), random_unitary(dims.bob, rngs)
        return [{"psi": psi, "U_a": a, "U_b": b, "seed": s} for psi, a, b, s in zip(psis, u_a, u_b, seeds)]
    if family == "l_term":
        dim, p = cell["dim"], cell["p"]
        ls = random_ginibre_lindblad(dim, rngs)
        xs, ys = random_xy_pair(dim, p, rngs)
        return [{"L": l, "X": x, "Y": y, "p": p, "dim": dim} for l, x, y in zip(ls, xs, ys)]
    if family == "mixing":
        # each trial draws its dimension first; the trials of one dimension are a stack
        def build(dim: int, idx: list[int]) -> list[dict]:
            group = [rngs[i] for i in idx]
            hs = random_gue_hamiltonian(dim, group)
            r1, r2 = random_density(dim, group), random_density(dim, group)
            return [{"H": h, "rho1": a, "rho2": b, "p": cell["p"], "dim": dim} for h, a, b in zip(hs, r1, r2)]

        return _grouped([_MIXING_DIMS[int(rng.integers(len(_MIXING_DIMS)))] for rng in rngs], build)
    if family == "kittaneh":
        dim = cell["dim"]
        a = _ginibre((dim, dim), rngs)
        a = a @ dag(a)
        a /= np.linalg.eigvalsh(hermitize(a)).max(axis=-1)[:, None, None]
        return [{"A": ai, "X": x, "dim": dim} for ai, x in zip(a, random_ginibre_lindblad(dim, rngs))]
    if family == "theorem2":
        dims = DimensionSignature.cut(cell["d"], cell["d"])
        psis = random_pure(dims, rngs)
        hs = random_gue_hamiltonian(dims.total, rngs)
        shared = {"delta_t": cell["delta_t"], "measure": config.measure}
        return [
            {"psi": psi, "H": h, "Ls": ls, **shared, "seed": s}
            for psi, h, ls, s in zip(psis, hs, _jump_operators(dims.total, rngs), seeds)
        ]
    if family == "theorem3":
        dims = DimensionSignature(cell["d_a"], 2, 2, cell["d_b"])
        rhos = _densities(dims, hermitize(random_density(dims.total, rngs)))
        hs = random_gue_hamiltonian(4, rngs)
        return [{"rho": rho, "H": h, "Ls": ls} for rho, h, ls in zip(rhos, hs, _jump_operators(4, rngs))]
    dims = DimensionSignature(*cell["dims"])  # bravyi_lemma1, the last family
    return [{"rho": rho} for rho in _densities(dims, hermitize(random_density(dims.total, rngs)))]


# --------------------------------------------------------- trial evaluators

def _with_tol(result: InequalityResult, tol: float) -> dict:
    return {
        "name": result.tag,
        "lhs": result.lhs,
        "rhs": result.rhs,
        "margin": result.margin,
        "tol": tol,
    }


def _at_most(tag: str, lhs: float, rhs: float) -> InequalityResult:
    return InequalityResult(tag, lhs, rhs, rhs - lhs)


def _local_rotation(psis: list[PureState], u_a: np.ndarray, u_b: np.ndarray) -> list[PureState]:
    # (U_a ⊗ U_b) psi of each state of a list on one space and each pair of the stacks
    dims = psis[0].dims
    amp = np.stack([psi.amplitudes for psi in psis]).reshape(-1, dims.alice, dims.bob)
    return _unit_rows(dims, (u_a @ amp @ u_b.swapaxes(-1, -2)).reshape(len(psis), -1))


def _max_entangled(dims: DimensionSignature) -> PureState:
    amp = np.zeros((dims.alice, dims.bob), dtype=complex)
    d = dims.d
    for i in range(d):
        amp[i, i] = 1.0 / math.sqrt(d)
    return PureState(dims, amp.reshape(-1))


def _eval(family: str, trials, tol: float):
    """The checks of one trial's inputs; for a list of one cell's inputs, a
    list with the checks of each, evaluated as one stack (module docstring)."""
    if isinstance(trials, dict):
        return _eval(family, [trials], tol)[0]

    def stacked(key: str, group: list[dict] = trials) -> np.ndarray:
        return np.stack([t[key] for t in group])

    def one_check_each(results) -> list[list[dict]]:
        return [[_with_tol(r, tol)] for r in results]

    if family == "prop1":
        return one_check_each(pure_ree_identity_check([t["psi"] for t in trials]))
    if family == "h_term":
        results = hamiltonian_commutator_check(stacked("H"), [t["psi"] for t in trials])
        tight = (_at_most("coherent-term-cap-tight", r.lhs, r.witness["tight_bound"]) for r in results)
        return [[_with_tol(r, tol), _with_tol(t, tol)] for r, t in zip(results, tight)]
    if family == "l_term":
        return one_check_each(dissipative_commutator_check(stacked("L"), stacked("X"), stacked("Y"), trials[0]["p"]))
    if family == "mixing":
        def check(dim: int, idx: list[int]) -> list[InequalityResult]:
            group = [trials[i] for i in idx]
            return small_incremental_mixing_check(*(stacked(k, group) for k in ("H", "rho1", "rho2")), group[0]["p"])

        return one_check_each(_grouped([len(t["H"]) for t in trials], check))
    if family == "kittaneh":
        return one_check_each(commutator_trace_norm_check(stacked("A"), stacked("X")))
    if family == "theorem2":
        return _eval_theorem2(trials, tol)
    if family == "theorem3":
        rhos = [t["rho"] for t in trials]
        gens = [LindbladGenerator(rho.dims, t["H"], tuple(t["Ls"])) for rho, t in zip(rhos, trials)]
        rates = mutual_info_rate_analytic(rhos, gens)
        return one_check_each(_at_most("mi-rate-bound", abs(r), b) for r, b in zip(rates, mi_rate_bound(gens)))
    if family == "bravyi_lemma1":
        rhos = [t["rho"] for t in trials]
        sides = zip(marginal_split_check(rhos, side="B"), marginal_split_check(rhos, side="A"))
        return [[_with_tol(b, tol), _with_tol(a, tol)] for b, a in sides]
    return _eval_axioms(trials, tol)  # the last family


def _eval_theorem2(trials: list[dict], tol: float) -> list[list[dict]]:
    # one cell's trials share delta_t and the measure; the rate probe takes them as one stack
    gens = [LindbladGenerator(t["psi"].dims, t["H"], tuple(t["Ls"])) for t in trials]
    dt, measure = trials[0]["delta_t"], trials[0]["measure"]
    ree_kwargs = {"restarts": 1, "max_iters": 200} if measure == "bruteforce" else None
    reports = entangling_rate_fd([t["psi"] for t in trials], gens, dt, measure, seed=[t["seed"] for t in trials],
                                 ree_kwargs=ree_kwargs)
    bound_checks = (_at_most("rate-bound", r.gamma_surrogate_fd, r.theorem_bound) for r in reports)
    orderings = (_at_most("measure-ordering", r.gamma_fd, r.gamma_surrogate_fd) for r in reports)
    return [[_with_tol(b, tol), _with_tol(o, ORDERING_TOL)] for b, o in zip(bound_checks, orderings)]


def _eval_axioms(trials: list[dict], tol: float) -> list[list[dict]]:
    psis = [t["psi"] for t in trials]
    dims = psis[0].dims
    u_a, u_b = np.stack([t["U_a"] for t in trials]), np.stack([t["U_b"] for t in trials])
    sds = schmidt(psis)
    rotated = entanglement_entropy(_local_rotation(psis, u_a, u_b))
    product = entanglement_entropy([PureState(dims, np.outer(sd.left[:, 0], sd.right[:, 0]).reshape(-1)) for sd in sds])
    maxent = entanglement_entropy(_local_rotation([_max_entangled(dims)] * len(psis), u_a, u_b))
    out = []
    for psi, inputs, sd, rotated, product, maxent in zip(psis, trials, sds, rotated, product, maxent):
        ent = sd.entropy()
        checks = [
            _at_most("nonnegative", -ent, 1e-12),
            _at_most("local-unitary-invariant", abs(rotated - ent), 1e-10),
            _at_most("product-states-score-zero", product, 1e-12),
            _at_most("max-entangled-normalization", abs(maxent - math.log(dims.d)), 1e-10),
        ]
        if dims.d_A * dims.d_B <= _BRUTEFORCE_AB_CAP:
            est = ree_bruteforce(psi.density(), restarts=1, max_iters=300, seed=inputs["seed"])
            checks.append(_at_most("bruteforce-agrees", abs(est.value - ent), 1e-4))
        out.append([_with_tol(c, tol) for c in checks])
    return out


# ------------------------------------------------------------ serialization

# (encode, decode) of each field kind
_CODECS = {
    "pure": (state_to_json, state_from_json),
    "state": (state_to_json, state_from_json),
    "matrix": (matrix_to_json, matrix_from_json),
    "matrix_list": (lambda ms: [matrix_to_json(m) for m in ms], lambda ms: [matrix_from_json(m) for m in ms]),
    "scalar": (lambda v: v, lambda v: v),
}


def _pack_inputs(family: str, inputs: dict) -> dict:
    return {key: _CODECS[kind][0](inputs[key]) for key, kind in _family(family).fields.items()}


def _unpack_inputs(family: str, obj) -> dict:
    schema = _family(family).fields
    if not isinstance(obj, dict):
        raise FormatError(f"counterexample inputs must be a JSON object, got {type(obj).__name__}")
    missing = set(schema) - set(obj)
    if missing:
        raise FormatError(f"counterexample inputs missing fields: {', '.join(sorted(missing))}")
    out = {}
    try:
        for key, kind in schema.items():
            out[key] = _CODECS[kind][1](obj[key])
            if kind in ("pure", "state") and isinstance(out[key], PureState) != (kind == "pure"):
                raise FormatError(f"a {kind!r} field got a {type(out[key]).__name__}")
    except (ValueError, TypeError) as exc:
        raise FormatError(f"bad counterexample field {key!r}: {exc}") from exc
    return out


# ------------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class Certificate:
    config: SweepConfig
    families: dict
    counterexamples: list
    runtime_s: float

    @property
    def status(self) -> str:
        statuses = [f["status"] for f in self.families.values()]
        if any(s == "violated" for s in statuses):
            return "violated"
        if any(s == "inconclusive" for s in statuses):
            return "inconclusive"
        return "ok"

    def to_jsonl(self) -> str:
        lines = [json.dumps({"kind": "sweep-config", **self.config.to_json()}, sort_keys=True)]
        for fam in self.config.families:
            lines.append(json.dumps({"kind": "family-summary", **self.families[fam]}, sort_keys=True))
        for rec in self.counterexamples:
            lines.append(json.dumps({"kind": "counterexample", **rec}, sort_keys=True))
        lines.append(
            json.dumps({"kind": "summary", "status": self.status, "runtime_s": self.runtime_s}, sort_keys=True)
        )
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_jsonl())


# trials built and evaluated as one stack: a cell runs in stacks of this many
# consecutive trials, so memory and the cost of a one-at-a-time retry stay
# flat in the trial count; 5 is the size certify-default was measured at
_STACK_TRIALS = 5

# what a trial may raise and be counted as a numerical failure
_TRIAL_ERRORS = (IntegrationError, NumericalFailure, SamplerFailure, InvalidPair)


def _nan_failure(checks: list[dict]) -> NumericalFailure | None:
    # a NaN margin neither holds nor fails, and min() would pass it or drop
    # it by where it sits, so the first one fails its trial numerically
    for c in checks:
        if math.isnan(c["margin"]):
            return NumericalFailure(f"check {c['name']} has a NaN margin (lhs {c['lhs']!r}, rhs {c['rhs']!r})")
    return None


def _run_trials(family: str, cell: dict, seeds: list[int], config: SweepConfig, tol: float):
    # ([(inputs, checks) or the NumericalFailure of each trial], OptimizerStall count)
    # for the trials of ``seeds``, built and evaluated as one stack
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", OptimizerStall)
        inputs = _build(family, cell, seeds, config)
        checks = _eval(family, inputs, tol)
    trials = [_nan_failure(c) or (trial, c) for trial, c in zip(inputs, checks)]
    return trials, sum(1 for w in caught if issubclass(w.category, OptimizerStall))


def _run_cell(config: SweepConfig, family: str, cell: dict) -> dict:
    tol = config.tolerance(family)
    out = {
        "cell": cell,
        "trials": config.trials,
        "violations": 0,
        "failures": 0,
        "stalls": 0,
        "worst_margin": math.inf,
        "counterexamples": [],
        "errors": [],
    }
    seeds = [_trial_seed(config.base_seed, family, cell, i) for i in range(config.trials)]
    trials = []
    for start in range(0, len(seeds), _STACK_TRIALS):
        chunk = seeds[start : start + _STACK_TRIALS]
        try:
            stack, stalls = _run_trials(family, cell, chunk, config, tol)
        except _TRIAL_ERRORS:
            # again one trial at a time, so that each error is charged to its trial
            stack, stalls = [], 0
            for seed in chunk:
                try:
                    (trial,), n = _run_trials(family, cell, [seed], config, tol)
                except _TRIAL_ERRORS as exc:
                    trial, n = exc, 0
                stack.append(trial)
                stalls += n
        trials += stack
        out["stalls"] += stalls
    for i, (seed, trial) in enumerate(zip(seeds, trials)):
        if isinstance(trial, Exception):
            out["failures"] += 1
            out["errors"].append({"index": i, "seed": seed, "error": f"{type(trial).__name__}: {trial}"})
            continue
        inputs, checks = trial
        slack = min(c["margin"] - (-c["tol"]) for c in checks)
        worst = min(c["margin"] for c in checks)
        out["worst_margin"] = min(out["worst_margin"], worst)
        if slack < 0:
            out["violations"] += 1
            out["counterexamples"].append(
                {
                    "family": family,
                    "cell": cell,
                    "cell_hash": _cell_hash(cell),
                    "seed": seed,
                    "base_seed": config.base_seed,
                    "trial_index": i,
                    "inputs": _pack_inputs(family, inputs),
                    "checks": checks,
                }
            )
    return out


def run_sweep(config: SweepConfig, workers: int = 1) -> Certificate:
    """Run every (family, cell, trial) in ``config`` and aggregate a
    certificate.  Counterexample files land in ``config.out_dir`` when set."""
    t0 = time.monotonic()
    tasks = [(family, cell) for family in config.families for cell in cells_for(family, config)]
    args = (repeat(config), [f for f, _ in tasks], [c for _, c in tasks])
    # the pool starts all its workers at once, so no more than there are cells
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, *args))
    else:
        results = list(map(_run_cell, *args))

    by_family: dict[str, list[dict]] = {f: [] for f in config.families}
    for (family, _), cell_out in zip(tasks, results):
        by_family[family].append(cell_out)

    families = {}
    counterexamples = []
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for family in config.families:
        cells = by_family[family]
        total = sum(c["trials"] for c in cells)
        violations = sum(c["violations"] for c in cells)
        failures = sum(c["failures"] for c in cells)
        stalls = sum(c["stalls"] for c in cells)
        worst = min((c["worst_margin"] for c in cells), default=math.inf)
        if violations > 0:
            status = "violated"
        elif failures > config.fail_fraction * total:
            status = "inconclusive"
        else:
            status = "ok"
        families[family] = {
            "family": family,
            "tolerance": config.tolerance(family),
            "trials": total,
            "violations": violations,
            "numerical_failures": failures,
            "optimizer_stalls": stalls,
            "worst_margin": None if math.isinf(worst) else worst,
            "status": status,
            "cells": [
                {
                    "cell": c["cell"],
                    "violations": c["violations"],
                    "failures": c["failures"],
                    "worst_margin": None if math.isinf(c["worst_margin"]) else c["worst_margin"],
                    "errors": c["errors"],
                }
                for c in cells
            ],
        }
        for rec in (ce for c in cells for ce in c["counterexamples"]):
            if out_dir is not None:
                name = f"{family}-{rec['cell_hash']}-{rec['seed']}.json"
                path = out_dir / name
                path.write_text(json.dumps(rec, sort_keys=True, indent=1) + "\n")
                rec = {**rec, "file": str(path)}
            counterexamples.append(rec)
    return Certificate(
        config=config,
        families=families,
        counterexamples=counterexamples,
        runtime_s=time.monotonic() - t0,
    )


def replay(path) -> InequalityResult:
    """Re-run a counterexample file through the same evaluation path, as a
    stack of one, and return the worst check as an InequalityResult.  Each
    check is scored at the tol the file recorded for the check of its name,
    and at the family's default where it recorded none.  A check with a NaN
    margin raises NumericalFailure, as it fails its trial in a sweep."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read counterexample: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("counterexample must be a JSON object")
    missing = {"family", "cell", "seed", "inputs"} - set(obj)
    if missing:
        raise FormatError(f"counterexample missing fields: {', '.join(sorted(missing))}")
    family = obj["family"]
    inputs = _unpack_inputs(family, obj["inputs"])
    try:
        tols = {c["name"]: _finite_real(c["tol"], f"the tol of check {c['name']!r}") for c in obj.get("checks", [])}
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad recorded checks: {exc}") from exc
    checks = [{**c, "tol": tols.get(c["name"], c["tol"])} for c in _eval(family, inputs, _family(family).tol)]
    failure = _nan_failure(checks)
    if failure is not None:
        raise failure
    worst = min(checks, key=lambda c: c["margin"] + c["tol"])
    return InequalityResult(
        tag=f"{family}:{worst['name']}",
        lhs=worst["lhs"],
        rhs=worst["rhs"],
        margin=worst["margin"],
        witness={"checks": checks, "cell": obj["cell"], "seed": obj["seed"]},
    )
