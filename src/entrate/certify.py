"""Randomized certification sweeps over the rate inequalities.

Each inequality family is exercised on a grid of instance cells; every trial
draws its own instance from a seed derived by hashing (base seed, family,
cell, trial index), so runs are reproducible cell-by-cell and trials are
independent of scheduling.  Violating trials are dumped with their full
input matrices so they can be replayed bit-for-bit later.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import IntegrationError, LindbladGenerator
from .linalg import NumericalFailure, ShapeError, dag, hermitize
from .measures import OptimizerStall, entanglement_entropy, ree_bruteforce
from .rates import (
    InequalityResult,
    InvalidPair,
    SamplerFailure,
    commutator_trace_norm_check,
    dissipative_commutator_check,
    entangling_rate_fd,
    hamiltonian_commutator_check,
    hamiltonian_term_bound_tight,
    marginal_split_check,
    mi_rate_bound,
    mutual_info_rate_analytic,
    pure_ree_identity_check,
    random_xy_pair,
    small_incremental_mixing_check,
)
from .states import (
    DensityMatrix,
    DimensionSignature,
    PureState,
    _positive_int,
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

FAMILIES = (
    "prop1",
    "h_term",
    "l_term",
    "mixing",
    "kittaneh",
    "theorem2",
    "theorem3",
    "bravyi_lemma1",
    "axioms",
)

# tolerance on the primary check of each family; axioms folds per-check
# slack into the margins themselves
DEFAULT_TOLERANCES = {
    "prop1": 1e-10,
    "h_term": 1e-6,
    "l_term": 1e-6,
    "mixing": 1e-6,
    "kittaneh": 1e-9,
    "theorem2": 1e-3,
    "theorem3": 1e-3,
    "bravyi_lemma1": 1e-10,
    "axioms": 0.0,
}

ORDERING_TOL = 1e-7  # gamma_fd may exceed the surrogate rate by at most this

_XY_TRACE_WEIGHTS = (1.0 / 8.0, 1.0 / 9.0, 1.0 / 16.0)
_XY_DIMS = (4, 8, 9)
_MIXING_WEIGHTS = (0.5, 0.25, math.exp(-2.0))
_MIXING_DIMS = (4, 8, 16)
_KITTANEH_DIMS = (4, 9, 16)
_MARGINAL_SPLIT_CELLS = ([2, 2, 2, 2], [1, 3, 3, 1])
_BRUTEFORCE_AB_CAP = 6  # axioms only cross-check the see-saw on tiny cuts


class FormatError(ValueError):
    """Malformed sweep config or counterexample file."""


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[str, ...] = FAMILIES
    trials: int = 200
    base_seed: int = 2024
    measure: str = "surrogate"
    dims_grid: tuple[int, ...] = (2, 3, 4)
    delta_ts: tuple[float, ...] = (1e-3, 1e-4, 1e-5)
    eta: float = 1e-8
    eta_ref: float = 1e-13
    tolerances: dict = field(default_factory=dict)
    fail_fraction: float = 0.10
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        try:
            grid = tuple(_positive_int(d, "dims_grid entry") for d in self.dims_grid)
        except ShapeError as exc:
            raise FormatError(str(exc)) from exc
        object.__setattr__(self, "dims_grid", grid)
        for t in self.delta_ts:
            if isinstance(t, bool) or not isinstance(t, (int, float, np.integer, np.floating)) or not (math.isfinite(t) and t > 0):
                raise FormatError(f"delta_ts entries must be finite numbers > 0, got {t!r}")
        object.__setattr__(self, "delta_ts", tuple(float(t) for t in self.delta_ts))
        for fam in self.families:
            if fam not in FAMILIES:
                raise FormatError(f"unknown family {fam!r}; known: {', '.join(FAMILIES)}")
        for fam in self.tolerances:
            if fam not in FAMILIES:
                raise FormatError(f"tolerance override for unknown family {fam!r}")
        if self.trials < 1:
            raise FormatError("trials must be >= 1")
        if self.measure not in ("surrogate", "bruteforce"):
            raise FormatError(f"measure must be 'surrogate' or 'bruteforce', got {self.measure!r}")
        if any(d < 2 for d in self.dims_grid):
            raise FormatError("dims_grid entries must be >= 2")
        if not 0.0 <= self.fail_fraction < 1.0:
            raise FormatError("fail_fraction must lie in [0, 1)")

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
        return {
            "families": list(self.families),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "measure": self.measure,
            "dims_grid": list(self.dims_grid),
            "delta_ts": list(self.delta_ts),
            "eta": self.eta,
            "eta_ref": self.eta_ref,
            "tolerances": dict(self.tolerances),
            "fail_fraction": self.fail_fraction,
            "out_dir": self.out_dir,
        }

    def tolerance(self, family: str) -> float:
        return float(self.tolerances.get(family, DEFAULT_TOLERANCES[family]))


def _trial_seed(base_seed: int, family: str, cell: dict, index: int) -> int:
    payload = json.dumps([base_seed, family, cell, index], sort_keys=True)
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "big")


def _cell_hash(cell: dict) -> str:
    return hashlib.sha256(json.dumps(cell, sort_keys=True).encode()).hexdigest()[:8]


def cells_for(family: str, config: SweepConfig) -> list[dict]:
    grid = config.dims_grid
    if family in ("prop1", "h_term", "axioms"):
        return [{"d_A": a, "d_B": b} for a in grid for b in grid]
    if family == "l_term":
        return [{"dim": m, "p": p} for m in _XY_DIMS for p in _XY_TRACE_WEIGHTS]
    if family == "mixing":
        return [{"p": p} for p in _MIXING_WEIGHTS]
    if family == "kittaneh":
        return [{"dim": m} for m in _KITTANEH_DIMS]
    if family == "theorem2":
        return [{"d": d, "delta_t": dt} for d in grid for dt in config.delta_ts]
    if family == "theorem3":
        return [{"d_a": a, "d_b": b} for a in (1, 2, 3) for b in (1, 2, 3)]
    if family == "bravyi_lemma1":
        return [{"dims": list(c)} for c in _MARGINAL_SPLIT_CELLS]
    raise FormatError(f"unknown family {family!r}")


# ----------------------------------------------------------- trial builders

def _build(family: str, cell: dict, seed: int, config: SweepConfig) -> dict:
    rng = np.random.default_rng(seed)
    if family == "prop1":
        dims = DimensionSignature.cut(cell["d_A"], cell["d_B"])
        return {"psi": random_pure(dims, rng)}
    if family == "h_term":
        dims = DimensionSignature.cut(cell["d_A"], cell["d_B"])
        return {"psi": random_pure(dims, rng), "H": random_gue_hamiltonian(dims.total, rng)}
    if family == "l_term":
        dim, p = cell["dim"], cell["p"]
        l = random_ginibre_lindblad(dim, rng)
        x, y = random_xy_pair(dim, p, rng)
        return {"L": l, "X": x, "Y": y, "p": p, "dim": dim}
    if family == "mixing":
        dim = _MIXING_DIMS[int(rng.integers(len(_MIXING_DIMS)))]
        return {
            "H": random_gue_hamiltonian(dim, rng),
            "rho1": random_density(dim, rng),
            "rho2": random_density(dim, rng),
            "p": cell["p"],
            "dim": dim,
        }
    if family == "kittaneh":
        dim = cell["dim"]
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = g @ dag(g)
        a /= np.linalg.eigvalsh(hermitize(a)).max()
        return {"A": a, "X": random_ginibre_lindblad(dim, rng), "dim": dim}
    if family == "theorem2":
        d = cell["d"]
        dims = DimensionSignature.cut(d, d)
        psi = random_pure(dims, rng)
        h = random_gue_hamiltonian(dims.total, rng)
        k = int(rng.integers(0, 4))
        ls = [random_ginibre_lindblad(dims.total, rng) for _ in range(k)]
        return {
            "psi": psi,
            "H": h,
            "Ls": ls,
            "delta_t": cell["delta_t"],
            "measure": config.measure,
            "eta": config.eta,
            "eta_ref": config.eta_ref,
            "seed": seed,
        }
    if family == "theorem3":
        dims = DimensionSignature(cell["d_a"], 2, 2, cell["d_b"])
        rho = DensityMatrix(dims, hermitize(random_density(dims.total, rng)))
        h = random_gue_hamiltonian(4, rng)
        k = int(rng.integers(0, 4))
        ls = [random_ginibre_lindblad(4, rng) for _ in range(k)]
        return {"rho": rho, "H": h, "Ls": ls}
    if family == "bravyi_lemma1":
        dims = DimensionSignature(*cell["dims"])
        return {"rho": DensityMatrix(dims, hermitize(random_density(dims.total, rng)))}
    if family == "axioms":
        dims = DimensionSignature.cut(cell["d_A"], cell["d_B"])
        return {
            "psi": random_pure(dims, rng),
            "U_a": random_unitary(dims.alice, rng),
            "U_b": random_unitary(dims.bob, rng),
            "seed": seed,
        }
    raise FormatError(f"unknown family {family!r}")


# --------------------------------------------------------- trial evaluators

def _with_tol(result: InequalityResult, tol: float) -> dict:
    return {
        "name": result.tag,
        "lhs": result.lhs,
        "rhs": result.rhs,
        "margin": result.margin,
        "tol": tol,
    }


def _local_rotation(psi: PureState, u_a: np.ndarray, u_b: np.ndarray) -> PureState:
    amp = psi.amplitudes.reshape(psi.dims.alice, psi.dims.bob)
    out = (u_a @ amp @ u_b.T).reshape(-1)
    return PureState(psi.dims, out / np.linalg.norm(out))


def _max_entangled(dims: DimensionSignature) -> PureState:
    amp = np.zeros((dims.alice, dims.bob), dtype=complex)
    d = dims.d
    for i in range(d):
        amp[i, i] = 1.0 / math.sqrt(d)
    return PureState(dims, amp.reshape(-1))


def _eval(family: str, inputs: dict, tol: float) -> list[dict]:
    if family == "prop1":
        return [_with_tol(pure_ree_identity_check(inputs["psi"]), tol)]
    if family == "h_term":
        psi, h = inputs["psi"], inputs["H"]
        primary = hamiltonian_commutator_check(h, psi)
        tight_rhs = hamiltonian_term_bound_tight(h, psi.dims.d)
        tight = InequalityResult(
            "coherent-term-cap-tight", primary.lhs, tight_rhs, tight_rhs - primary.lhs
        )
        return [_with_tol(primary, tol), _with_tol(tight, tol)]
    if family == "l_term":
        res = dissipative_commutator_check(inputs["L"], inputs["X"], inputs["Y"], inputs["p"])
        return [_with_tol(res, tol)]
    if family == "mixing":
        res = small_incremental_mixing_check(inputs["H"], inputs["rho1"], inputs["rho2"], inputs["p"])
        return [_with_tol(res, tol)]
    if family == "kittaneh":
        return [_with_tol(commutator_trace_norm_check(inputs["A"], inputs["X"]), tol)]
    if family == "theorem2":
        psi = inputs["psi"]
        gen = LindbladGenerator(psi.dims, inputs["H"], tuple(inputs["Ls"]))
        ree_kwargs = {"restarts": 1, "max_iters": 200} if inputs["measure"] == "bruteforce" else None
        report = entangling_rate_fd(
            psi,
            gen,
            inputs["delta_t"],
            inputs["measure"],
            eta=inputs["eta"],
            eta_ref=inputs["eta_ref"],
            seed=inputs["seed"],
            ree_kwargs=ree_kwargs,
        )
        bound_check = InequalityResult(
            "rate-bound", report.gamma_surrogate_fd, report.theorem_bound, report.margin
        )
        ordering = InequalityResult(
            "measure-ordering",
            report.gamma_fd,
            report.gamma_surrogate_fd,
            report.gamma_surrogate_fd - report.gamma_fd,
        )
        return [_with_tol(bound_check, tol), _with_tol(ordering, ORDERING_TOL)]
    if family == "theorem3":
        rho = inputs["rho"]
        gen = LindbladGenerator(rho.dims, inputs["H"], tuple(inputs["Ls"]))
        rate = mutual_info_rate_analytic(rho, gen)
        bound = mi_rate_bound(gen)
        res = InequalityResult("mi-rate-bound", abs(rate), bound, bound - abs(rate))
        return [_with_tol(res, tol)]
    if family == "bravyi_lemma1":
        rho = inputs["rho"]
        return [
            _with_tol(marginal_split_check(rho, side="B"), tol),
            _with_tol(marginal_split_check(rho, side="A"), tol),
        ]
    if family == "axioms":
        psi = inputs["psi"]
        u_a, u_b = inputs["U_a"], inputs["U_b"]
        dims = psi.dims
        ent = entanglement_entropy(psi)
        rotated = entanglement_entropy(_local_rotation(psi, u_a, u_b))
        sd = schmidt(psi)
        product = PureState(dims, np.outer(sd.left[:, 0], sd.right[:, 0]).reshape(-1))
        maxent = entanglement_entropy(_local_rotation(_max_entangled(dims), u_a, u_b))
        checks = [
            InequalityResult("nonnegative", -ent, 1e-12, ent + 1e-12),
            InequalityResult("local-unitary-invariant", abs(rotated - ent), 1e-10, 1e-10 - abs(rotated - ent)),
            InequalityResult(
                "product-states-score-zero",
                entanglement_entropy(product),
                1e-12,
                1e-12 - entanglement_entropy(product),
            ),
            InequalityResult(
                "max-entangled-normalization",
                abs(maxent - math.log(dims.d)),
                1e-10,
                1e-10 - abs(maxent - math.log(dims.d)),
            ),
        ]
        if dims.d_A * dims.d_B <= _BRUTEFORCE_AB_CAP:
            est = ree_bruteforce(psi.density(), restarts=1, max_iters=300, seed=inputs["seed"])
            checks.append(
                InequalityResult(
                    "bruteforce-agrees", abs(est.value - ent), 1e-4, 1e-4 - abs(est.value - ent)
                )
            )
        return [_with_tol(c, tol) for c in checks]
    raise FormatError(f"unknown family {family!r}")


# ------------------------------------------------------------ serialization

# field kinds per family, used to round-trip counterexample inputs
_SCHEMAS = {
    "prop1": {"psi": "pure"},
    "h_term": {"psi": "pure", "H": "matrix"},
    "l_term": {"L": "matrix", "X": "matrix", "Y": "matrix", "p": "scalar", "dim": "scalar"},
    "mixing": {"H": "matrix", "rho1": "matrix", "rho2": "matrix", "p": "scalar", "dim": "scalar"},
    "kittaneh": {"A": "matrix", "X": "matrix", "dim": "scalar"},
    "theorem2": {
        "psi": "pure",
        "H": "matrix",
        "Ls": "matrix_list",
        "delta_t": "scalar",
        "measure": "scalar",
        "eta": "scalar",
        "eta_ref": "scalar",
        "seed": "scalar",
    },
    "theorem3": {"rho": "state", "H": "matrix", "Ls": "matrix_list"},
    "bravyi_lemma1": {"rho": "state"},
    "axioms": {"psi": "pure", "U_a": "matrix", "U_b": "matrix", "seed": "scalar"},
}


def _pack_inputs(family: str, inputs: dict) -> dict:
    out = {}
    for key, kind in _SCHEMAS[family].items():
        val = inputs[key]
        if kind in ("pure", "state"):
            out[key] = state_to_json(val)
        elif kind == "matrix":
            out[key] = matrix_to_json(val)
        elif kind == "matrix_list":
            out[key] = [matrix_to_json(m) for m in val]
        else:
            out[key] = val
    return out


def _unpack_inputs(family: str, obj: dict) -> dict:
    if family not in _SCHEMAS:
        raise FormatError(f"unknown family {family!r}")
    schema = _SCHEMAS[family]
    missing = set(schema) - set(obj)
    if missing:
        raise FormatError(f"counterexample inputs missing fields: {', '.join(sorted(missing))}")
    out = {}
    try:
        for key, kind in schema.items():
            val = obj[key]
            if kind in ("pure", "state"):
                out[key] = state_from_json(val)
                if isinstance(out[key], PureState) != (kind == "pure"):
                    raise FormatError(f"a {kind!r} field got a {type(out[key]).__name__}")
            elif kind == "matrix":
                out[key] = matrix_from_json(val)
            elif kind == "matrix_list":
                out[key] = [matrix_from_json(m) for m in val]
            else:
                out[key] = val
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
    for i in range(config.trials):
        seed = _trial_seed(config.base_seed, family, cell, i)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", OptimizerStall)
                inputs = _build(family, cell, seed, config)
                checks = _eval(family, inputs, tol)
            out["stalls"] += sum(1 for w in caught if issubclass(w.category, OptimizerStall))
        except (IntegrationError, NumericalFailure, SamplerFailure, InvalidPair) as exc:
            out["failures"] += 1
            out["errors"].append({"index": i, "seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
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


def _run_cell_task(args) -> tuple[str, dict]:
    config_json, family, cell = args
    return family, _run_cell(SweepConfig.from_json(config_json), family, cell)


def run_sweep(config: SweepConfig, workers: int = 1) -> Certificate:
    """Run every (family, cell, trial) in ``config`` and aggregate a
    certificate.  Counterexample files land in ``config.out_dir`` when set."""
    t0 = time.monotonic()
    tasks = [(family, cell) for family in config.families for cell in cells_for(family, config)]
    if workers > 1:
        cfg_json = config.to_json()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell_task, [(cfg_json, f, c) for f, c in tasks]))
    else:
        results = [(family, _run_cell(config, family, cell)) for family, cell in tasks]

    by_family: dict[str, list[dict]] = {f: [] for f in config.families}
    for family, cell_out in results:
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
    """Re-run a counterexample file through the same evaluation path and
    return the worst check as an InequalityResult."""
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
    if family not in FAMILIES:
        raise FormatError(f"unknown family {family!r}")
    inputs = _unpack_inputs(family, obj["inputs"])
    tol = DEFAULT_TOLERANCES[family]
    checks = _eval(family, inputs, tol)
    worst = min(checks, key=lambda c: c["margin"] + c["tol"])
    return InequalityResult(
        tag=f"{family}:{worst['name']}",
        lhs=worst["lhs"],
        rhs=worst["rhs"],
        margin=worst["margin"],
        witness={"checks": checks, "cell": obj["cell"], "seed": obj["seed"]},
    )
