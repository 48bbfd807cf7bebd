"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into each layer of the library.  Every
wrapper is installed in the namespace where its caller looks the function up
(``entrate.certify.entangling_rate_fd``, ``entrate.rates._integrate``,
``numpy.linalg.eigh``, ...), so the library itself is untouched and an
untraced run executes exactly the shipped code.  Spans stay in flat arrays
until the run ends and are written out once, as JSON lines
``[name, start_s, end_s, parent_index, op_id]``.

The layer of a span is the first dot-separated part of its name.  A layer's
self time is the summed duration of its spans minus the part covered by their
child spans; the benchmark's own pass loop is the ``bench`` layer, so the self
times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import csv
import functools
import math
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import entrate.certify
import entrate.cli
import entrate.dynamics
import entrate.measures
import entrate.rates
import entrate.states

LAYERS = ("certify", "rates", "dynamics", "measures", "states", "linalg", "cli")
FAMILIES = entrate.certify.FAMILIES

# layer metrics reported as <name>.calls and <name>.s (inclusive busy seconds)
TIMED = (
    "rates.entangling_rate_fd",
    "rates.evolve_tight",
    "rates.surrogate_rate_analytic",
    "rates.mutual_info_rate_analytic",
    "rates.inequality_checks",
    "dynamics.integrate",
    "dynamics.generator_applies",
    "dynamics.evolve",
    "measures.ree_bruteforce",
    "measures.relative_entropy",
    "measures.mutual_information",
    "measures.entanglement_entropy",
    "states.density_matrix",
    "states.schmidt",
    "states.samplers",
    "linalg.matrix_log_on_support",
    "linalg.operator_norm",
    "linalg.partial_trace",
    "linalg.lapack.eigh",
    "linalg.lapack.eigvalsh",
    "linalg.lapack.svd",
)

# counts taken from the certificates of the traced passes
CERTIFICATE_COUNTS = (
    "certify.trials",
    "certify.violations",
    "certify.numerical_failures",
    "certify.optimizer_stalls",
)

_INEQUALITY_CHECKS = (
    "pure_ree_identity_check",
    "hamiltonian_commutator_check",
    "dissipative_commutator_check",
    "small_incremental_mixing_check",
    "commutator_trace_norm_check",
    "marginal_split_check",
)
_SAMPLERS = (
    "random_pure",
    "random_gue_hamiltonian",
    "random_ginibre_lindblad",
    "random_density",
    "random_unitary",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name: "count" for name in CERTIFICATE_COUNTS}
    units.update({f"certify.family_s.{fam}": "s" for fam in FAMILIES})
    units["certify.parallel_efficiency"] = "ratio"
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update(
        {
            "rates.integrate_attempts_per_probe": "ratio",
            "dynamics.rk4_steps": "count",
            "dynamics.rk4_steps_per_s": "1/s",
            "dynamics.evolve.ms_p50": "ms",
            "dynamics.evolve.ms_p90": "ms",
            "dynamics.integration_retries": "count",
            "measures.seesaw_iterations": "count",
            "measures.ree_stall_frac": "ratio",
            "cli.rows": "count",
            "cli.row_ms_p50": "ms",
            "cli.row_ms_p90": "ms",
        }
    )
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.overhead": "ratio", "trace.spans": "count", "trace.wall_s": "s"})
    return units


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.totals: dict[str, float] = defaultdict(float)
        self.row_s: list[float] = []
        self._last_row: float | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int, op: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter() - self.t0)
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = perf_counter() - self.t0
        self.stack.pop()

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    @contextmanager
    def span(self, name: str):
        """Container span (pass, sweep, CLI call): belongs to no single op."""
        idx = self._enter(self._name_id(name), -1)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name: str, *, before=None, after=None, container=False):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._enter(nid, -1 if container else self.current_op)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.totals[f"{name}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                self._exit(idx)
            if after is not None:
                after(args, result, idx)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    # ------------------------------------------------------------- wiring

    def install(self) -> None:
        """Wrap the benchmark's calls into the library and every layer
        boundary the per-layer metrics need."""
        certify, rates, dynamics = entrate.certify, entrate.rates, entrate.dynamics
        measures, states, cli = entrate.measures, entrate.states, entrate.cli

        self.patch(certify, "run_sweep", "certify.run_sweep", container=True)
        self.patch(cli, "main", "cli.main", container=True)

        def new_trial(args, kwargs):
            self.current_op += 1

        def cell_done(args, result, idx):
            self.totals[f"certify.family_s.{args[1]}"] += self.duration(idx)

        def count_steps(args, kwargs):
            self.totals["dynamics.rk4_steps"] += args[3] if len(args) > 3 else kwargs["steps"]

        def probe_attempt(args, kwargs):
            self.totals["rates.integrate_attempts"] += 1
            count_steps(args, kwargs)

        def ree_done(args, result, idx):
            self.totals["measures.seesaw_iterations"] += result.iterations
            self.totals["measures.ree_stalls"] += bool(result.stalled)

        self.patch(certify, "_run_cell", "certify.cell", after=cell_done, container=True)
        self.patch(certify, "_build", "certify.build", before=new_trial)
        self.patch(certify, "entangling_rate_fd", "rates.entangling_rate_fd")
        self.patch(certify, "mutual_info_rate_analytic", "rates.mutual_info_rate_analytic")
        for fn in _INEQUALITY_CHECKS:
            self.patch(certify, fn, "rates.inequality_checks")
        self.patch(rates, "_evolve_tight", "rates.evolve_tight")
        self.patch(rates, "surrogate_rate_analytic", "rates.surrogate_rate_analytic")

        self.patch(rates, "_integrate", "dynamics.integrate", before=probe_attempt)
        self.patch(dynamics, "_integrate", "dynamics.integrate", before=count_steps)
        for owner in (rates, dynamics):
            self.patch(owner, "apply_generator", "dynamics.generator_applies")
        self.patch(cli, "evolve", "dynamics.evolve")

        for owner in (rates, certify):
            self.patch(owner, "ree_bruteforce", "measures.ree_bruteforce", after=ree_done)
        for owner in (rates, cli):
            self.patch(owner, "relative_entropy", "measures.relative_entropy")
            self.patch(owner, "mutual_information", "measures.mutual_information")
        self.patch(certify, "entanglement_entropy", "measures.entanglement_entropy")

        self.patch(states.DensityMatrix, "__post_init__", "states.density_matrix")
        for owner in (certify, rates, measures, cli):
            self.patch(owner, "schmidt", "states.schmidt")
        for owner in (certify, cli):
            for fn in _SAMPLERS:
                if hasattr(owner, fn):
                    self.patch(owner, fn, "states.samplers")

        self.patch(rates, "matrix_log_on_support", "linalg.matrix_log_on_support")
        for owner in (rates, states):
            self.patch(owner, "operator_norm", "linalg.operator_norm")
        for owner in (rates, measures, cli):
            self.patch(owner, "partial_trace", "linalg.partial_trace")
        for fn in ("eigh", "eigvalsh", "svd"):
            self.patch(np.linalg, fn, f"linalg.lapack.{fn}")

        # the CLI writes one CSV row per sample: time the gaps between rows
        self._patches.append((cli, "csv", cli.csv))
        cli.csv = types.SimpleNamespace(writer=self._row_writer)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _row_writer(self, handle, *args, **kwargs):
        self._last_row = None
        return _TimedWriter(csv.writer(handle, *args, **kwargs), self)

    def row_written(self) -> None:
        now = perf_counter()
        if self._last_row is not None:
            self.row_s.append(now - self._last_row)
        self._last_row = now
        self.current_op += 1

    # ------------------------------------------------------------ reporting

    def layer_metrics(self) -> dict[str, float]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.duration(i)
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        evolve_ms = []
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.duration(i)
            calls[name] += 1
            busy[name] += dur
            self_s[name.split(".")[0]] += dur - child[i]
            if name == "dynamics.evolve":
                evolve_ms.append(1e3 * dur)

        t = self.totals
        out = {name: t[name] for name in CERTIFICATE_COUNTS}
        out.update({f"certify.family_s.{fam}": t[f"certify.family_s.{fam}"] for fam in FAMILIES})
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
        probes = calls["rates.evolve_tight"]
        attempts = t["rates.integrate_attempts"]
        ree_calls = calls["measures.ree_bruteforce"]
        out.update(
            {
                "rates.integrate_attempts_per_probe": attempts / probes if probes else 0.0,
                "dynamics.rk4_steps": t["dynamics.rk4_steps"],
                "dynamics.rk4_steps_per_s": (
                    t["dynamics.rk4_steps"] / busy["dynamics.integrate"] if busy["dynamics.integrate"] else 0.0
                ),
                "dynamics.evolve.ms_p50": percentile(evolve_ms, 0.5),
                "dynamics.evolve.ms_p90": percentile(evolve_ms, 0.9),
                # failed evolve segments retried by the CLI, plus the extra
                # doubled-resolution integrations of the short-step probes
                "dynamics.integration_retries": (
                    t["dynamics.evolve.errors.IntegrationError"] + max(attempts - probes, 0)
                ),
                "measures.seesaw_iterations": t["measures.seesaw_iterations"],
                "measures.ree_stall_frac": t["measures.ree_stalls"] / ree_calls if ree_calls else 0.0,
                "cli.rows": len(self.row_s),
                "cli.row_ms_p50": 1e3 * percentile(self.row_s, 0.5),
                "cli.row_ms_p90": 1e3 * percentile(self.row_s, 0.9),
                "trace.spans": n,
            }
        )
        out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'["{self.names[self.name_id[i]]}",{self.start[i]:.9f},{self.end[i]:.9f},'
                    f"{self.parent[i]},{self.op[i]}]\n"
                )


class _TimedWriter:
    def __init__(self, writer, tracer: Tracer):
        self._writer = writer
        self._tracer = tracer

    def writerow(self, row):
        out = self._writer.writerow(row)
        self._tracer.row_written()
        return out
