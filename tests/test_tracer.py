"""The benchmark's tracer wraps library names by attribute lookup, so a
library change that drops a wrapped name breaks traced runs; this guards
those names from the library's own test suite."""

import importlib.util
from pathlib import Path

import numpy as np

import entrate.certify
import entrate.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_on_the_library_and_restores_it():
    tracer = _load_tracer()
    eigh = np.linalg.eigh
    t = tracer.Tracer()
    try:
        t.install()
        assert np.linalg.eigh is not eigh
    finally:
        t.uninstall()
    assert np.linalg.eigh is eigh


def test_tracer_counts_every_integration(tmp_path):
    # simulate's series and the rate probes integrate through the names the
    # tracer wraps: 2 simulate segments of 32 steps and 6 theorem2 probes of
    # 64.  The series calls dynamics._integrate itself, not evolve
    t = _load_tracer().Tracer()
    argv = ["simulate", "--dims", "2", "4", "4", "2", "--lindblad-ops", "3", "--t-max", "0.04"]
    try:
        t.install()
        assert entrate.cli.main([*argv, "--samples", "3", "--seed", "0", "--out", str(tmp_path / "sim.csv")]) == 0
        entrate.certify.run_sweep(entrate.certify.SweepConfig(trials=1, families=("theorem2",), dims_grid=(2, 3)))
    finally:
        t.uninstall()
    got = t.layer_metrics()
    assert got["dynamics.integrate.calls"] == 8
    assert got["dynamics.rk4_steps"] == 448
    assert got["dynamics.evolve.calls"] == 0
    assert got["rates.integrate_attempts_per_probe"] == 1.0


def test_tracer_counts_no_seesaw_iterations_under_axioms():
    # axioms cross-checks the see-saw on pure states only, where restart 0
    # starts certified within tol: one see-saw per cell with d_A d_B <= 6
    # (2⊗2, 2⊗3, 3⊗2), none of which iterates
    t = _load_tracer().Tracer()
    try:
        t.install()
        entrate.certify.run_sweep(entrate.certify.SweepConfig(families=("axioms",), trials=1, dims_grid=(2, 3)))
    finally:
        t.uninstall()
    got = t.layer_metrics()
    assert got["measures.ree_bruteforce.calls"] == 3
    assert got["measures.seesaw_iterations"] == 0


# per-layer counts of one trial per cell on the (2, 3) grid; a counter a
# family bypasses would read 0 or too few
EVERY_FAMILY_COUNTS = {
    "rates.inequality_checks.calls": 27,
    "rates.entangling_rate_fd.calls": 6,
    "rates.mutual_info_rate_analytic.calls": 9,
    "measures.ree_bruteforce.calls": 3,
    "measures.entanglement_entropy.calls": 12,
    "states.schmidt.calls": 21,
    "states.samplers.calls": 89,
    "linalg.matrix_log_on_support.calls": 39,
    "linalg.lapack.eigh.calls": 62,
}


def test_tracer_sees_every_family():
    t = _load_tracer().Tracer()
    try:
        t.install()
        entrate.certify.run_sweep(entrate.certify.SweepConfig(trials=1, dims_grid=(2, 3)))
    finally:
        t.uninstall()
    got = t.layer_metrics()
    assert {name: got[name] for name in EVERY_FAMILY_COUNTS} == EVERY_FAMILY_COUNTS
    for fam in entrate.certify.FAMILIES:
        assert got[f"certify.family_s.{fam}"] > 0, fam


def test_tracer_sees_every_family_in_stacks_of_five():
    # five trials per cell run as one stack: every family still shows, the
    # rate probe is one entangling_rate_fd, _evolve_tight and integration
    # per theorem2 cell, and none is retried
    t = _load_tracer().Tracer()
    try:
        t.install()
        entrate.certify.run_sweep(entrate.certify.SweepConfig(trials=5, dims_grid=(2, 3)))
    finally:
        t.uninstall()
    got = t.layer_metrics()
    for fam in entrate.certify.FAMILIES:
        assert got[f"certify.family_s.{fam}"] > 0, fam
    assert [got[f"rates.{n}.calls"] for n in ("entangling_rate_fd", "evolve_tight")] == [6, 6]
    assert got["dynamics.integrate.calls"] == 6 and got["rates.integrate_attempts_per_probe"] == 1.0
