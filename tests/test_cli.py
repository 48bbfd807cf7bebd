import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entrate import cli, dynamics
from entrate.cli import CSV_COLUMNS, SWEEP_COLUMNS, main
from entrate.dynamics import LindbladGenerator, generator_to_json
from entrate.rates import surrogate_rate_analytic
from entrate.states import (
    DensityMatrix,
    DimensionSignature,
    closest_separable_state,
    matrix_to_json,
    random_density,
    random_ginibre_lindblad,
    random_gue_hamiltonian,
    random_pure,
    schmidt,
    smooth,
    state_to_json,
)


def _instance_file(tmp_path, *, pure=True, with_h=True, n_lindblad=0, name="inst.json"):
    dims = DimensionSignature.cut(2, 2)
    psi = random_pure(dims, seed=3)
    if pure:
        state = {"dims": [1, 2, 2, 1], "re": psi.amplitudes.real.tolist(), "im": psi.amplitudes.imag.tolist()}
    else:
        state = {"dims": [1, 2, 2, 1], **matrix_to_json(np.eye(4) / 4)}
    h = random_gue_hamiltonian(4, seed=5) if with_h else None
    ls = tuple(0.3 * random_gue_hamiltonian(4, seed=6 + k) for k in range(n_lindblad))
    gen = LindbladGenerator(dims, h, ls)
    path = tmp_path / name
    path.write_text(json.dumps({"state": state, "generator": generator_to_json(gen)}))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_random_instance_csv_schema(tmp_path):
    out = tmp_path / "out.csv"
    code = main(["simulate", "--dims", "2", "2", "--seed", "1", "--t-max", "0.1",
                 "--samples", "5", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 6  # header + samples
    t = [float(r[0]) for r in rows[1:]]
    assert t == sorted(t) and t[0] == 0.0 and t[-1] == pytest.approx(0.1)
    first = dict(zip(CSV_COLUMNS, rows[1]))
    assert abs(float(first["trace_err"])) < 1e-12
    assert float(first["purity"]) == pytest.approx(1.0, abs=1e-10)
    for row in rows[1:]:
        assert abs(float(row[1])) < 1e-7  # trace preserved everywhere
        assert float(row[2]) > -1e-8  # positivity preserved


def test_simulate_instance_file_pure_and_mixed(tmp_path):
    pure = _instance_file(tmp_path, pure=True, n_lindblad=1, name="pure.json")
    out = tmp_path / "pure.csv"
    assert main(["simulate", "--instance", str(pure), "--t-max", "0.05",
                 "--samples", "3", "--out", str(out)]) == 0
    assert len(_read_csv(out)) == 4

    mixed = _instance_file(tmp_path, pure=False, name="mixed.json")
    out2 = tmp_path / "mixed.csv"
    assert main(["simulate", "--instance", str(mixed), "--t-max", "0.05",
                 "--samples", "3", "--out", str(out2)]) == 0
    rows = _read_csv(out2)
    first = dict(zip(CSV_COLUMNS, rows[1]))
    # maximally mixed input: purity 1/4, zero mutual information
    assert float(first["purity"]) == pytest.approx(0.25, abs=1e-10)
    assert abs(float(first["mutual_information"])) < 1e-9


def test_simulate_rejects_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["simulate", "--instance", str(bad)]) == 2
    bad.write_text(json.dumps({"state": {}}))
    assert main(["simulate", "--instance", str(bad)]) == 2
    out = tmp_path / "out.csv"
    for t_max in ("-1", "nan", "inf"):
        assert main(["simulate", "--dims", "2", "2", "--t-max", t_max, "--out", str(out)]) == 2
        assert not out.exists() and "--t-max" in capsys.readouterr().err
    assert main(["simulate", "--dims", "3"]) == 2  # wrong factor count
    inst = json.loads(_instance_file(tmp_path).read_text())
    for dims in ([1, 2, 2, 1, 1], [1, 2, 2]):  # state.dims must list four factors
        inst["state"]["dims"] = dims
        bad.write_text(json.dumps(inst))
        assert main(["simulate", "--instance", str(bad)]) == 2
    # a unit vector in re, but re and im of different shapes
    inst["state"] = {"dims": [1, 2, 2, 1], "re": [0.5, 0.5, 0.5, 0.5], "im": [0.0]}
    bad.write_text(json.dumps(inst))
    assert main(["simulate", "--instance", str(bad)]) == 2
    # strings and booleans are not numbers, even where numpy would read them as such
    inst["state"] = {"dims": [1, 2, 2, 1], "re": ["0.5", "0.5", "0.5", "0.5"], "im": [0, 0, 0, False]}
    bad.write_text(json.dumps(inst))
    assert main(["simulate", "--instance", str(bad)]) == 2
    inst["state"] = {"dims": [1, 2, 2, 1], "re": [True, 0, 0, 0], "im": [0, 0, 0, 0]}
    bad.write_text(json.dumps(inst))
    assert main(["simulate", "--instance", str(bad)]) == 2
    capsys.readouterr()
    # a count flag out of range is rejected, not clamped to 0
    for flag, value in (("--lindblad-ops", "-1"), ("--samples", "1")):
        assert main(["simulate", "--dims", "2", "2", flag, value, "--out", str(out)]) == 2
        assert not out.exists() and flag in capsys.readouterr().err


def test_module_runs_as_a_script(tmp_path):
    # the CLI also runs as a module, without the installed entry point
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "entrate.cli", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    out = tmp_path / "out.csv"
    proc = run("simulate", "--dims", "2", "2", "--t-max", "0.05", "--samples", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = _read_csv(out)
    assert rows[0] == list(CSV_COLUMNS) and len(rows) == 4
    proc = run("simulate", "--dims", "2", "2", "--t-max", "nan")
    assert proc.returncode == 2 and "--t-max" in proc.stderr


def _entropy(m):
    lam = np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2), 0.0, None)
    pos = lam[lam > 0]
    return float(-(pos * np.log(pos)).sum())


def _rk4_plain(h, ls, rho, t, steps):
    # fixed-step RK4 of the GKSL equation with full-space operators
    def apply(r):
        out = -1j * (h @ r - r @ h)
        for l in ls:
            ldl = l.conj().T @ l
            out += l @ r @ l.conj().T - 0.5 * (ldl @ r + r @ ldl)
        return out

    dt = t / steps
    for _ in range(steps):
        k1 = apply(rho)
        k2 = apply(rho + 0.5 * dt * k1)
        k3 = apply(rho + 0.5 * dt * k2)
        k4 = apply(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


@pytest.mark.parametrize("pure", [True, False])
def test_simulate_columns_match_plain_numpy(tmp_path, pure):
    # every CSV row, recomputed with plain numpy from an independent RK4 and
    # the reference built as a matrix and diagonalized: the step-map shape
    # 2 2 2 1 and the K-form shape 1 4 8 1
    for factors in ((2, 2, 2, 1), (1, 4, 8, 1)):
        dims = DimensionSignature(*factors)
        ab = dims.d_A * dims.d_B
        psi = random_pure(dims, 7)
        rho = psi.density() if pure else DensityMatrix(dims, random_density(dims.total, 7))
        gen = LindbladGenerator(dims, random_gue_hamiltonian(ab, 8), (0.5 * random_ginibre_lindblad(ab, 9),))
        path = tmp_path / "inst.json"
        state = state_to_json(psi if pure else rho)
        path.write_text(json.dumps({"state": state, "generator": generator_to_json(gen)}))
        out = tmp_path / "out.csv"
        assert main(["simulate", "--instance", str(path), "--t-max", "0.2",
                     "--samples", "4", "--out", str(out)]) == 0
        rows = _read_csv(out)[1:]
        assert len(rows) == 4

        na, nb = dims.alice, dims.bob
        if pure:
            sigma = smooth(closest_separable_state(schmidt(psi)), 1e-9).matrix
        else:
            m4 = rho.matrix.reshape(na, nb, na, nb)
            prod = np.kron(np.trace(m4, axis1=1, axis2=3), np.trace(m4, axis1=0, axis2=2))
            sigma = 0.999999999 * prod + 1e-9 / dims.total * np.eye(dims.total)
        s_lam, s_vec = np.linalg.eigh((sigma + sigma.conj().T) / 2)
        assert s_lam.min() > 1e-12  # full rank: no row leaks out of its support
        log_s = (s_vec * np.log(s_lam)) @ s_vec.conj().T
        eye_a, eye_b = np.eye(dims.d_a), np.eye(dims.d_b)
        h_full = np.kron(np.kron(eye_a, gen.hamiltonian), eye_b)
        ls_full = [np.kron(np.kron(eye_a, l), eye_b) for l in gen.lindblad_ops]
        times = np.linspace(0.0, 0.2, 4)
        seg = times[1] - times[0]
        m = rho.matrix
        for i, (t, row) in enumerate(zip(times, rows)):
            if i:
                m = _rk4_plain(h_full, ls_full, m, seg, 67)  # max(32, ceil(seg / 1e-3)) steps
            tr = m.trace()
            m4 = m.reshape(na, nb, na, nb)
            want = [
                abs(float(np.real(tr)) - 1.0) + abs(float(np.imag(tr))),
                float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()),
                -_entropy(m) - float(np.real(np.trace(m @ log_s))),
                _entropy(np.trace(m4, axis1=1, axis2=3)) + _entropy(np.trace(m4, axis1=0, axis2=2)) - _entropy(m),
                float(np.real(np.trace(m @ m))),
            ]
            got = [float(x) for x in row[1:]]
            assert row[0] == f"{t:.10g}"
            assert abs(got[2] - want[2]) <= 1e-6 * abs(want[2]), (factors, i)
            for j in (0, 1, 3, 4):
                assert abs(got[j] - want[j]) <= 1e-12, (factors, i, CSV_COLUMNS[j + 1])


def _retry_instance(tmp_path):
    # a strong coherent term: the first segment of 500 steps drifts
    dims = DimensionSignature(1, 2, 2, 1)
    gen = LindbladGenerator(dims, 50 * random_gue_hamiltonian(4, 5), ())
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"state": state_to_json(random_pure(dims, 3)), "generator": generator_to_json(gen)}))
    return ["simulate", "--instance", str(path), "--t-max", "1.0", "--samples", "3"]


def test_simulate_retries_drifting_segments(tmp_path, monkeypatch, capsys):
    # a drifting segment is integrated again with the suggested step count,
    # which the next segment keeps; a segment that still drifts after three
    # retries is a numerical failure (exit 3)
    built = []
    build = dynamics._build_step_map

    def recording(k, ls, h, steps):
        built.append(steps)
        return build(k, ls, h, steps)

    monkeypatch.setattr(dynamics, "_build_step_map", recording)
    argv = _retry_instance(tmp_path)
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert built == [500, 1507, 3014]
    rows = _read_csv(out)[1:]
    assert [r[0] for r in rows] == ["0", "0.5", "1"]
    assert all(abs(float(r[1])) <= 1e-8 and float(r[2]) >= -1e-8 for r in rows)
    monkeypatch.setattr(dynamics, "DRIFT_TOL", 1e-30)
    built.clear()
    assert main([*argv, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert len(built) == 4


def test_simulate_csv_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # one state per chunk writes the same bytes as the default budget, which
    # takes 8 states at n = 64 and the whole series at n = 4 (with retries)
    runs = [["simulate", "--dims", "2", "4", "4", "2", "--lindblad-ops", "3", "--t-max", "0.2",
             "--samples", "12"], _retry_instance(tmp_path)]
    for argv, n in zip(runs, (64, 4)):
        want, got = tmp_path / "default.csv", tmp_path / "one.csv"
        assert main([*argv, "--out", str(want)]) == 0
        with monkeypatch.context() as m:
            m.setattr(dynamics, "SERIES_CHUNK_BYTES", 16 * n * n)
            assert main([*argv, "--out", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes()


def test_simulate_reproduces_the_benchmark_reference_row(tmp_path):
    # the simulate-d64 reference instance, run through the CLI, ends on the
    # row recorded in perfbench/reference.json, column for column within its
    # atol + rtol |value|
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(reference.read_text())["simulate-d64"]
    out = tmp_path / "ref.csv"
    assert main([*ref["argv"], "--out", str(out)]) == 0
    header, *rows = _read_csv(out)
    assert tuple(header) == CSV_COLUMNS
    for col, got, want in zip(CSV_COLUMNS, rows[-1], ref["final_row"], strict=True):
        assert abs(float(got) - want) <= ref["atol"] + ref["rtol"] * abs(want), col


def test_csv_writers_print_numpy_scalars_as_numbers(tmp_path, monkeypatch):
    # NumPy scalars reach both CSV writers (simulate's columns come out of
    # stacked kernels as arrays); every cell is a plain number
    monkeypatch.setattr(cli, "surrogate_rate_fd", lambda *args, **kwargs: np.float64(0.25))
    monkeypatch.setattr(cli, "entangling_rate_bound", lambda gen: np.float64(2.5))
    out = tmp_path / "rates.csv"
    assert main(["sweep-rates", "--dims", "2", "--trials", "1", "--out", str(out)]) == 0
    assert _read_csv(out)[1] == ["2", "0.25", "2.5"]
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--dims", "2", "2", "--t-max", "0.05", "--samples", "3", "--out", str(out)]) == 0
    for row in _read_csv(out)[1:]:
        assert [repr(float(x)) for x in row[1:]] == row[1:]


def test_rate_report_stdout(capsys):
    code = main(["rate", "--dims", "2", "2", "--seed", "4",
                 "--delta-t", "1e-3", "--delta-t", "1e-4", "--strict"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["reports"]) == 2
    rep = obj["reports"][0]
    assert rep["delta_t"] == 1e-3
    assert rep["margin"] == pytest.approx(rep["theorem_bound"] - rep["gamma_surrogate_fd"])
    assert rep["measure"] == "surrogate"
    assert rep["gamma_fd"] == rep["gamma_surrogate_fd"]
    assert rep["dims"] == [1, 2, 2, 1]
    # the expansion is computed once per instance: the same bits in every report
    psi, gen = cli._random_instance(DimensionSignature.cut(2, 2), 4, 1, True)
    kappa, rate_finite = surrogate_rate_analytic(psi, gen)
    assert [(r["kappa"], r["rate_finite"]) for r in obj["reports"]] == [(kappa, rate_finite)] * 2
    assert "gamma_surrogate_analytic" not in rep


def test_rate_bruteforce_orders_below_surrogate(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["rate", "--dims", "2", "2", "--seed", "4", "--measure", "bruteforce",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["gamma_fd"] <= rep["gamma_surrogate_fd"] + 1e-7


def test_rate_requires_pure_state(tmp_path):
    mixed = _instance_file(tmp_path, pure=False)
    assert main(["rate", "--instance", str(mixed)]) == 2


def test_rate_rejects_bad_flags(capsys):
    assert main(["rate", "--dims", "2", "2", "--delta-t", "-1"]) == 2
    assert main(["rate", "--dims", "2", "2", "--eta-ref", "1e-13"]) == 2  # retired flags
    assert main(["rate", "--dims", "2", "2", "--eta", "1e-8"]) == 2
    assert main(["rate", "--dims", "1", "2"]) == 2  # degenerate cut, rate undefined
    capsys.readouterr()
    assert main(["rate", "--dims", "2", "2", "--lindblad-ops", "-1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "--lindblad-ops" in captured.err


def test_certify_small_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": ["prop1", "kittaneh"], "trials": 2, "dims_grid": [2]}))
    out = tmp_path / "cert.jsonl"
    code = main(["certify", "--config", str(cfg), "--out", str(out), "--strict"])
    assert code == 0
    text = capsys.readouterr().out
    assert "prop1" in text and "kittaneh" in text and "status: ok" in text
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[0]["kind"] == "sweep-config"
    assert lines[-1]["status"] == "ok"


def test_certify_overrides_trials_and_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": ["prop1"], "trials": 50, "dims_grid": [2]}))
    code = main(["certify", "--config", str(cfg), "--trials", "1", "--seed", "11"])
    assert code == 0
    assert "trials=1 " in capsys.readouterr().out


def test_certify_strict_flags_violations(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "families": ["prop1"], "trials": 1, "dims_grid": [2],
        "tolerances": {"prop1": -1.0}, "out_dir": str(tmp_path / "ces"),
    }))
    assert main(["certify", "--config", str(cfg), "--strict"]) == 1
    capsys.readouterr()
    assert main(["certify", "--config", str(cfg)]) == 0  # informational without --strict
    ces = list((tmp_path / "ces").glob("prop1-*.json"))
    assert len(ces) >= 1


def test_certify_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery": True}))
    assert main(["certify", "--config", str(cfg)]) == 2
    assert main(["certify", "--config", str(tmp_path / "missing.json")]) == 2
    # the last two: eta changed no check, and eta_ref smoothed the reference the
    # pinch replaced; neither is a config key now
    for text in ('{"trials": 2.5}', '{"trials": true}', '{"tolerances": {"prop1": NaN}}', '{"eta_ref": 1e-3}',
                 '{"trials": 1, "eta": 1e-8}', '{"trials": 1, "eta_ref": 1e-13}'):
        cfg.write_text(text)
        assert main(["certify", "--config", str(cfg)]) == 2, text
    capsys.readouterr()
    for workers in ("0", "-1"):  # rejected, not run serially
        assert main(["certify", "--trials", "1", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert not captured.out and "--workers" in captured.err


def test_sweep_rates_csv(tmp_path):
    out = tmp_path / "rates.csv"
    code = main(["sweep-rates", "--dims", "2", "--trials", "3", "--seed", "0",
                 "--out", str(out), "--strict"])
    assert code == 0
    rows = _read_csv(out)
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert len(rows) == 2
    d, best, bound = rows[1]
    assert int(d) == 2
    assert float(best) <= float(bound)


def test_sweep_rates_rejects_bad_dims():
    assert main(["sweep-rates", "--dims", "1", "--trials", "1"]) == 2


def test_sweep_rates_rejects_bad_counts(capsys):
    # a usage error before any row: with no trial there is no rate to report,
    # and a sweep runs at one finite-difference step, so a second is refused
    for flags in (["--trials", "0"], ["--trials", "-3"], ["--trials", "0", "--strict"],
                  ["--lindblad-ops", "-1"], ["--delta-t", "1e-3", "--delta-t", "1e-5"]):
        assert main(["sweep-rates", "--dims", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert not captured.out and flags[0] in captured.err


def test_every_option_has_help_text():
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings:
                assert action.help, (command, action.option_strings)


def test_usage_errors_exit_2():
    assert main([]) == 2  # missing subcommand
    assert main(["frobnicate"]) == 2
