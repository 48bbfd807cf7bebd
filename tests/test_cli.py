import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entrate import cli
from entrate.cli import CSV_COLUMNS, SWEEP_COLUMNS, main
from entrate.dynamics import LindbladGenerator, generator_to_json
from entrate.states import (
    DensityMatrix,
    DimensionSignature,
    matrix_to_json,
    random_density,
    random_ginibre_lindblad,
    random_gue_hamiltonian,
    random_pure,
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


@pytest.mark.parametrize("pure", [True, False])
def test_simulate_columns_match_plain_numpy(tmp_path, monkeypatch, pure):
    # every CSV value, recomputed from the row's state and the reference with
    # plain numpy, must equal what simulate wrote from the kept spectra
    dims = DimensionSignature(2, 2, 2, 1)
    state = state_to_json(random_pure(dims, 7) if pure else DensityMatrix(dims, random_density(8, 7)))
    gen = LindbladGenerator(dims, random_gue_hamiltonian(4, 8), (0.5 * random_ginibre_lindblad(4, 9),))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"state": state, "generator": generator_to_json(gen)}))
    seen = []
    relative_entropy = cli.relative_entropy

    def recording(rho, sigma, **kwargs):
        seen.append((rho.matrix.copy(), sigma.matrix.copy()))
        return relative_entropy(rho, sigma, **kwargs)

    monkeypatch.setattr(cli, "relative_entropy", recording)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--instance", str(path), "--t-max", "0.2",
                 "--samples", "4", "--out", str(out)]) == 0
    monkeypatch.undo()
    rows = _read_csv(out)[1:]
    assert len(rows) == len(seen) == 4
    for t, row, (m, s) in zip(np.linspace(0.0, 0.2, 4), rows, seen):
        tr = m.trace()
        s_lam, s_vec = np.linalg.eigh((s + s.conj().T) / 2)
        # Tr m ln s as <ln s, m> with ln s = V diag(ln lambda) V† (s is full rank)
        overlap = float(np.vdot((s_vec * np.log(s_lam)) @ s_vec.conj().T, m).real)
        left = np.trace(m.reshape(4, 2, 4, 2), axis1=1, axis2=3)  # keep aA, trace out Bb
        right = np.trace(m.reshape(4, 2, 4, 2), axis1=0, axis2=2)  # keep Bb
        expected = [
            f"{t:.10g}",
            repr(abs(float(np.real(tr)) - 1.0) + abs(float(np.imag(tr)))),
            repr(float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())),
            repr(max(-_entropy(m) - overlap, 0.0)),
            repr(_entropy(left) + _entropy(right) - _entropy(m)),
            repr(float(np.vdot(m, m).real)),
        ]
        assert row == expected
        # the same values by the eigenvector-weight and Tr(m @ m) formulas
        weights = np.real(np.einsum("ij,ij->j", s_vec.conj(), m @ s_vec))
        assert abs(float((np.log(s_lam) * weights).sum()) - overlap) <= 1e-12
        assert abs(float(np.real(np.trace(m @ m))) - float(row[5])) <= 1e-12


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
    assert main(["rate", "--dims", "2", "2", "--eta-ref", "0.5"]) == 2
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
    # a usage error before any row: with no trial there is no rate to report
    for flags in (["--trials", "0"], ["--trials", "-3"], ["--trials", "0", "--strict"],
                  ["--lindblad-ops", "-1"]):
        assert main(["sweep-rates", "--dims", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert not captured.out and flags[0] in captured.err


def test_usage_errors_exit_2():
    assert main([]) == 2  # missing subcommand
    assert main(["frobnicate"]) == 2
