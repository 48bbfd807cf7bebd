import hashlib
import json
import math

import numpy as np
import pytest

from entrate.certify import (
    DEFAULT_TOLERANCES,
    FAMILIES,
    Certificate,
    FormatError,
    SweepConfig,
    cells_for,
    replay,
    run_sweep,
)
from entrate.certify import _trial_seed


def test_config_defaults_cover_every_family():
    cfg = SweepConfig()
    assert cfg.families == FAMILIES
    assert set(DEFAULT_TOLERANCES) == set(FAMILIES)
    for fam in FAMILIES:
        assert cfg.tolerance(fam) == DEFAULT_TOLERANCES[fam]
    assert cfg.tolerance("prop1") == 1e-10


def test_config_rejects_bad_values():
    with pytest.raises(FormatError):
        SweepConfig(families=("prop1", "nope"))
    with pytest.raises(FormatError):
        SweepConfig(trials=0)
    with pytest.raises(FormatError):
        SweepConfig(measure="exact")
    with pytest.raises(FormatError):
        SweepConfig(dims_grid=(1, 2))
    with pytest.raises(FormatError):
        SweepConfig(delta_ts=(0.0,))
    for bad in (float("nan"), float("inf"), "nan", True):  # non-finite or not a number
        with pytest.raises(FormatError):
            SweepConfig(delta_ts=(1e-3, bad))
    for bad in (2.7, "2", True):  # not an exact integer
        with pytest.raises(FormatError):
            SweepConfig(dims_grid=(bad, 3))
    with pytest.raises(FormatError):
        SweepConfig.from_json({"dims_grid": [2.7, 3], "delta_ts": ["nan", "inf"], "trials": 1})
    assert SweepConfig(dims_grid=(np.int64(2), 3)).dims_grid == (2, 3)
    with pytest.raises(FormatError):
        SweepConfig(fail_fraction=1.0)
    with pytest.raises(FormatError):
        SweepConfig(tolerances={"nope": 1e-3})


def test_config_json_roundtrip_and_unknown_keys():
    cfg = SweepConfig(families=("prop1", "kittaneh"), trials=7, base_seed=99)
    again = SweepConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(FormatError):
        SweepConfig.from_json({"trials": 3, "mystery": 1})
    with pytest.raises(FormatError):
        SweepConfig.from_json(["not", "a", "dict"])


def test_trial_seed_matches_hash_construction():
    cell = {"d_A": 2, "d_B": 3}
    payload = json.dumps([2024, "prop1", cell, 5], sort_keys=True)
    want = int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "big")
    assert _trial_seed(2024, "prop1", cell, 5) == want
    # distinct trials get distinct seeds
    seeds = {_trial_seed(2024, "prop1", cell, i) for i in range(50)}
    assert len(seeds) == 50


def test_cells_for_counts():
    cfg = SweepConfig(dims_grid=(2, 3), delta_ts=(1e-3, 1e-4))
    assert len(cells_for("prop1", cfg)) == 4
    assert len(cells_for("h_term", cfg)) == 4
    assert len(cells_for("l_term", cfg)) == 9
    assert len(cells_for("mixing", cfg)) == 3
    assert len(cells_for("kittaneh", cfg)) == 3
    assert len(cells_for("theorem2", cfg)) == 4
    assert len(cells_for("theorem3", cfg)) == 9
    assert len(cells_for("bravyi_lemma1", cfg)) == 2
    assert len(cells_for("axioms", cfg)) == 4
    with pytest.raises(FormatError):
        cells_for("nope", cfg)


def _small_config(**overrides):
    base = dict(
        families=("prop1", "kittaneh", "bravyi_lemma1"),
        trials=3,
        base_seed=7,
        dims_grid=(2,),
        delta_ts=(1e-3,),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_run_sweep_smoke():
    cert = run_sweep(_small_config())
    assert cert.status == "ok"
    for fam in ("prop1", "kittaneh", "bravyi_lemma1"):
        summary = cert.families[fam]
        assert summary["violations"] == 0
        assert summary["numerical_failures"] == 0
        assert summary["status"] == "ok"
        assert summary["worst_margin"] is not None
        assert summary["trials"] == 3 * len(summary["cells"])
    assert cert.counterexamples == []


def _stable_lines(cert):
    # everything except the runtime-bearing summary line is deterministic
    return [l for l in cert.to_jsonl().splitlines() if '"kind": "summary"' not in l]


def test_run_sweep_deterministic():
    a = run_sweep(_small_config())
    b = run_sweep(_small_config())
    assert _stable_lines(a) == _stable_lines(b)


def test_run_sweep_parallel_matches_serial():
    cfg = _small_config(families=("prop1", "kittaneh"))
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=2)
    assert _stable_lines(serial) == _stable_lines(parallel)


def test_theorem2_sweep_with_both_measures():
    for measure in ("surrogate", "bruteforce"):
        cfg = SweepConfig(
            families=("theorem2",), trials=2, dims_grid=(2,), delta_ts=(1e-3,), measure=measure
        )
        cert = run_sweep(cfg)
        assert cert.status == "ok", measure


def test_axioms_sweep_includes_seesaw_crosscheck():
    cfg = SweepConfig(families=("axioms",), trials=2, dims_grid=(2,))
    cert = run_sweep(cfg)
    assert cert.status == "ok"
    assert cert.families["axioms"]["worst_margin"] >= 0.0


def test_forced_violation_dumps_and_replays(tmp_path):
    # an impossible tolerance turns every trial into a counterexample
    cfg = _small_config(
        families=("prop1",), trials=2, tolerances={"prop1": -1.0}, out_dir=str(tmp_path)
    )
    cert = run_sweep(cfg)
    assert cert.status == "violated"
    assert cert.families["prop1"]["violations"] == 2
    assert len(cert.counterexamples) == 2
    rec = cert.counterexamples[0]
    assert rec["file"].endswith(f"prop1-{rec['cell_hash']}-{rec['seed']}.json")

    result = replay(rec["file"])
    assert result.tag.startswith("prop1:")
    # bit-for-bit reproduction of the recorded margins
    recorded = {c["name"]: c["margin"] for c in rec["checks"]}
    replayed = {c["name"]: c["margin"] for c in result.witness["checks"]}
    assert replayed == recorded
    assert result.witness["cell"] == rec["cell"]
    assert result.witness["seed"] == rec["seed"]


def test_certificate_jsonl_shape(tmp_path):
    cfg = _small_config(families=("prop1",), trials=1)
    cert = run_sweep(cfg)
    path = tmp_path / "cert.jsonl"
    cert.write(path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    kinds = [l["kind"] for l in lines]
    assert kinds[0] == "sweep-config"
    assert kinds[-1] == "summary"
    assert kinds.count("family-summary") == 1
    assert lines[-1]["status"] == "ok"
    assert lines[-1]["runtime_s"] >= 0.0


def test_replay_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        replay(bad)
    bad.write_text(json.dumps({"family": "prop1"}))
    with pytest.raises(FormatError):
        replay(bad)
    bad.write_text(json.dumps({"family": "nope", "cell": {}, "seed": 1, "inputs": {}}))
    with pytest.raises(FormatError):
        replay(bad)
    bad.write_text(json.dumps({"family": "prop1", "cell": {}, "seed": 1, "inputs": {}}))
    with pytest.raises(FormatError):  # inputs missing the state
        replay(bad)
    mixed = {"dims": [1, 2, 2, 1], "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
    bad.write_text(json.dumps({"family": "prop1", "cell": {}, "seed": 1, "inputs": {"psi": mixed}}))
    with pytest.raises(FormatError):  # psi must decode to a pure state
        replay(bad)
    ragged = {"dims": [1, 2, 2, 1], "re": [0.5, 0.5, 0.5, 0.5], "im": [0.0]}
    bad.write_text(json.dumps({"family": "prop1", "cell": {}, "seed": 1, "inputs": {"psi": ragged}}))
    with pytest.raises(FormatError):  # re and im of different shapes
        replay(bad)


def test_certificate_status_precedence():
    cfg = _small_config(families=("prop1", "kittaneh"))
    ok = {"status": "ok"}
    assert Certificate(cfg, {"prop1": ok, "kittaneh": ok}, [], 0.0).status == "ok"
    assert (
        Certificate(cfg, {"prop1": ok, "kittaneh": {"status": "inconclusive"}}, [], 0.0).status
        == "inconclusive"
    )
    assert (
        Certificate(
            cfg, {"prop1": {"status": "violated"}, "kittaneh": {"status": "inconclusive"}}, [], 0.0
        ).status
        == "violated"
    )


def test_full_family_coverage_minimal():
    # one trial of everything on the smallest grid stays fast and green
    cfg = SweepConfig(trials=1, dims_grid=(2,), delta_ts=(1e-3,))
    cert = run_sweep(cfg)
    assert cert.status == "ok"
    assert set(cert.families) == set(FAMILIES)
    assert math.isfinite(cert.runtime_s)
