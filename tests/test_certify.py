import concurrent.futures
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

import entrate.certify
import entrate.measures
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
from entrate.certify import _build, _eval, _pack_inputs, _run_cell, _trial_seed, _unpack_inputs
from entrate.linalg import NumericalFailure
from entrate.rates import InequalityResult, SamplerFailure
from entrate.states import DensityMatrix, PureState


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
    # nothing to certify, or a family or cell counted twice, is not an ok certificate
    for bad in (
        {"families": ()},
        {"dims_grid": ()},
        {"delta_ts": ()},
        {"families": ("prop1", "prop1")},
        {"dims_grid": (2, 2)},
        {"dims_grid": (2, 3, np.int64(2))},
        {"delta_ts": (1e-3, 1e-3)},
        {"delta_ts": (1e-3, 1e-4, 0.001)},
    ):
        with pytest.raises(FormatError):
            SweepConfig(**bad)
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
    # a NaN tolerance would certify any margin: margin + nan < 0 is never true
    for bad in (float("nan"), float("inf"), float("-inf"), "1e-3", True, None):
        with pytest.raises(FormatError):
            SweepConfig(tolerances={"prop1": bad})
    # the last: the rate probe's reference has no smoothing weight any more
    for text in ('{"tolerances": {"prop1": NaN}}', '{"tolerances": {"prop1": Infinity}}',
                 '{"trials": 1, "eta_ref": 1e-13}'):
        with pytest.raises(FormatError):
            SweepConfig.from_json(json.loads(text))
    with pytest.raises(FormatError):
        SweepConfig(tolerances=[("prop1", 1e-3)])
    tols = SweepConfig(tolerances={"prop1": 0, "axioms": np.float64(1e-3), "kittaneh": -1.0}).tolerances
    assert tols == {"prop1": 0.0, "axioms": 1e-3, "kittaneh": -1.0}
    for bad in (2.5, True, "2", 0):  # trials is an exact positive integer
        with pytest.raises(FormatError):
            SweepConfig(trials=bad)
    assert SweepConfig(trials=np.int64(3)).trials == 3
    for bad in (1.5, True, "7", None):  # base_seed is an exact integer
        with pytest.raises(FormatError):
            SweepConfig(base_seed=bad)
    assert SweepConfig(base_seed=np.int64(-7)).base_seed == -7
    for bad in (False, "0.1", float("nan")):
        with pytest.raises(FormatError):
            SweepConfig(fail_fraction=bad)
    with pytest.raises(FormatError):  # not a path: the sweep would fail at its first dump
        SweepConfig(out_dir=5)
    assert SweepConfig(out_dir=pathlib.Path("ces")).out_dir == "ces"


def test_config_json_roundtrip_and_unknown_keys():
    cfg = SweepConfig(families=("prop1", "kittaneh"), trials=7, base_seed=99)
    again = SweepConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(FormatError):
        SweepConfig.from_json({"trials": 3, "mystery": 1})
    with pytest.raises(FormatError, match="unknown config keys: eta"):  # eta changed no check
        SweepConfig.from_json({"trials": 1, "eta": 1e-8})
    with pytest.raises(FormatError, match="unknown config keys: eta_ref"):  # the pinch needs no smoothing
        SweepConfig.from_json({"trials": 1, "eta_ref": 1e-13})
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


def test_run_sweep_starts_no_more_workers_than_cells(monkeypatch):
    # the pool starts all its workers at once, so a large worker count asks
    # for one per cell; the fake pool records the request and maps in-process
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = _small_config(families=("prop1", "kittaneh"))
    cells = sum(len(cells_for(family, cfg)) for family in cfg.families)
    cert = run_sweep(cfg, workers=10**6)
    assert 1 < cells < 10**6 and asked == [cells]
    assert _stable_lines(cert) == _stable_lines(run_sweep(cfg))


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


@pytest.mark.parametrize("d, seesaws", [(3, 0), (2, 5)])
def test_axioms_stack_takes_one_schmidt_decomposition(monkeypatch, d, seesaws):
    # one for the stack's states (entropy and product factors); the rotated,
    # product and rotated maximally entangled states' entropies read singular
    # values only.  Each see-saw (2x2, not 3x3) takes its own for its start
    calls = []
    for owner in (entrate.certify, entrate.measures):
        fn = owner.schmidt
        monkeypatch.setattr(owner, "schmidt", lambda psi, fn=fn: calls.append(psi) or fn(psi))
    cell = {"d_A": d, "d_B": d}
    cfg = SweepConfig(families=("axioms",), trials=5)
    seeds = [_trial_seed(2024, "axioms", cell, i) for i in range(5)]
    _eval("axioms", _build("axioms", cell, seeds, cfg), 0.0)
    assert len(calls) == 1 + seesaws


# each family's worst margin in the default sweep at one trial per cell, so a
# change that claims to leave the certificate alone is held to it
DEFAULT_WORST_MARGINS = {
    "prop1": -9.658940314238862e-15,
    "h_term": 2.448514600986704,
    "l_term": 29.7711570360732,
    "mixing": 0.7920584734903607,
    "kittaneh": 0.9526718551700897,
    "theorem2": 0.0,
    "theorem3": 11.088999523957538,
    "bravyi_lemma1": 0.20175513255823616,
    "axioms": 9.993338661852249e-13,
}


def test_default_certificate_is_pinned():
    cert = run_sweep(SweepConfig(trials=1, base_seed=2024))
    assert cert.status == "ok"
    for fam, want in DEFAULT_WORST_MARGINS.items():
        row = cert.families[fam]
        assert (row["status"], row["trials"], row["violations"]) == ("ok", len(cells_for(fam, cert.config)), 0)
        assert row["worst_margin"] == pytest.approx(want, rel=1e-9, abs=0.0), fam


# each family's worst margin in the benchmark's own pass, five trials per cell
# (stacks of five) at its two seeds, as the code before theorem2 and the
# axioms' entropies were stacked read them: stacking moves no certificate
STACKED_WORST_MARGINS = {
    2024: {"prop1": -9.658940314238862e-15, "h_term": 2.1303442241964, "l_term": 29.745725035216207,
           "mixing": 0.7650564672179256, "kittaneh": 0.571748349233951, "theorem2": 0.0,
           "theorem3": 11.032647861616116, "bravyi_lemma1": 0.20175513255823616, "axioms": 9.984456877655248e-13},
    8128: {"prop1": -1.226796442210798e-14, "h_term": 2.25865278268206, "l_term": 29.754719664476696,
           "mixing": 0.7601023701783898, "kittaneh": 0.5755857046909771, "theorem2": 0.0,
           "theorem3": 11.001732458784181, "bravyi_lemma1": 0.20180301925537178, "axioms": 9.988897769753748e-13},
}


@pytest.mark.parametrize("seed", sorted(STACKED_WORST_MARGINS))
def test_stacked_certificate_is_pinned(seed):
    cert = run_sweep(SweepConfig(trials=5, base_seed=seed))
    assert cert.status == "ok"
    got = {fam: repr(row["worst_margin"]) for fam, row in cert.families.items()}
    assert got == {fam: repr(v) for fam, v in STACKED_WORST_MARGINS[seed].items()}


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


def _same_input(a, b) -> bool:
    # equal type, dims and every bit of the numbers
    if isinstance(a, (PureState, DensityMatrix)):
        data = "amplitudes" if isinstance(a, PureState) else "matrix"
        return type(a) is type(b) and a.dims == b.dims and np.array_equal(getattr(a, data), getattr(b, data))
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(_same_input, a, b))
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("family", FAMILIES)
def test_counterexample_inputs_roundtrip_exactly(family):
    # a built trial's inputs, packed, sent through JSON text and unpacked; at
    # these seeds the theorem2 and theorem3 trials draw 3 and 2 jump operators
    cfg = SweepConfig()
    cell = cells_for(family, cfg)[-1]
    inputs = _build(family, cell, _trial_seed(cfg.base_seed, family, cell, 0), cfg)
    assert inputs.get("Ls", [None])
    back = _unpack_inputs(family, json.loads(json.dumps(_pack_inputs(family, inputs))))
    assert back.keys() == inputs.keys()
    for key, value in inputs.items():
        assert _same_input(value, back[key]), key


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
    # every config field, with tuples written as lists
    assert lines[0] == {
        "kind": "sweep-config",
        "families": ["prop1"],
        "trials": 1,
        "base_seed": 7,
        "measure": "surrogate",
        "dims_grid": [2],
        "delta_ts": [1e-3],
        "tolerances": {},
        "fail_fraction": 0.1,
        "out_dir": None,
    }
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
    strings = {"dims": [1, 2, 2, 1], "re": ["0.5", "0.5", "0.5", "0.5"], "im": [0, 0, 0, False]}
    bad.write_text(json.dumps({"family": "prop1", "cell": {}, "seed": 1, "inputs": {"psi": strings}}))
    with pytest.raises(FormatError):  # entries must be numbers, not strings or booleans
        replay(bad)
    for inputs in (5, None, "x", ["psi"]):  # inputs that are not an object
        bad.write_text(json.dumps({"family": "prop1", "cell": {}, "seed": 1, "inputs": inputs}))
        with pytest.raises(FormatError):
            replay(bad)
    psi = {"dims": [1, 2, 2, 1], "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}
    inputs = {"psi": psi, "H": {"re": [[True, 0, 0, 0]] + [[0] * 4] * 3, "im": [[0] * 4] * 4}}
    bad.write_text(json.dumps({"family": "h_term", "cell": {}, "seed": 1, "inputs": inputs}))
    with pytest.raises(FormatError):
        replay(bad)


def _theorem2_counterexample(tmp_path) -> pathlib.Path:
    # one theorem2 trial at a tolerance no rate-bound margin meets
    cfg = SweepConfig(
        families=("theorem2",),
        trials=1,
        dims_grid=(2,),
        delta_ts=(1e-3,),
        tolerances={"theorem2": -1e12},
        out_dir=str(tmp_path),
    )
    (rec,) = run_sweep(cfg).counterexamples
    return pathlib.Path(rec["file"])


def test_replay_scores_each_check_at_its_recorded_tol(tmp_path):
    # the sweep failed rate-bound at its overridden tolerance; scored at the
    # defaults, replay would name measure-ordering instead
    path = _theorem2_counterexample(tmp_path)
    recorded = json.loads(path.read_text())["checks"]
    result = replay(path)
    assert result.tag == "theorem2:rate-bound"
    assert [c["tol"] for c in result.witness["checks"]] == [c["tol"] for c in recorded] == [-1e12, 1e-7]
    assert _bits(result.witness["checks"]) == _bits(recorded)


def test_replay_rejects_recorded_tols_that_are_not_finite_numbers(tmp_path):
    path = _theorem2_counterexample(tmp_path)
    rec = json.loads(path.read_text())
    for bad in (math.nan, math.inf, "-1e12", True, None):
        path.write_text(json.dumps({**rec, "checks": [{**rec["checks"][0], "tol": bad}]}))
        with pytest.raises(FormatError, match="tol"):
            replay(path)
    for bad in (5, [{"name": "rate-bound"}], [["rate-bound", 1e-3]]):
        path.write_text(json.dumps({**rec, "checks": bad}))
        with pytest.raises(FormatError):
            replay(path)
    # a file that records no checks is scored at the defaults
    for checks in ({}, {"checks": []}):
        path.write_text(json.dumps({**{k: v for k, v in rec.items() if k != "checks"}, **checks}))
        result = replay(path)
        assert [c["tol"] for c in result.witness["checks"]] == [DEFAULT_TOLERANCES["theorem2"], 1e-7]
        assert result.tag == "theorem2:measure-ordering"


def test_a_theorem2_file_with_the_retired_eta_replays_bit_for_bit(tmp_path):
    # theorem2's inputs once carried eta, which no check read; the decoder
    # ignores the extra key, whatever its value
    path = _theorem2_counterexample(tmp_path)
    rec = json.loads(path.read_text())
    assert "eta" not in rec["inputs"]
    for eta in (1e-8, 1e-4):
        path.write_text(json.dumps({**rec, "inputs": {**rec["inputs"], "eta": eta}}))
        assert _bits(replay(path).witness["checks"]) == _bits(rec["checks"])


def test_a_theorem2_file_with_the_retired_eta_ref_replays_with_no_smaller_margin():
    # a counterexample written while the rate probe measured against the
    # Schmidt mixture smoothed by eta_ref = 1e-13; the decoder ignores the
    # retired key, and the pinch is never farther than that reference, so
    # the rate-bound lhs can only fall (here from +2.47 to -1.53: the trial
    # has two jump operators, whose leak the smoothed reference charged
    # ln(n / eta_ref) per unit of weight)
    path = pathlib.Path(__file__).parent / "data" / "theorem2-eta-ref-counterexample.json"
    rec = json.loads(path.read_text())
    assert rec["inputs"]["eta_ref"] == 1e-13 and len(rec["inputs"]["Ls"]) == 2
    recorded = {c["name"]: c for c in rec["checks"]}
    checks = {c["name"]: c for c in replay(path).witness["checks"]}
    assert checks.keys() == recorded.keys()
    assert checks["rate-bound"]["rhs"] == recorded["rate-bound"]["rhs"]
    assert checks["rate-bound"]["margin"] >= recorded["rate-bound"]["margin"]
    assert checks["rate-bound"]["lhs"] < recorded["rate-bound"]["lhs"] - 1.0
    assert checks["measure-ordering"]["margin"] == 0.0


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


def _bits(checks) -> list:
    # each check's name and the exact text of its numbers, -0.0 apart from 0.0
    return [(c["name"], repr(c["lhs"]), repr(c["rhs"]), repr(c["margin"])) for c in checks]


def test_every_family_replays_its_counterexamples_bit_for_bit(tmp_path):
    # tolerances no margin meets turn every trial into a counterexample; a
    # file replays as a stack of one, the sweep built its trials as stacks
    cfg = SweepConfig(
        trials=2,
        dims_grid=(2,),
        delta_ts=(1e-3,),
        tolerances=dict.fromkeys(FAMILIES, -1e9),
        out_dir=str(tmp_path),
    )
    cert = run_sweep(cfg)
    for fam in FAMILIES:
        assert cert.families[fam]["violations"] == cert.families[fam]["trials"] > 0, fam
    assert len(cert.counterexamples) == sum(cert.families[fam]["trials"] for fam in FAMILIES)
    for rec in cert.counterexamples:
        recorded = json.loads(pathlib.Path(rec["file"]).read_text())["checks"]
        assert _bits(replay(rec["file"]).witness["checks"]) == _bits(recorded), rec["file"]


@pytest.mark.parametrize("family", FAMILIES)
def test_a_cell_of_five_trials_equals_five_cells_of_one(family, monkeypatch):
    # the stacked cell against each of its trials run as a stack of one:
    # the same inputs, checks and worst margin to the bit
    seed_of = _trial_seed
    for cell in (cells_for(family, SweepConfig())[0], cells_for(family, SweepConfig())[-1]):
        five = _run_cell(SweepConfig(trials=5, tolerances={family: -1e9}), family, cell)
        ones = []
        for k in range(5):
            monkeypatch.setattr(entrate.certify, "_trial_seed", lambda base, fam, c, i, k=k: seed_of(base, fam, c, k))
            ones.append(_run_cell(SweepConfig(trials=1, tolerances={family: -1e9}), family, cell))
        monkeypatch.setattr(entrate.certify, "_trial_seed", seed_of)
        assert five["failures"] == 0 and five["violations"] == 5
        assert repr(five["worst_margin"]) == repr(min(one["worst_margin"] for one in ones))
        for stacked, (one,) in zip(five["counterexamples"], (one["counterexamples"] for one in ones)):
            assert stacked["seed"] == one["seed"]
            assert stacked["inputs"] == one["inputs"]
            assert _bits(stacked["checks"]) == _bits(one["checks"])


def test_a_failing_trial_is_charged_to_itself_alone(monkeypatch):
    # the sampler fails on trial 3's generator, so the stacked build raises;
    # the cell runs again trial by trial and only trial 3 fails
    cfg = SweepConfig(families=("prop1",), trials=5, dims_grid=(2,))
    cell = cells_for("prop1", cfg)[0]
    seeds = [_trial_seed(cfg.base_seed, "prop1", cell, i) for i in range(5)]
    planted = np.random.default_rng(seeds[3]).bit_generator.state
    sampler, check = entrate.certify.random_pure, entrate.certify.pure_ree_identity_check
    evaluated = []

    def failing_sampler(dims, rngs):
        if any(rng.bit_generator.state == planted for rng in rngs):
            raise SamplerFailure("planted failure")
        return sampler(dims, rngs)

    monkeypatch.setattr(entrate.certify, "random_pure", failing_sampler)
    monkeypatch.setattr(entrate.certify, "pure_ree_identity_check", lambda psis: evaluated.extend(psis) or check(psis))
    out = _run_cell(cfg, "prop1", cell)
    assert out["failures"] == 1
    assert out["errors"] == [{"index": 3, "seed": seeds[3], "error": "SamplerFailure: planted failure"}]
    assert len(evaluated) == 4 and math.isfinite(out["worst_margin"])


def test_a_long_cell_runs_in_stacks_of_five(monkeypatch):
    # 12 trials are stacks of 5, 5 and 2; a failure in the second stack runs
    # only that stack again trial by trial, and is charged to trial 7 alone
    cfg = SweepConfig(families=("prop1",), trials=12, dims_grid=(2,), tolerances={"prop1": -1e9})
    cell = cells_for("prop1", cfg)[0]
    seeds = [_trial_seed(cfg.base_seed, "prop1", cell, i) for i in range(12)]
    planted = np.random.default_rng(seeds[7]).bit_generator.state
    sampler = entrate.certify.random_pure
    sizes = []

    def failing_sampler(dims, rngs):
        sizes.append(len(rngs))
        if any(rng.bit_generator.state == planted for rng in rngs):
            raise SamplerFailure("planted failure")
        return sampler(dims, rngs)

    monkeypatch.setattr(entrate.certify, "random_pure", failing_sampler)
    out = _run_cell(cfg, "prop1", cell)
    assert sizes == [5, 5, 1, 1, 1, 1, 1, 2]
    assert out["errors"] == [{"index": 7, "seed": seeds[7], "error": "SamplerFailure: planted failure"}]
    assert out["violations"] == 11
    assert [(c["trial_index"], c["seed"]) for c in out["counterexamples"]] == [
        (i, seeds[i]) for i in range(12) if i != 7
    ]


def _patched_prop1(monkeypatch, margin):
    result = InequalityResult("pure-ree-identity", 0.5, 0.0, margin)
    monkeypatch.setattr(
        entrate.certify,
        "pure_ree_identity_check",
        lambda psi: [result] * len(psi) if isinstance(psi, list) else result,
    )


def test_a_nan_margin_is_a_numerical_failure(monkeypatch, tmp_path):
    # a NaN margin neither holds nor fails: min() would let it pass or drop it
    # by where it sits, so the sweep fails its trial and replay raises
    _patched_prop1(monkeypatch, math.nan)
    cert = run_sweep(SweepConfig(families=("prop1",), trials=2, dims_grid=(2,)))
    row = cert.families["prop1"]
    assert (row["status"], row["numerical_failures"], row["violations"], row["worst_margin"]) == (
        "inconclusive",
        2,
        0,
        None,
    )
    for i, error in enumerate(row["cells"][0]["errors"]):
        assert error["index"] == i
        assert error["error"] == "NumericalFailure: check pure-ree-identity has a NaN margin (lhs 0.5, rhs 0.0)"
    # a file written while the check was whole replays through the NaN
    monkeypatch.undo()
    cfg = SweepConfig(families=("prop1",), trials=1, dims_grid=(2,), tolerances={"prop1": -1.0}, out_dir=str(tmp_path))
    path = run_sweep(cfg).counterexamples[0]["file"]
    _patched_prop1(monkeypatch, math.nan)
    with pytest.raises(NumericalFailure, match="NaN margin"):
        replay(path)


@pytest.mark.parametrize("margin, status", [(-math.inf, "violated"), (math.inf, "ok")])
def test_infinite_margins_keep_their_meaning(monkeypatch, margin, status):
    _patched_prop1(monkeypatch, margin)
    row = run_sweep(SweepConfig(families=("prop1",), trials=2, dims_grid=(2,))).families["prop1"]
    assert (row["status"], row["numerical_failures"]) == (status, 0)
