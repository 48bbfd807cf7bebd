"""Acceptance sweep: every headline inequality certified at its pinned tolerance.

Each check draws a fresh randomized corpus with fixed seeds, evaluates one
inequality family end to end, and prints a single PASS/FAIL line with the
worst observed margin.  Run under pytest (add -s to stream the lines), or
execute the file directly for the sequential report."""

import math
import sys
import tempfile
import time
from itertools import product

import numpy as np

from entrate.cli import main as cli_main
from entrate.dynamics import LindbladGenerator, convergence_order
from entrate.measures import ree_bruteforce, relative_entropy
from entrate.rates import (
    commutator_trace_norm_check,
    dissipative_commutator_check,
    entangling_rate_fd,
    hamiltonian_commutator_check,
    marginal_split_check,
    mi_rate_bound,
    mutual_info_rate_analytic,
    mutual_info_rate_fd,
    random_xy_pair,
    small_incremental_mixing_check,
    surrogate_rate_analytic,
    surrogate_rate_fd,
)
from entrate.states import (
    DensityMatrix,
    DimensionSignature,
    PureState,
    closest_separable_state,
    convex_split_witness,
    random_density,
    random_ginibre_lindblad,
    random_gue_hamiltonian,
    random_pure,
    schmidt,
    smooth,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# shared corpus for the two pure-state checks: 200 Haar states per cut
_CORPUS_CUTS = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
_corpus: list | None = None


def _pure_corpus() -> list:
    global _corpus
    if _corpus is None:
        rows = []
        for ci, (da, db) in enumerate(_CORPUS_CUTS):
            dims = DimensionSignature.cut(da, db)
            for i in range(200):
                psi = random_pure(dims, (101, ci, i))
                sd = schmidt(psi)
                rows.append((psi, sd, closest_separable_state(sd)))
        _corpus = rows
    return _corpus


def test_01_separable_reference_domination():
    # d * sigma0 - rho must be positive semidefinite for every pure state
    t0 = time.perf_counter()
    rows = _pure_corpus()
    worst = math.inf
    for psi, _sd, sigma0 in rows:
        _mu, min_eig = convex_split_witness(psi.density(), sigma0, psi.dims.d)
        worst = min(worst, min_eig)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed < 30.0
    _report(
        "separable-reference-domination",
        ok,
        f"{len(rows)} states over cuts {_CORPUS_CUTS}, worst min-eig {worst:.2e} "
        f"(floor -1e-10), {elapsed:.1f}s (cap 30s)",
    )


def test_02_pure_ree_closed_form():
    # relative entropy to the dephased Schmidt mixture equals the Schmidt entropy
    worst = 0.0
    for psi, sd, sigma0 in _pure_corpus():
        worst = max(worst, abs(relative_entropy(psi.density(), sigma0) - sd.entropy()))
    worst_me = 0.0
    for d in (2, 3, 4):
        dims = DimensionSignature.cut(d, d)
        amp = np.zeros(d * d, dtype=complex)
        amp[:: d + 1] = 1.0 / math.sqrt(d)
        psi = PureState(dims, amp)
        val = relative_entropy(psi.density(), closest_separable_state(schmidt(psi)))
        worst_me = max(worst_me, abs(val - math.log(d)))
    ok = worst <= 1e-12 and worst_me <= 1e-12
    _report(
        "pure-ree-closed-form",
        ok,
        f"worst |D - Schmidt entropy| {worst:.2e} over {len(_pure_corpus())} states, "
        f"worst maximally-entangled |D - ln d| {worst_me:.2e} (tol 1e-12)",
    )


def test_03_bruteforce_ree_calibration():
    # see-saw minimizer reproduces the closed-form value on pure states
    t0 = time.perf_counter()
    plan = [((2, 2), 14), ((2, 3), 12), ((2, 4), 6), ((3, 3), 12), ((4, 4), 6)]
    worst = 0.0
    n = 0
    for ci, ((da, db), count) in enumerate(plan):
        dims = DimensionSignature.cut(da, db)
        for i in range(count):
            psi = random_pure(dims, (301, ci, i))
            est = ree_bruteforce(psi.density(), seed=(302, ci, i))
            worst = max(worst, abs(est.value - schmidt(psi).entropy()))
            n += 1
    worst_prod = 0.0
    for ci, (da, db) in enumerate(((2, 2), (2, 3), (3, 3))):
        dims = DimensionSignature.cut(da, db)
        for i in range(3):
            rng = np.random.default_rng((303, ci, i))
            va = rng.normal(size=dims.alice) + 1j * rng.normal(size=dims.alice)
            vb = rng.normal(size=dims.bob) + 1j * rng.normal(size=dims.bob)
            psi = PureState(dims, np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb)))
            est = ree_bruteforce(psi.density(), seed=(304, ci, i))
            worst_prod = max(worst_prod, est.value)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and worst_prod <= 1e-6 and elapsed < 600.0
    _report(
        "bruteforce-ree-calibration",
        ok,
        f"{n} pure states worst |err| {worst:.2e} (tol 1e-4), 9 product states "
        f"worst value {worst_prod:.2e} (tol 1e-6), {elapsed:.0f}s (cap 600s)",
    )


def test_04_coherent_term_cap():
    # |i Tr(H [rho, ln sigma0])| <= 4 ln d ||H||
    worst = math.inf
    n = 0
    for ci, (da, db) in enumerate(product((2, 3, 4), repeat=2)):
        dims = DimensionSignature.cut(da, db)
        for i in range(500):
            psi = random_pure(dims, (401, ci, i))
            h = random_gue_hamiltonian(dims.total, (402, ci, i))
            res = hamiltonian_commutator_check(h, psi)
            worst = min(worst, res.margin)
            n += 1
    ok = worst >= -1e-6
    _report(
        "coherent-term-cap",
        ok,
        f"{n} trials over 9 cuts in {{2,3,4}}^2, worst margin {worst:.3e} (floor -1e-6)",
    )


def test_05_dissipative_term_cap():
    # |Tr(L' [L X, ln Y])| <= 172 ||L||^2 p ln(1/p) on sampled 0 <= X <= Y pairs
    worst = math.inf
    n = 0
    for ci, (dim, p) in enumerate(product((4, 8, 9), (1 / 8, 1 / 9, 1 / 16))):
        for i in range(500):
            x, y = random_xy_pair(dim, p, (501, ci, i))
            l = random_ginibre_lindblad(dim, (502, ci, i))
            res = dissipative_commutator_check(l, x, y, p)
            worst = min(worst, res.margin)
            n += 1
    ok = worst >= -1e-6
    _report(
        "dissipative-term-cap",
        ok,
        f"{n} (X, Y, L) triples over dims {{4,8,9}} x p {{1/8,1/9,1/16}}, "
        f"worst margin {worst:.3e} (floor -1e-6)",
    )


def test_06_mixing_term_cap():
    # |i Tr(H [p rho1, ln(p rho1 + (1-p) rho2)])| <= 2 h2(p) ||H||
    worst = math.inf
    n = 0
    dims_cycle = (4, 8, 16)
    for pi, p in enumerate((0.5, 0.25, math.exp(-2.0))):
        for i in range(500):
            dim = dims_cycle[i % 3]
            h = random_gue_hamiltonian(dim, (601, pi, i))
            rho1 = random_density(dim, (602, pi, i))
            rho2 = random_density(dim, (603, pi, i))
            res = small_incremental_mixing_check(h, rho1, rho2, p)
            worst = min(worst, res.margin)
            n += 1
    ok = worst >= -1e-6
    _report(
        "mixing-term-cap",
        ok,
        f"{n} triples over p in {{0.5, 0.25, 1/e^2}}, worst margin {worst:.3e} (floor -1e-6)",
    )


def test_07_commutator_trace_norm_cap():
    # ||[A, X]||_1 <= ||A|| ||X||_1 for positive semidefinite A
    worst = math.inf
    dims_cycle = (2, 3, 4, 6, 8, 12, 16)
    n = 1000
    for i in range(n):
        dim = dims_cycle[i % len(dims_cycle)]
        rng = np.random.default_rng((701, i))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = g @ g.conj().T
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        res = commutator_trace_norm_check(a, x)
        worst = min(worst, res.margin)
    ok = worst >= -1e-9
    _report(
        "commutator-trace-norm-cap",
        ok,
        f"{n} (A, X) pairs at dims <= 16, worst margin {worst:.3e} (floor -1e-9)",
    )


def _rate_instance(d: int, i: int, group: int, n_lindblad: int):
    dims = DimensionSignature.cut(d, d)
    psi = random_pure(dims, (group, 1, d, i))
    h = random_gue_hamiltonian(d * d, (group, 2, d, i))
    ls = tuple(random_ginibre_lindblad(d * d, (group, 3, d, i, j)) for j in range(n_lindblad))
    return psi, LindbladGenerator(dims, h, ls)


def test_08_open_system_rate_cap():
    # measured one-step rates stay under 4 (||H|| + 86 sum ||L||^2) ln d
    t0 = time.perf_counter()
    worst_order = math.inf  # gamma_surrogate_fd - gamma_fd
    worst_bound = math.inf  # bound - gamma_surrogate_fd
    n = 0
    for d in (2, 3, 4):
        for i in range(200):
            psi, gen = _rate_instance(d, i, 801, i % 4)
            for dt in (1e-3, 1e-4, 1e-5):
                rep = entangling_rate_fd(psi, gen, dt)
                worst_order = min(worst_order, rep.gamma_surrogate_fd - rep.gamma_fd)
                worst_bound = min(worst_bound, rep.theorem_bound - rep.gamma_surrogate_fd)
                n += 1
    # d = 2 leg with the see-saw measure: the true rate also respects the cap
    worst_bf_order = math.inf
    worst_bf_bound = math.inf
    nbf = 0
    for i in range(200):
        psi, gen = _rate_instance(2, i, 802, i % 4)
        for dt in (1e-3, 1e-4, 1e-5):
            rep = entangling_rate_fd(
                psi, gen, dt, measure="bruteforce", seed=i,
                ree_kwargs={"restarts": 1, "max_iters": 200},
            )
            worst_bf_order = min(worst_bf_order, rep.gamma_surrogate_fd - rep.gamma_fd)
            worst_bf_bound = min(worst_bf_bound, rep.theorem_bound - rep.gamma_fd)
            nbf += 1
    elapsed = time.perf_counter() - t0
    ok = (
        worst_order >= -1e-7
        and worst_bound >= -1e-3
        and worst_bf_order >= -1e-7
        and worst_bf_bound >= -1e-3
        and elapsed < 1200.0
    )
    _report(
        "open-system-rate-cap",
        ok,
        f"{n} surrogate evaluations (200/d, d in {{2,3,4}}, dt in {{1e-3,1e-4,1e-5}}): "
        f"worst ordering {worst_order:.2e} (floor -1e-7), worst bound margin {worst_bound:.3e} "
        f"(floor -1e-3); {nbf} see-saw evaluations at d=2: worst ordering {worst_bf_order:.2e}, "
        f"worst bound margin {worst_bf_bound:.3e}; {elapsed:.0f}s (cap 1200s)",
    )


def test_09_unitary_rate_cap():
    # closed dynamics: rates stay under 4 ||H|| ln d; also report the ratio to
    # the doubled-constant cap 8 ||H|| ln d used by earlier analyses (not gated)
    worst = math.inf
    max_ratio_doubled = -math.inf
    n = 0
    for d in (2, 3, 4):
        for i in range(200):
            psi, gen = _rate_instance(d, i, 901, 0)
            for dt in (1e-3, 1e-4, 1e-5):
                rep = entangling_rate_fd(psi, gen, dt)
                worst = min(worst, rep.theorem_bound - rep.gamma_surrogate_fd)
                max_ratio_doubled = max(
                    max_ratio_doubled, rep.gamma_surrogate_fd / (2.0 * rep.theorem_bound)
                )
                n += 1
    ok = worst >= -1e-3
    _report(
        "unitary-rate-cap",
        ok,
        f"{n} closed-dynamics evaluations, worst margin to 4||H|| ln d {worst:.3e} "
        f"(floor -1e-3); max rate/(8||H|| ln d) = {max_ratio_doubled:.3f} (informational)",
    )


def test_10_mutual_information_rate_cap():
    # MI derivative <= 4 (2||H|| + 129 sum ||L||^2)(ln d_A + ln d_B), and the
    # cap is bitwise identical across ancilla sizes (formula has no d_a, d_b)
    worst = math.inf
    max_spread = 0.0
    n = 0
    cells = tuple(product((1, 2, 3), repeat=2))
    for i in range(200):
        h = random_gue_hamiltonian(4, (1001, i))
        ls = tuple(random_ginibre_lindblad(4, (1002, i, j)) for j in range(i % 4))
        bounds = []
        for da, db in cells:
            dims = DimensionSignature(da, 2, 2, db)
            psi = random_pure(dims, (1003, i, da, db))
            gen = LindbladGenerator(dims, h, ls)
            rate = mutual_info_rate_analytic(psi, gen, eta=1e-8)
            bound = mi_rate_bound(gen)
            worst = min(worst, bound - rate)
            bounds.append(bound)
            n += 1
        max_spread = max(max_spread, max(bounds) - min(bounds))
    ok = worst >= -1e-3 and max_spread == 0.0
    _report(
        "mutual-information-rate-cap",
        ok,
        f"{n} pure 4-partite instances over ancilla grid {{1,2,3}}^2 (200 generator draws "
        f"shared across cells), worst margin {worst:.3e} (floor -1e-3), "
        f"max cap spread across ancilla sizes {max_spread:.1e} (must be 0)",
    )


def test_11_marginal_domination():
    # rho_sub <= d^2 (marginal x maximally mixed) on both three-factor cuts
    worst = math.inf
    shapes = ((2, 2, 2, 2), (1, 3, 3, 1), (2, 2, 3, 1), (1, 3, 2, 2))
    n = 0
    for i in range(200):
        dims = DimensionSignature(*shapes[i % len(shapes)])
        rho = DensityMatrix(dims, random_density(dims.total, (1101, i)))
        for side in ("B", "A"):
            worst = min(worst, marginal_split_check(rho, side=side).margin)
        n += 1
    ok = worst >= -1e-10
    _report(
        "marginal-domination",
        ok,
        f"{n} mixed 4-partite states x both sides, worst min-eig {worst:.2e} (floor -1e-10)",
    )


def test_12_derivative_cross_validation():
    # closed forms match finite differences on full-rank-friendly instances;
    # the pinched probe reads a + kappa ln dt plus O(dt ln dt), about 1e-4 at
    # its step dt_surr
    dt, dt_surr = 1e-4, 1e-5
    tol = max(1e-3, 10.0 * dt)
    worst_surr = 0.0
    cuts = ((2, 2), (2, 3))
    found = 0
    attempt = 0
    while found < 100:
        dims = DimensionSignature.cut(*cuts[attempt % 2])
        psi = random_pure(dims, (1201, attempt))
        attempt += 1
        if schmidt(psi).coefficients.min() < 1e-3:
            continue  # keep only well-conditioned spectra
        gen = LindbladGenerator(dims, random_gue_hamiltonian(dims.total, (1202, attempt)), ())
        kappa, a = surrogate_rate_analytic(psi, gen)
        diff = abs(a + kappa * math.log(dt_surr) - surrogate_rate_fd(psi, gen, dt_surr))
        worst_surr = max(worst_surr, diff)
        found += 1
    worst_mi = 0.0
    for i in range(100):
        dims = DimensionSignature(1, 2, 2, 1) if i % 2 == 0 else DimensionSignature(1, 2, 3, 1)
        rho = smooth(DensityMatrix(dims, random_density(dims.total, (1203, i))), 0.1)
        h = random_gue_hamiltonian(dims.total, (1204, i))
        ls = tuple(random_ginibre_lindblad(dims.total, (1205, i, j)) for j in range(1 + i % 2))
        gen = LindbladGenerator(dims, h, ls)
        diff = abs(mutual_info_rate_analytic(rho, gen) - mutual_info_rate_fd(rho, gen, dt))
        worst_mi = max(worst_mi, diff)
    dims = DimensionSignature.cut(2, 2)
    gen = LindbladGenerator(
        dims,
        random_gue_hamiltonian(4, (1206, 0)),
        (random_ginibre_lindblad(4, (1207, 0)),),
    )
    rho0 = DensityMatrix(dims, random_density(4, (1208, 0)))
    order = convergence_order(gen, rho0, 0.5, 16)
    ok = worst_surr <= tol and worst_mi <= tol and order is not None and order >= 3.7
    _report(
        "derivative-cross-validation",
        ok,
        f"100 unitary instances worst |analytic - fd| {worst_surr:.2e}, 100 open mixed "
        f"instances worst |analytic - fd| {worst_mi:.2e} (tol {tol:.0e}); "
        f"integrator order {order if order is None else f'{order:.2f}'} (floor 3.7)",
    )


def test_13_default_certification_run():
    # the bundled randomized sweep finishes clean within its time budget
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        code = cli_main(["certify", "--out", f"{tmp}/certificate.jsonl"])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 1800.0
    _report(
        "default-certification-run",
        ok,
        f"exit code {code} (want 0), {elapsed:.0f}s (cap 1800s)",
    )


_ALL_CHECKS = (
    test_01_separable_reference_domination,
    test_02_pure_ree_closed_form,
    test_03_bruteforce_ree_calibration,
    test_04_coherent_term_cap,
    test_05_dissipative_term_cap,
    test_06_mixing_term_cap,
    test_07_commutator_trace_norm_cap,
    test_08_open_system_rate_cap,
    test_09_unitary_rate_cap,
    test_10_mutual_information_rate_cap,
    test_11_marginal_domination,
    test_12_derivative_cross_validation,
    test_13_default_certification_run,
)


if __name__ == "__main__":
    failures = 0
    for check in _ALL_CHECKS:
        try:
            check()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
