"""Entropies, relative entropy, and entanglement measures across aA | Bb.

D(rho || sigma) = -S(rho) - Tr rho ln sigma.  ``relative_entropy`` takes
Tr rho ln sigma as one Frobenius contraction Re<L_sigma, rho> with L_sigma =
ln sigma on its support, the eigenvalues above ``linalg.SUPPORT_TOL``, built
by the library's one log of a state, ``linalg._log_on_support``, from one
eigh of the sigma stack; a DensityMatrix rho gives its kept spectrum, a raw
array or a PureState is diagonalized on the spot.  The see-saw scores a
stack of candidates, each once, so ``_log_overlap`` takes the overlap there
from each candidate's eigenvector weights instead.  Both share the +inf
leak rule of ``_leaks``, at the same threshold.  ``mutual_information``
takes both marginals as traces of rho's matrix, O(n^2), and diagonalizes
them in one stack when they are the same size.

The entropy, the relative entropy against a fixed L_sigma and the mutual
information are stacked kernels (``_entropies``, ``_relative_entropies``,
``_mutual_informations``): they take a state, or a stack of states, as its
matrix and ascending spectrum, and ``von_neumann_entropy`` and
``mutual_information`` are their one-state case.  ``relative_entropy`` on
one pair is its list path's stack of one (``_relative_entropy_stack``).
``entrate simulate`` measures a whole chunk of its series with one call of
each.  The entropy sums the positive eigenvalues with a masked sum, which
adds them exactly as summing that suffix of the spectrum alone would, so a
state reads the same in a stack as on its own.

The see-saw holds rho fixed, so rho is diagonalized once per call (its kept
spectrum gives -S(rho), its kept eigenvectors the support a candidate must
cover).  A candidate sigma = sum_i w_i A_i ⊗ B_i is assembled as one matmul,
weights @ prods, with the stack prods of the products A_i ⊗ B_i built once
per factor change.  Candidates are scored in batches, each batch from one
stacked eigh (``_ree_scores``), and the eigendecomposition of the accepted
candidate is reused for the next gradient, so each sigma is diagonalized
once.  The gradient G = D ln(sigma)[rho] takes rho through its support
factor R (rho = R R†), which keeps it accurate where sigma's eigenvalues are
tiny.

The see-saw may stop before its first iteration.  D(rho || sigma) is convex
in sigma with gradient -G, so D(rho || sigma) - E_R(rho) is at most
min(lambda_max(G), lambda_max(G^{T_B})) - Tr G sigma (``_gap``, two
eigvalsh); a start within tol by that bound is returned as it is.  Restart 0
pads the Schmidt mixture of rho's top eigenvector with a maximally mixed
member of weight eps = 10 * SUPPORT_TOL * n, the least that keeps sigma's
eigenvalues ten times above the support tolerance.  For a pure state that
start lies within eps (1 - r/n) of E_R (r the Schmidt rank), and the bound
certifies it at tol = 1e-9; mixed states and random starts read bounds far
above tol and iterate as before.  No restart follows a certified one: every
separable sigma scores at least E_R, so it could gain at most tol.

The relative-entropy-of-entanglement routines come in two flavors: an exact
closed form for pure states (Schmidt entropy, with the dephased Schmidt
mixture as the minimizer) and a brute-force see-saw minimization over
explicit separable ensembles for small mixed states.  The two are kept
independent so one can cross-check the other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# partial_trace is not called here, but perfbench's traced runs wrap
# the name measures.partial_trace, so it stays importable from this module
from .linalg import SUPPORT_TOL, _log_on_support, as_matrix, dag, hermitize, partial_trace
from .states import (
    DensityMatrix,
    DimensionSignature,
    PureState,
    _eigvalsh,
    _one_space,
    _positive_int,
    _positive_real,
    random_density,
    schmidt,
)

__all__ = [
    "OptimizerStall",
    "von_neumann_entropy",
    "relative_entropy",
    "entanglement_entropy",
    "mutual_information",
    "SeparableEnsemble",
    "ReeEstimate",
    "ree_bruteforce",
]

BRUTEFORCE_DIM_CAP = 16


class OptimizerStall(RuntimeWarning):
    """See-saw hit its iteration cap without meeting the improvement tolerance."""


def _mat(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.matrix
    if isinstance(x, PureState):
        return x.projector()
    return as_matrix(x, name="state")


def _spectrum(x, m: np.ndarray) -> np.ndarray:
    # the ascending spectrum of a state x whose matrix is m: the one a
    # DensityMatrix keeps, or m's on the spot
    return x.spectrum if isinstance(x, DensityMatrix) else _eigvalsh(m)


# The stacked kernels take a state, or a stack of states, as its matrix and
# ascending spectrum (..., n, n), (..., n); the one-state functions call them
# with one.

def _entropies(lam: np.ndarray):
    # -sum lambda ln lambda over the positive eigenvalues of each spectrum; the
    # masked sum adds them as the sum of that suffix alone would
    live = lam > 0.0
    terms = np.log(lam, where=live, out=np.zeros(lam.shape))
    terms *= lam
    return -terms.sum(axis=-1, where=live)


def _relative_entropies(mats: np.ndarray, lam: np.ndarray, log_s: np.ndarray):
    # max(-S(rho) - Re<L_sigma, rho>, 0) against L_sigma = ln sigma on its
    # support: one L_sigma for every state, or a stack of them, one per state
    overlap = np.vecdot(log_s.reshape(*log_s.shape[:-2], -1), mats.reshape(*mats.shape[:-2], -1)).real
    return np.maximum(-_entropies(lam) - overlap, 0.0)


def _mutual_informations(dims: DimensionSignature, mats: np.ndarray, lam: np.ndarray):
    # S(Alice) + S(Bob) - S(full), the marginals as traces of the matrices
    na, nb = dims.alice, dims.bob
    m = mats.reshape(*mats.shape[:-2], na, nb, na, nb)
    left = np.trace(m, axis1=-3, axis2=-1)
    right = np.trace(m, axis1=-4, axis2=-2)
    if na == nb:  # both marginals in one stacked eigensolve
        s_left, s_right = _entropies(_eigvalsh(np.stack((left, right))))
    else:
        s_left, s_right = _entropies(_eigvalsh(left)), _entropies(_eigvalsh(right))
    return s_left + s_right - _entropies(lam)


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho; eigenvalues are clipped at zero before the log."""
    return float(_entropies(_spectrum(rho, _mat(rho))))


def _leaks(r: np.ndarray, s_lam: np.ndarray, s_vec: np.ndarray):
    # whether rho leaks out of the support of sigma, as relative_entropy
    # documents, for rho a matrix or a stack of them and sigma given by its
    # eigendecomposition: a bool, or one per sigma of a stack (paired with a
    # stack of rho, or all against one); rho is diagonalized only if some
    # sigma is rank deficient
    null = s_lam <= SUPPORT_TOL
    if not null.any():
        return False
    r_lam, r_vec = np.linalg.eigh(hermitize(r))
    # the weight of each eigenvector of rho in sigma's null space, counted
    # for the eigenvectors on rho's support
    leak = ((np.abs(dag(s_vec) @ r_vec) ** 2) * null[..., None]).sum(axis=-2)
    return np.where(r_lam > SUPPORT_TOL, leak, 0.0).max(axis=-1) > SUPPORT_TOL


def _log_overlap(r: np.ndarray, s_lam: np.ndarray, s_vec: np.ndarray) -> np.ndarray:
    # Tr rho ln sigma for the matrix rho on the support of each sigma of a
    # stack given by its eigendecomposition, from the eigenvector weights
    # <v_j|rho|v_j>, or -inf on a leak
    null = s_lam <= SUPPORT_TOL
    weights = np.real(np.einsum("...ij,...ij->...j", np.conjugate(s_vec), r @ s_vec))
    out = np.where(null, 0.0, np.log(np.where(null, 1.0, s_lam)) * weights).sum(axis=-1)
    if null.any():
        out = np.where(_leaks(r, s_lam, s_vec), -np.inf, out)
    return out


def relative_entropy(rho, sigma):
    """Umegaki relative entropy Tr rho (ln rho - ln sigma).

    Returns +inf exactly when some eigenvector of rho with eigenvalue above
    ``SUPPORT_TOL`` has squared overlap above ``SUPPORT_TOL`` with the null
    space of sigma; otherwise both logs are taken on their joint support.
    The result is clamped at zero.  For two lists of DensityMatrix states on
    one space it is an array, one value per pair, from stacked eigensolves;
    one pair (DensityMatrix, PureState or raw array operands) is the stack
    of one, and no state keeps anything.
    """
    if isinstance(rho, list):
        if len(rho) != len(sigma):
            raise ValueError(f"{len(rho)} states against {len(sigma)} references")
        _one_space([*rho, *sigma])
        r_lam = np.stack([x.spectrum for x in rho])
        return _relative_entropy_stack(np.stack([x.matrix for x in rho]), r_lam, np.stack([x.matrix for x in sigma]))
    r, s = _mat(rho), _mat(sigma)
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {s.shape}")
    return float(_relative_entropy_stack(r[None], _spectrum(rho, r)[None], s[None])[0])


def _relative_entropy_stack(r: np.ndarray, r_lam: np.ndarray, s: np.ndarray) -> np.ndarray:
    # D(rho || sigma) of each pair of the stacks of matrices r and s, rho with
    # its ascending spectra: one eigh of the sigma stack gives ln sigma on its
    # support and the leak rule; +inf where rho leaks
    lam, vec = np.linalg.eigh(hermitize(s))
    out = _relative_entropies(r, r_lam, _log_on_support(lam, vec))
    return np.where(_leaks(r, lam, vec), math.inf, out)


def entanglement_entropy(psi):
    """Entropy of the reduced state across aA | Bb, via the Schmidt spectrum;
    a list of them for a list of states on one space (one stacked SVD).
    Only the singular values are read: no Schmidt vectors are phase-fixed
    or ordered, so tied coefficients add in the SVD's order."""
    if isinstance(psi, PureState):
        return entanglement_entropy([psi])[0]
    dims = _one_space(psi)
    m = np.stack([x.amplitudes for x in psi]).reshape(-1, dims.alice, dims.bob)
    # the singular values of the full SVD, as ``schmidt`` takes them
    p = np.linalg.svd(m, full_matrices=False)[1] ** 2
    return [float(-(x * np.log(x)).sum()) for x in (row[row > SUPPORT_TOL] for row in p)]


def mutual_information(rho: DensityMatrix) -> float:
    """S(Alice) + S(Bob) - S(full) across the aA | Bb cut."""
    return float(_mutual_informations(rho.dims, rho.matrix, rho.spectrum))


# ------------------------------------------------- brute-force minimization

@dataclass(frozen=True, eq=False)
class SeparableEnsemble:
    """Mixture sum_i w_i A_i ⊗ B_i with A_i on aA and B_i on Bb."""

    dims: DimensionSignature
    weights: np.ndarray
    factors_a: np.ndarray  # (m, alice, alice)
    factors_b: np.ndarray  # (m, bob, bob)

    def assemble(self) -> DensityMatrix:
        n = self.dims.total
        sigma = self.weights @ _products(self.factors_a, self.factors_b)
        return DensityMatrix(self.dims, hermitize(sigma.reshape(n, n)))


@dataclass(frozen=True)
class ReeEstimate:
    """Result of ``ree_bruteforce``: the best restart's value, ensemble and
    iteration count.  ``converged`` means the plateau rule stopped that
    restart's see-saw, or its start was certified within ``tol`` by the
    duality-gap bound (then ``iterations`` is 0, and no later restart was
    run); ``stalled`` means some restart hit the iteration cap."""

    value: float
    ensemble: SeparableEnsemble
    iterations: int
    converged: bool
    stalled: bool


def _products(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    # the members A_i ⊗ B_i of a factor stack (..., m, na, na), (..., m, nb, nb)
    # as the rows of an (..., m, n²) stack, so weights @ prods assembles sigma
    na, nb = fa.shape[-1], fb.shape[-1]
    return np.einsum("...iab,...icd->...iacbd", fa, fb).reshape(*fa.shape[:-2], (na * nb) ** 2)


def _ree_scores(rho: DensityMatrix, neg_entropy: float, sigmas: np.ndarray):
    # max(-S(rho) - Tr rho ln sigma_k, 0) for each sigma_k of a (k, n, n)
    # stack, +inf on a leak, from one stacked eigh; that eigh is returned too,
    # so the gradient at an accepted candidate does not diagonalize it again
    lam, vec = np.linalg.eigh(hermitize(sigmas))
    return np.maximum(neg_entropy - _log_overlap(rho.matrix, lam, vec), 0.0), lam, vec


def _log_gradient(r_f: np.ndarray, s_lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    # G = d Tr[rho ln sigma] / d sigma via the divided-difference (Loewner)
    # matrix of ln on the spectrum (s_lam, v) of sigma; dD/dsigma = -G.
    # rho enters through its support factor R (rho = R R†): <v_i|rho|v_j> is
    # taken as (V†R)(V†R)†, whose entries off rho's support are products of
    # two roundoff-sized numbers, where V† rho V carries ~1e-16 per entry that
    # the divided differences ~1/lambda amplify at sigma's small eigenvalues
    s_lam = np.clip(s_lam, 1e-300, None)
    log_lam = np.log(s_lam)
    diff = s_lam[:, None] - s_lam[None, :]
    close = np.abs(diff) < 1e-14 * s_lam.max()
    safe = np.where(close, 1.0, diff)
    f = np.where(close, 1.0 / (0.5 * (s_lam[:, None] + s_lam[None, :])), (log_lam[:, None] - log_lam[None, :]) / safe)
    vr = dag(v) @ r_f
    return hermitize(v @ ((vr @ dag(vr)) * f) @ dag(v))


def _gap(g: np.ndarray, sigma: np.ndarray, na: int, nb: int) -> float:
    # an upper bound on D(rho || sigma) - E_R(rho) from the log gradient G at
    # sigma: D is convex in sigma with gradient -G, so the excess is at most
    # max_{a,b} <ab|G|ab> - Tr G sigma (the Frank-Wolfe gap), and
    # <ab|G|ab> = <a b̄|G^{T_B}|a b̄> is at most both lambda_max(G) and
    # lambda_max(G^{T_B}); no product oracle is needed
    g_tb = g.reshape(na, nb, na, nb).transpose(0, 3, 2, 1).reshape(na * nb, na * nb)
    top = min(np.linalg.eigvalsh(g)[-1], np.linalg.eigvalsh(g_tb)[-1])
    return float(top - np.vdot(sigma, g).real)


def _project_density(m: np.ndarray) -> np.ndarray:
    # each matrix of the (members, n, n) stack to the nearest density matrix
    # (spectrum clipped at zero, trace renormalized); a member whose clipped
    # trace vanishes becomes the maximally mixed state
    n = m.shape[-1]
    lam, v = np.linalg.eigh(hermitize(m))
    lam = np.clip(lam, 0.0, None)
    tr = lam.sum(axis=-1)
    live = tr > 1e-14
    lam = lam / np.where(live, tr, 1.0)[:, None]
    out = hermitize((v * lam[:, None, :]) @ np.conjugate(v).swapaxes(-1, -2))
    out[~live] = np.eye(n) / n
    return out


def _top_product_vector(g_full: np.ndarray, na: int, nb: int) -> tuple[np.ndarray, np.ndarray]:
    # approximately maximize <a⊗b|G|a⊗b> by alternating top-eigenvector sweeps,
    # seeded from the dominant eigenvector's best product approximation
    g4 = g_full.reshape(na, nb, na, nb)
    _, vec = np.linalg.eigh(g_full)
    u, _, vh = np.linalg.svd(vec[:, -1].reshape(na, nb))
    a, b = u[:, 0], vh[0, :].conj()
    for _ in range(6):
        ma = hermitize(np.einsum("ikjl,k,l->ij", g4, b.conj(), b))
        a = np.linalg.eigh(ma)[1][:, -1]
        mb = hermitize(np.einsum("ikjl,i,j->kl", g4, a.conj(), a))
        b = np.linalg.eigh(mb)[1][:, -1]
    return a, b


def _factor_grads(g_full: np.ndarray, w, fa, fb):
    # gradients of -Tr[rho ln sigma] wrt each A_i and B_i (sigma linear in both);
    # contract G[a,k,c,l] against the partner factor, weight by w_i
    na, nb = fa.shape[1], fb.shape[1]
    g4 = g_full.reshape(na, nb, na, nb)
    grad_a = -np.einsum("akcl,ilk->iac", g4, fb) * w[:, None, None]
    grad_b = -np.einsum("akcl,ica->ikl", g4, fa) * w[:, None, None]
    return hermitize(grad_a), hermitize(grad_b)


def _in_chunks(steps: np.ndarray, sizes: tuple[int, ...], evaluate):
    # evaluate's per-step results for the step schedule, in order, computed a
    # chunk at a time: a scan that stops early scores only the chunks it reached
    start = 0
    for size in sizes:
        yield from evaluate(steps[start:start + size])
        start += size


def _seesaw(rho: DensityMatrix, w, fa, fb, max_iters, tol):
    # returns (value, w, fa, fb, iterations, converged); a start that _gap
    # certifies within tol returns at iteration 0, converged
    r_lam, r_vec = rho.eigh()
    live = r_lam > SUPPORT_TOL
    r_f = r_vec[:, live] * np.sqrt(r_lam[live])
    neg_entropy = -von_neumann_entropy(rho)
    na, nb = fa.shape[1], fb.shape[1]
    n = na * nb

    def score(sigmas):
        # (values, lam, vec) of the candidates whose flattened sigmas are the rows
        return _ree_scores(rho, neg_entropy, sigmas.reshape(-1, n, n))

    prods = _products(fa, fb)
    sigma = w @ prods
    vals, lam, vec = score(sigma)
    value, eig = vals[0], (lam[0], vec[0])
    g_log = _log_gradient(r_f, *eig)
    if _gap(g_log, sigma.reshape(n, n), na, nb) <= tol:
        return value, w, fa, fb, 0, True
    iters = 0
    cap = len(w) + 16  # room for exchange-step members
    for iters in range(1, max_iters + 1):
        start = value
        # exchange step: mix in the product state the gradient likes best, so
        # the ensemble can escape a conic hull that misses the optimum; score
        # a geometric grid of mixing fractions as one stack and keep the best
        av, bv = _top_product_vector(g_log, na, nb)
        pa, pb = np.outer(av, av.conj()), np.outer(bv, bv.conj())
        wk, keep = w, np.ones(len(w), dtype=bool)
        if len(w) >= cap:
            keep[int(np.argmin(w))] = False
            wk = w[keep] / w[keep].sum()
        gammas = 0.5 ** np.arange(1, 13)
        cw = np.concatenate([np.outer(1.0 - gammas, wk), gammas[:, None]], axis=1)
        cprods = np.concatenate([prods[keep], _products(pa[None], pb[None])])
        vals, lam, vec = score(cw @ cprods)
        j = int(np.argmin(vals))
        if vals[j] < value:
            value, eig, w, prods = vals[j], (lam[j], vec[j]), cw[j], cprods
            fa = np.concatenate([fa[keep], pa[None]])
            fb = np.concatenate([fb[keep], pb[None]])
        # weight phase: the weight subproblem is convex, so polish it with
        # exponentiated-gradient updates whose step is line-searched both ways
        # (doubling lets near-useless members decay in a handful of updates
        # instead of one e^{-eta*gap} factor per iteration); the steps are
        # scored in chunks and scanned in order, accepting what a
        # one-at-a-time search would
        for _ in range(60):
            g_log = _log_gradient(r_f, *eig)
            slopes = np.clip(np.real(prods @ g_log.T.reshape(-1)), 1e-12, None)

            def weight_steps(etas, w=w, slopes=slopes):
                # w * exp(eta (slopes - max)), renormalized, a row per eta; a row
                # whose total vanishes stays zero and scores +inf by the leak rule
                cand = w * np.exp(etas[:, None] * (slopes - slopes.max()))
                total = cand.sum(axis=1)
                cand[total > 0.0] /= total[total > 0.0, None]
                return zip(cand, *score(cand @ prods))

            ups = _in_chunks(2.0 ** np.arange(41), (4, 8, 29), weight_steps)  # eta = 1, 2, ..., 2^40
            cand, cand_val, *cand_eig = next(ups)
            if cand_val < value:
                for nxt, nxt_val, *nxt_eig in ups:
                    if not nxt_val < cand_val:
                        break
                    cand, cand_val, cand_eig = nxt, nxt_val, nxt_eig
            else:
                downs = _in_chunks(0.5 ** np.arange(1, 21), (4, 16), weight_steps)
                for cand, cand_val, *cand_eig in downs:
                    if cand_val < value:
                        break
            if not cand_val < value:
                break
            improved = value - cand_val
            w, value, eig = cand, cand_val, cand_eig
            if improved < 0.1 * tol:
                break
        # projected-gradient step on all factors at a shared backtracked step,
        # the step sizes projected and scored in chunks
        g_log = _log_gradient(r_f, *eig)
        grad_a, grad_b = _factor_grads(g_log, w, fa, fb)
        scale = max(np.abs(grad_a).max(), np.abs(grad_b).max(), 1e-300)

        def factor_steps(taus, fa=fa, fb=fb):
            t = taus[:, None, None, None]
            ca = _project_density((fa - t * grad_a).reshape(-1, na, na)).reshape(len(taus), *fa.shape)
            cb = _project_density((fb - t * grad_b).reshape(-1, nb, nb)).reshape(len(taus), *fb.shape)
            cprods = _products(ca, cb)
            return zip(ca, cb, cprods, *score(w @ cprods))

        taus = 0.5 / scale * 0.5 ** np.arange(25)
        for ca, cb, cprods, cand_val, *cand_eig in _in_chunks(taus, (1, 4, 20), factor_steps):
            if cand_val < value:
                # copies, so the ensemble does not hold on to the whole chunk
                fa, fb, prods, value, eig = ca.copy(), cb.copy(), cprods.copy(), cand_val, cand_eig
                break
        if start - value < tol:
            return value, w, fa, fb, iters, True
        g_log = _log_gradient(r_f, *eig)  # for the next exchange step
    return value, w, fa, fb, iters, False


def ree_bruteforce(
    rho: DensityMatrix,
    *,
    ensemble_size: int | None = None,
    restarts: int = 2,
    max_iters: int = 500,
    tol: float = 1e-9,
    seed=0,
) -> ReeEstimate:
    """See-saw minimization of D(rho || sigma) over explicit separable mixtures.

    Restart 0 is deterministic: product projectors from the Schmidt vectors of
    the dominant eigenvector of rho, weighted by its Schmidt coefficients,
    plus one maximally mixed member of weight 10 * SUPPORT_TOL * n so the
    candidate stays full rank.  Later restarts are random.  The best value
    across restarts wins (ties to the earliest restart); if a restart hits the
    iteration cap an OptimizerStall warning is emitted and the best value so
    far is still returned.

    Each restart first bounds its start's distance to the optimum by the
    Frank-Wolfe duality gap, min(lambda_max(G), lambda_max(G^{T_B})) -
    Tr G sigma with G the log gradient, and returns the start at 0 iterations
    when that is at most ``tol``; a pure state's restart 0 always does.
    Every separable sigma scores at least E_R, so a later restart could lower
    a certified value by at most ``tol``: no further restart is run after one
    that is certified.  Otherwise a restart iterates until one outer
    iteration improves by less than ``tol``.  ``converged`` means either
    stop.  ``restarts``, ``max_iters`` and ``ensemble_size`` are integers
    >= 1 (>= 2 for ``ensemble_size``) and ``tol`` a finite number > 0;
    anything else raises ValueError.

    Each step scores its candidates in batches: the exchange step's 12 mixing
    fractions in one stack, the weight and factor line searches in chunks
    that are scanned in the one-at-a-time order, so the same candidate is
    accepted.  rho is diagonalized once per call, each candidate sigma once
    (its score's eigendecomposition also gives the next gradient), and sigma
    is assembled by one matmul of the weights with the product stack.
    """
    if rho.dims.total > BRUTEFORCE_DIM_CAP:
        raise ValueError(f"brute-force REE limited to total dimension <= {BRUTEFORCE_DIM_CAP}")
    restarts = _positive_int(restarts, "restarts")
    max_iters = _positive_int(max_iters, "max_iters")
    _positive_real(tol, "tol")
    dims = rho.dims
    na, nb = dims.alice, dims.bob
    m = _positive_int(ensemble_size, "ensemble_size") if ensemble_size is not None else (na * nb) ** 2
    if m < 2:
        raise ValueError("ensemble_size must be at least 2")
    rng = np.random.default_rng(seed)

    best = None
    stalled_any = False
    for r in range(restarts):
        if r == 0:
            top = rho.eigh()[1][:, -1]
            sd = schmidt(PureState(dims, top / np.linalg.norm(top)))
            k = sd.coefficients.size
            fa = np.empty((k + 1, na, na), dtype=complex)
            fb = np.empty((k + 1, nb, nb), dtype=complex)
            for n in range(k):
                fa[n] = np.outer(sd.left[:, n], np.conjugate(sd.left[:, n]))
                fb[n] = np.outer(sd.right[:, n], np.conjugate(sd.right[:, n]))
            fa[k] = np.eye(na) / na
            fb[k] = np.eye(nb) / nb
            # the least padding that keeps sigma's eigenvalues ten times above
            # the support tolerance (a pure state then starts certified)
            eps = 10.0 * SUPPORT_TOL * dims.total
            w = np.append(sd.coefficients * (1.0 - eps), eps)
            w /= w.sum()
        else:
            w = rng.dirichlet(np.ones(m))
            fa = np.empty((m, na, na), dtype=complex)
            fb = np.empty((m, nb, nb), dtype=complex)
            for i in range(m):
                fa[i], fb[i] = random_density(na, rng), random_density(nb, rng)
            # keep one maximally mixed member so sigma starts full rank
            fa[-1] = np.eye(na) / na
            fb[-1] = np.eye(nb) / nb
        value, w, fa, fb, iters, converged = _seesaw(rho, w, fa, fb, max_iters, tol)
        if not converged:
            stalled_any = True
            warnings.warn(
                f"restart {r} hit the {max_iters}-iteration cap (value {value:.6g})",
                OptimizerStall,
            )
        if best is None or value < best[0]:
            best = (value, SeparableEnsemble(dims, w, fa, fb), iters, converged)
        if iters == 0:
            break  # a certified start: no later restart can gain more than tol
    value, ensemble, iterations, converged = best
    return ReeEstimate(
        value=max(float(value), 0.0),
        ensemble=ensemble,
        iterations=iterations,
        converged=converged,
        stalled=stalled_any,
    )
