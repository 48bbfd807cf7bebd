"""Entropies, relative entropy, and entanglement measures across aA | Bb.

D(rho || sigma) = -S(rho) - Tr rho ln sigma.  ``relative_entropy`` takes
Tr rho ln sigma as one Frobenius contraction Re<L_sigma, rho> with
L_sigma = ln sigma on its support; a DensityMatrix sigma keeps L_sigma
(built once from the eigendecomposition it keeps), so against a fixed
reference each call costs O(n^2) beyond the spectrum of rho, which a
DensityMatrix rho keeps too.  Raw arrays are diagonalized on the spot.  The
see-saw scores a stack of candidates, each once, so ``_log_overlap`` takes
the overlap there from each candidate's eigenvector weights instead.  Both
share the +inf leak rule of ``_leaks``.  ``mutual_information`` takes both
marginals as traces of rho's matrix, also O(n^2).

The see-saw holds rho fixed, so rho is diagonalized once per call (its kept
spectrum gives -S(rho), its kept eigenvectors the support a candidate must
cover).  A candidate sigma = sum_i w_i A_i ⊗ B_i is assembled as one matmul,
weights @ prods, with the stack prods of the products A_i ⊗ B_i built once
per factor change.  Candidates are scored in batches, each batch from one
stacked eigh (``_ree_scores``), and the eigendecomposition of the accepted
candidate is reused for the next gradient, so each sigma is diagonalized
once.

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
from .linalg import as_matrix, dag, hermitize, partial_trace
from .states import DensityMatrix, DimensionSignature, PureState, _eigvalsh, _log_on_support, schmidt

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

SUPPORT_TOL = 1e-12
BRUTEFORCE_DIM_CAP = 16


class OptimizerStall(RuntimeWarning):
    """See-saw hit its iteration cap without meeting the improvement tolerance."""


def _mat(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.matrix
    if isinstance(x, PureState):
        return x.projector()
    return as_matrix(x, name="state")


# The kernels below take an operand: a DensityMatrix, whose kept spectrum and
# eigendecomposition they read, or a raw matrix, diagonalized on the spot.

def _operand(x):
    return x if isinstance(x, DensityMatrix) else _mat(x)


def _raw(x) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else x


def _eigh(x) -> tuple[np.ndarray, np.ndarray]:
    return x.eigh() if isinstance(x, DensityMatrix) else np.linalg.eigh(hermitize(x))


def _entropy(x) -> float:
    lam = np.clip(x.spectrum if isinstance(x, DensityMatrix) else _eigvalsh(x), 0.0, None)
    pos = lam[lam > 0]
    return float(-(pos * np.log(pos)).sum())


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho; eigenvalues are clipped at zero before the log."""
    return _entropy(_operand(rho))


def _leaks(r, s_lam: np.ndarray, s_vec: np.ndarray, support_tol: float):
    # whether rho leaks out of the support of sigma, as relative_entropy
    # documents, for sigma given by its eigendecomposition: a bool, or one
    # per sigma of a stack; rho is diagonalized only if some sigma is rank
    # deficient
    null = s_lam <= support_tol
    if not null.any():
        return False
    r_lam, r_vec = _eigh(r)
    live = r_vec[:, r_lam > support_tol]
    if not live.size:
        return False
    leak = np.abs(np.conjugate(s_vec).swapaxes(-1, -2) @ live) ** 2
    return (leak * null[..., None]).sum(axis=-2).max(axis=-1) > support_tol


def _log_overlap(r, s_lam: np.ndarray, s_vec: np.ndarray, support_tol: float) -> np.ndarray:
    # Tr rho ln sigma on the support of each sigma of a stack given by its
    # eigendecomposition, from the eigenvector weights <v_j|rho|v_j>, or -inf
    # on a leak
    null = s_lam <= support_tol
    weights = np.real(np.einsum("...ij,...ij->...j", np.conjugate(s_vec), _raw(r) @ s_vec))
    out = np.where(null, 0.0, np.log(np.where(null, 1.0, s_lam)) * weights).sum(axis=-1)
    if null.any():
        out = np.where(_leaks(r, s_lam, s_vec, support_tol), -np.inf, out)
    return out


def relative_entropy(rho, sigma, *, support_tol: float = SUPPORT_TOL) -> float:
    """Umegaki relative entropy Tr rho (ln rho - ln sigma).

    Returns +inf exactly when some eigenvector of rho with eigenvalue above
    ``support_tol`` has squared overlap above ``support_tol`` with the null
    space of sigma; otherwise both logs are taken on their joint support.
    The result is clamped at zero.
    """
    r, s = _operand(rho), _operand(sigma)
    if _raw(r).shape != _raw(s).shape:
        raise ValueError(f"shape mismatch {_raw(r).shape} vs {_raw(s).shape}")
    lam, vec = _eigh(s)
    if _leaks(r, lam, vec, support_tol):
        return math.inf
    if isinstance(s, DensityMatrix):
        log_s = s.log_on_support(support_tol)
    else:
        log_s = _log_on_support(lam, vec, support_tol)
    return max(-_entropy(r) - float(np.vdot(log_s, _raw(r)).real), 0.0)


def entanglement_entropy(psi: PureState) -> float:
    """Entropy of the reduced state across aA | Bb, via the Schmidt spectrum."""
    return schmidt(psi).entropy()


def mutual_information(rho: DensityMatrix) -> float:
    """S(Alice) + S(Bob) - S(full) across the aA | Bb cut."""
    na, nb = rho.dims.alice, rho.dims.bob
    m = rho.matrix.reshape(na, nb, na, nb)
    left = np.trace(m, axis1=1, axis2=3)
    right = np.trace(m, axis1=0, axis2=2)
    return _entropy(left) + _entropy(right) - _entropy(rho)


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
    return np.maximum(neg_entropy - _log_overlap(rho, lam, vec, SUPPORT_TOL), 0.0), lam, vec


def _log_gradient(r_m: np.ndarray, s_lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    # G = d Tr[rho ln sigma] / d sigma via the divided-difference (Loewner)
    # matrix of ln on the spectrum (s_lam, v) of sigma; dD/dsigma = -G
    s_lam = np.clip(s_lam, 1e-300, None)
    log_lam = np.log(s_lam)
    diff = s_lam[:, None] - s_lam[None, :]
    close = np.abs(diff) < 1e-14 * s_lam.max()
    safe = np.where(close, 1.0, diff)
    f = np.where(close, 1.0 / (0.5 * (s_lam[:, None] + s_lam[None, :])), (log_lam[:, None] - log_lam[None, :]) / safe)
    rt = dag(v) @ r_m @ v
    return hermitize(v @ (rt * f) @ dag(v))


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
    r_m = rho.matrix
    neg_entropy = -_entropy(rho)
    na, nb = fa.shape[1], fb.shape[1]
    n = na * nb

    def score(sigmas):
        # (values, lam, vec) of the candidates whose flattened sigmas are the rows
        return _ree_scores(rho, neg_entropy, sigmas.reshape(-1, n, n))

    prods = _products(fa, fb)
    vals, lam, vec = score(w @ prods)
    value, eig = vals[0], (lam[0], vec[0])
    iters = 0
    cap = len(w) + 16  # room for exchange-step members
    for iters in range(1, max_iters + 1):
        start = value
        # exchange step: mix in the product state the gradient likes best, so
        # the ensemble can escape a conic hull that misses the optimum; score
        # a geometric grid of mixing fractions as one stack and keep the best
        g_log = _log_gradient(r_m, *eig)
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
            g_log = _log_gradient(r_m, *eig)
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
        g_log = _log_gradient(r_m, *eig)
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
    the dominant eigenvector of rho, plus one maximally mixed member so the
    candidate stays full rank.  Later restarts are random.  The best value
    across restarts wins (ties to the earliest restart); if a restart hits the
    iteration cap an OptimizerStall warning is emitted and the best value so
    far is still returned.

    Each step scores its candidates in batches: the exchange step's 12 mixing
    fractions in one stack, the weight and factor line searches in chunks
    that are scanned in the one-at-a-time order, so the same candidate is
    accepted.  rho is diagonalized once per call, each candidate sigma once
    (its score's eigendecomposition also gives the next gradient), and sigma
    is assembled by one matmul of the weights with the product stack.
    """
    if rho.dims.total > BRUTEFORCE_DIM_CAP:
        raise ValueError(f"brute-force REE limited to total dimension <= {BRUTEFORCE_DIM_CAP}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    dims = rho.dims
    na, nb = dims.alice, dims.bob
    m = ensemble_size if ensemble_size is not None else (na * nb) ** 2
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
            w = np.append(sd.coefficients * (1.0 - 1e-6), 1e-6)
            w /= w.sum()
        else:
            w = rng.dirichlet(np.ones(m))
            fa = np.empty((m, na, na), dtype=complex)
            fb = np.empty((m, nb, nb), dtype=complex)
            for i in range(m):
                ga = rng.standard_normal((na, na)) + 1j * rng.standard_normal((na, na))
                gb = rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))
                fa[i] = ga @ dag(ga)
                fa[i] /= np.real(fa[i].trace())
                fb[i] = gb @ dag(gb)
                fb[i] /= np.real(fb[i].trace())
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
    value, ensemble, iterations, converged = best
    return ReeEstimate(
        value=max(float(value), 0.0),
        ensemble=ensemble,
        iterations=iterations,
        converged=converged,
        stalled=stalled_any,
    )
