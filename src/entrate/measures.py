"""Entropies, relative entropy, and entanglement measures across aA | Bb.

D(rho || sigma) = -S(rho) - Tr rho ln sigma is computed everywhere from the
two private kernels ``_entropy`` and ``_log_overlap``; the see-saw holds rho
fixed, so it computes -S(rho) once.  Given a DensityMatrix, both kernels
read the spectrum and eigendecomposition the state keeps, so a fixed
reference sigma is diagonalized once however often it is used; raw arrays
(the see-saw's candidates) are diagonalized on the spot.

The relative-entropy-of-entanglement routines come in two flavors: an exact
closed form for pure states (Schmidt entropy, with the dephased Schmidt
mixture as the minimizer) and a brute-force see-saw minimization over
explicit separable ensembles for small mixed states.  The two are kept
independent so one can cross-check the other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, dag, hermitize, partial_trace
from .states import DensityMatrix, DimensionSignature, PureState, _eigvalsh, schmidt

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


def _log_overlap(r, s, support_tol: float) -> float:
    # Tr rho ln sigma on the support of sigma, or -inf on the leak that
    # relative_entropy documents
    s_lam, s_vec = _eigh(s)
    null = s_lam <= support_tol
    if null.any():
        r_lam, r_vec = _eigh(r)
        live = r_vec[:, r_lam > support_tol]
        if live.size:
            leak = np.abs(dag(s_vec[:, null]) @ live) ** 2
            if leak.sum(axis=0).max() > support_tol:
                return -np.inf
    supp = ~null
    w = s_vec[:, supp]
    weights = np.real(np.einsum("ij,ij->j", np.conjugate(w), _raw(r) @ w))
    return float((np.log(s_lam[supp]) * weights).sum())


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
    return max(-_entropy(r) - _log_overlap(r, s, support_tol), 0.0)


def entanglement_entropy(psi: PureState) -> float:
    """Entropy of the reduced state across aA | Bb, via the Schmidt spectrum."""
    return schmidt(psi).entropy()


def mutual_information(rho: DensityMatrix) -> float:
    """S(Alice) + S(Bob) - S(full) across the aA | Bb cut."""
    dims = rho.dims.factors()
    left = partial_trace(rho.matrix, dims, keep=(0, 1))
    right = partial_trace(rho.matrix, dims, keep=(2, 3))
    return von_neumann_entropy(left) + von_neumann_entropy(right) - von_neumann_entropy(rho)


# ------------------------------------------------- brute-force minimization

@dataclass(frozen=True, eq=False)
class SeparableEnsemble:
    """Mixture sum_i w_i A_i ⊗ B_i with A_i on aA and B_i on Bb."""

    dims: DimensionSignature
    weights: np.ndarray
    factors_a: np.ndarray  # (m, alice, alice)
    factors_b: np.ndarray  # (m, bob, bob)

    def assemble(self) -> DensityMatrix:
        return DensityMatrix(self.dims, hermitize(_assemble(self.weights, self.factors_a, self.factors_b)))


@dataclass(frozen=True)
class ReeEstimate:
    value: float
    ensemble: SeparableEnsemble
    iterations: int
    converged: bool
    stalled: bool


def _assemble(w, fa, fb) -> np.ndarray:
    return np.einsum("i,iab,icd->acbd", w, fa, fb).reshape(fa.shape[1] * fb.shape[1], -1)


def _log_gradient(r_m: np.ndarray, s_m: np.ndarray) -> np.ndarray:
    # G = d Tr[rho ln sigma] / d sigma via the divided-difference (Loewner)
    # matrix of ln on the spectrum of sigma; dD/dsigma = -G
    s_lam, v = np.linalg.eigh(hermitize(s_m))
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


def _seesaw(rho_m, dims, w, fa, fb, max_iters, tol):
    neg_entropy = -_entropy(rho_m)

    def score(cw, ca, cb) -> float:
        return max(neg_entropy - _log_overlap(rho_m, _assemble(cw, ca, cb), SUPPORT_TOL), 0.0)

    value = score(w, fa, fb)
    iters = 0
    full = fa.shape[1] * fb.shape[1]
    cap = len(w) + 16  # room for exchange-step members
    for iters in range(1, max_iters + 1):
        start = value
        # exchange step: mix in the product state the gradient likes best, so
        # the ensemble can escape a conic hull that misses the optimum; try a
        # geometric grid of mixing fractions and keep the best
        g_log = _log_gradient(rho_m, _assemble(w, fa, fb))
        av, bv = _top_product_vector(g_log, fa.shape[1], fb.shape[1])
        pa, pb = np.outer(av, av.conj()), np.outer(bv, bv.conj())
        best = None
        for gamma in 0.5 ** np.arange(1, 13):
            if len(w) >= cap:
                drop = int(np.argmin(w))
                keep = np.arange(len(w)) != drop
                wk = w[keep] / w[keep].sum()
                cw = np.append((1.0 - gamma) * wk, gamma)
                ca = np.concatenate([fa[keep], pa[None]])
                cb = np.concatenate([fb[keep], pb[None]])
            else:
                cw = np.append((1.0 - gamma) * w, gamma)
                ca = np.concatenate([fa, pa[None]])
                cb = np.concatenate([fb, pb[None]])
            cand_val = score(cw, ca, cb)
            if cand_val < value and (best is None or cand_val < best[0]):
                best = (cand_val, cw, ca, cb)
        if best is not None:
            value, w, fa, fb = best
        # weight phase: the weight subproblem is convex, so polish it with
        # exponentiated-gradient updates whose step is line-searched both ways
        # (doubling lets near-useless members decay in a handful of updates
        # instead of one e^{-eta*gap} factor per iteration)
        prods = np.einsum("iab,icd->iacbd", fa, fb).reshape(len(w), full, full)
        for _ in range(60):
            g_log = _log_gradient(rho_m, _assemble(w, fa, fb))
            slopes = np.clip(np.real(np.einsum("iab,ba->i", prods, g_log)), 1e-12, None)

            def weight_step(eta):
                cand = w * np.exp(eta * (slopes - slopes.max()))
                total = cand.sum()
                if not total > 0.0:
                    return None, np.inf
                cand /= total
                return cand, score(cand, fa, fb)

            eta = 1.0
            cand, cand_val = weight_step(eta)
            if cand_val < value:
                while eta < 1e12:
                    nxt, nxt_val = weight_step(2.0 * eta)
                    if not nxt_val < cand_val:
                        break
                    eta, cand, cand_val = 2.0 * eta, nxt, nxt_val
            else:
                for _ in range(20):
                    eta *= 0.5
                    cand, cand_val = weight_step(eta)
                    if cand_val < value:
                        break
            if not cand_val < value:
                break
            improved = value - cand_val
            w, value = cand, cand_val
            if improved < 0.1 * tol:
                break
        # projected-gradient step on all factors at a shared backtracked step
        g_log = _log_gradient(rho_m, _assemble(w, fa, fb))
        grad_a, grad_b = _factor_grads(g_log, w, fa, fb)
        scale = max(np.abs(grad_a).max(), np.abs(grad_b).max(), 1e-300)
        tau = 0.5 / scale
        for _ in range(25):
            ca = _project_density(fa - tau * grad_a)
            cb = _project_density(fb - tau * grad_b)
            cand_val = score(w, ca, cb)
            if cand_val < value:
                fa, fb, value = ca, cb, cand_val
                break
            tau *= 0.5
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
    rho_m = rho.matrix

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
        value, w, fa, fb, iters, converged = _seesaw(rho_m, dims, w, fa, fb, max_iters, tol)
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
