"""How fast can an open system generate entanglement in one short step?

Draws a random two-qubit instance (unit-norm H, two unit-norm jump
operators), measures the one-step entangling rate at several step sizes with
both measure paths, and compares everything against the closed-form cap
4 (||H|| + 86 sum ||L||^2) ln d.
"""

import math

from entrate import (
    DimensionSignature,
    LindbladGenerator,
    entangling_rate_bound,
    entangling_rate_fd,
    random_ginibre_lindblad,
    random_gue_hamiltonian,
    random_pure,
    surrogate_rate_analytic,
    unitary_rate_bound,
)

dims = DimensionSignature.cut(2, 2)
psi = random_pure(dims, seed=42)
h = random_gue_hamiltonian(4, 42)
ls = tuple(random_ginibre_lindblad(4, 42 + j) for j in range(2))
gen = LindbladGenerator(dims, h, ls)

cap = entangling_rate_bound(gen)
print(f"cap 4(||H|| + 86 sum ||L||^2) ln d = {cap:.4f}")
# the pinched probe's expansion at t = 0: D(rho_dt || pinch) = E + kappa dt ln dt + a dt + o(dt),
# so the surrogate rate below reads a + kappa ln dt and falls without bound as dt -> 0
kappa, a = surrogate_rate_analytic(psi, gen)
print(f"closed form: kappa = {kappa:.4f}, a = {a:.4f} (surrogate rate ~ a + kappa ln dt)")
print()

print(f"{'delta_t':>8} {'surrogate rate':>15} {'a + kappa ln dt':>16} {'see-saw rate':>13} {'margin to cap':>14}")
for dt in (1e-3, 1e-4, 1e-5):
    rep = entangling_rate_fd(psi, gen, dt, measure="bruteforce", seed=0,
                             ree_kwargs={"restarts": 1, "max_iters": 200})
    print(f"{dt:8.0e} {rep.gamma_surrogate_fd:15.6f} {a + kappa * math.log(dt):16.6f} "
          f"{rep.gamma_fd:13.6f} {rep.margin:14.4f}")
    assert rep.gamma_fd <= rep.gamma_surrogate_fd + 1e-7, "the see-saw rate beat the surrogate rate"
    assert rep.margin >= 0.0, "a measured rate exceeds the cap"

print()
print("the see-saw rate (true measure) never exceeds the surrogate rate, and")
print("both sit far below the cap on typical instances.")

# closed dynamics: drop the jump operators and the cap tightens to 4 ||H|| ln d
gen_u = LindbladGenerator(dims, h, ())
rep_u = entangling_rate_fd(psi, gen_u, 1e-4)
kappa_u, a_u = surrogate_rate_analytic(psi, gen_u)  # kappa = 0 without jumps: the rate is finite
print()
print(f"unitary cap 4||H|| ln d = {unitary_rate_bound(gen_u):.4f}, "
      f"measured rate = {rep_u.gamma_surrogate_fd:.6f}, closed form a = {a_u:.6f} (kappa = {kappa_u:.1e})")
