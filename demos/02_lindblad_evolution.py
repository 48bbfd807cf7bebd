"""Open-system evolution of a two-qubit pair with one jump operator.

Integrates the GKSL master equation from a Haar-random pure state and tracks the
quantities the sanity checks care about: trace preservation, positivity,
purity decay under dissipation, and how much correlation the coupling builds
across the cut.
"""

import numpy as np

from entrate import (
    DensityMatrix,
    DimensionSignature,
    LindbladGenerator,
    evolve_series,
    mutual_information,
    random_ginibre_lindblad,
    random_gue_hamiltonian,
    relative_entropy,
    smooth,
    closest_separable_state,
    schmidt,
    random_pure,
)

dims = DimensionSignature.cut(2, 2)
rng_seed = 11
h = random_gue_hamiltonian(4, rng_seed)          # operator norm exactly 1
l = random_ginibre_lindblad(4, rng_seed + 1)     # operator norm exactly 1
gen = LindbladGenerator(dims, h, (l,))

psi = random_pure(dims, seed=3)
rho = psi.density()

# fixed separable reference: relative entropy to it upper-bounds the
# entanglement and is cheap to track along the trajectory
reference = smooth(closest_separable_state(schmidt(psi)), 1e-9)

print(f"{'t':>6} {'trace err':>10} {'min eig':>10} {'purity':>8} {'mutual info':>12} {'D(rho||ref)':>12}")
steps_per_unit = 2000
# the trajectory at t = 0, 0.05, ..., 0.5, handed out in chunks of matrices
series = evolve_series(gen, rho, 0.05, 10, steps_per_unit // 20)
states = [DensityMatrix(dims, m) for mats, _ in series for m in mats]
for k, state in enumerate(states):
    t = 0.05 * k
    m = state.matrix
    trace_err = abs(np.trace(m).real - 1.0)
    min_eig = float(np.linalg.eigvalsh(m).min())
    purity = float(np.real(np.trace(m @ m)))
    mi = mutual_information(state)
    dist = relative_entropy(state, reference)
    print(f"{t:6.2f} {trace_err:10.1e} {min_eig:10.2e} {purity:8.4f} {mi:12.6f} {dist:12.6f}")

print()
print("dissipation pushes the state into the interior (min eig > 0, purity < 1)")
print("while the Hamiltonian coupling moves correlations across the cut.")
