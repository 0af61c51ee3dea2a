"""Tour of the walk machinery: evolution, distributions, momentum blocks.

Run:  python demos/walk_tour.py
"""

import io
import math

import numpy as np

from livelywalk import (
    WalkSpec,
    basis_state,
    coin_from_theta,
    distribution,
    evolution_operator,
    evolve,
    grover_type,
    spectrum,
    write_distribution_csv,
)

np.set_printoptions(precision=4, suppress=True)

# ---------------------------------------------------------------------------
# A lively walk on the 5-cycle with jump distance 2 and a Grover coin.
# Coin state 0 steps left, 1 steps right, 2 jumps by a.
# ---------------------------------------------------------------------------
spec = WalkSpec(n=5, a=2, coin=grover_type(1))
print(f"walk on C_{spec.n} with a={spec.a}, operator is {spec.dim}x{spec.dim}")
u = evolution_operator(spec)
print("unitarity defect:", np.linalg.norm(u.conj().T @ u - np.eye(spec.dim)))

psi = basis_state(spec.n, vertex=0, coin_state=2)
for t in (0, 1, 2, 5, 10):
    probs = distribution(evolve(spec, psi, t))
    bar = "  ".join(f"{p:.3f}" for p in probs)
    print(f"t={t:>2}: {bar}")

# ---------------------------------------------------------------------------
# The same data as the CSV stream the CLI emits.
# ---------------------------------------------------------------------------
buf = io.StringIO()
write_distribution_csv(spec, psi, 3, buf)
print("\nfirst CSV rows:")
print("\n".join(buf.getvalue().splitlines()[:8]))

# ---------------------------------------------------------------------------
# Momentum blocks: the 15x15 operator splits into five 3x3 unitaries
# U_k = D_k C, and their eigenvalues assemble the full spectrum: row l of
# spectrum(spec) holds the eigenvalues of the block at k = 2*pi*l/n.
# ---------------------------------------------------------------------------
print("\n== momentum blocks ==")
lams = spectrum(spec)
for l, row in enumerate(lams):
    angles = ", ".join(f"{np.angle(lam) / (2 * math.pi):+.4f}" for lam in row)
    print(f"l={l}: eigenvalue angles / 2pi = {angles}")

dense = np.linalg.eigvals(u)
gap = max(min(abs(lam - d) for d in dense) for lam in lams.flat)
print("\nworst block eigenvalue distance to the dense spectrum:", gap)

# ---------------------------------------------------------------------------
# Periodic example: the Grover walk on the 3-cycle returns after 6 steps.
# ---------------------------------------------------------------------------
spec3 = WalkSpec(n=3, a=0, coin=grover_type(1))
psi0 = basis_state(3, 0, 0)
print("\n|psi(6) - psi(0)| on the 3-cycle:",
      np.max(np.abs(evolve(spec3, psi0, 6) - psi0)))

# A generic coin never returns: norm of the difference stays large.
spec_gen = WalkSpec(n=3, a=0, coin=coin_from_theta("X", 1.0))
gaps = [np.max(np.abs(evolve(spec_gen, psi0, t) - psi0)) for t in range(1, 40)]
print("closest return within 40 steps for theta=1.0:", min(gaps))
