"""
Structural observer design
==========================

Walk through the algebraic half of the toolkit: decide whether a disturbance
channel can be decoupled, compute the decoupling gain E, and assemble the
observer matrices (G, J) from a chosen output injection L.  Everything here
is exact linear algebra; no simulation is involved.
"""

import numpy as np

from cubicobs import design
from cubicobs.model import example_system

np.set_printoptions(precision=4, suppress=True)

ex = example_system()
A, C, D = ex.nominal.A, ex.nominal.C, ex.nominal.D

print("plant matrices")
print("A =\n", A)
print("C =", C)
print("D =\n", D)

# Decoupling asks for (I - E C) D = 0.  That has a solution exactly when
# rank(C D) equals rank(D): the outputs must "see" every disturbance direction.
print("\ndecoupling feasible:", design.decoupling_feasible(C, D))

E = design.compute_E(C, D)
T = np.eye(2) - E @ C
print("E =\n", E)
print("(I - EC) D =\n", T @ D)

# With E fixed, any output injection L yields a consistent (G, J) pair.
# L shifts the error-dynamics spectrum; here it is chosen to place the
# first closed-loop eigenvalue at -10 (the second is structurally pinned).
L = np.array([[10.0], [-3.0]])
r = design.design_GJ(A, C, E, L, D=D)
print("\nG =\n", r.G)
print("J =\n", r.J)
print("residual_sylvester  =", r.residual_sylvester)
print("residual_decoupling =", r.residual_decoupling)
print("spectral abscissa of G =", design.spectral_abscissa(r.G))

# A gain can also be computed.  stabilize_L solves the filter Riccati
# equation shifted by the requested decay margin, on the observable subspace,
# with numlin's Hamiltonian-Schur kernel (scipy.linalg.schur loads on the
# first call); a margin beyond the pinned, unobservable eigenvalue raises
# GainSearchError naming that mode.
L_auto = design.stabilize_L(T, A, C, margin=5.0)
r_auto = design.design_GJ(A, C, E, L_auto, D=D)
print("\ncomputed gain for margin 5.0:")
print("L =\n", L_auto)
print("spectral abscissa of G =", design.spectral_abscissa(r_auto.G))
try:
    design.stabilize_L(T, A, C, margin=11.5)
except design.GainSearchError as exc:
    print("margin 11.5:", exc)

# A channel the outputs cannot see is rejected up front.
D_bad = np.array([[0.0], [1.0]])
print("\nblind channel D = [0; 1] feasible:",
      design.decoupling_feasible(C, D_bad))
