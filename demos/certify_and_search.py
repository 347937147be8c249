"""
Certificates: verify, search, decide uniqueness
===============================================

The convergence argument for the cubic observer rests on three numeric
checks: a Lyapunov LMI block must be negative definite, the cubic-gain
condition P N C + C'N'P <= 0 must hold, and the error dynamics must admit
no spurious equilibrium.  This script runs all three on the bundled system,
then searches for a certificate from scratch, and finally shows the exact
uniqueness decision catching a deliberately bad gain.
"""

import numpy as np

from cubicobs import cert
from cubicobs.model import example_system

np.set_printoptions(precision=4, suppress=True)

ex = example_system()
obs, crt, plant = ex.observer, ex.certificate, ex.nominal

# 1. Verify the stored certificate.  The margin is the largest eigenvalue of
# the assembled block; any negative value certifies the LMI.
margin = cert.verify_lmi_lipschitz(crt.P, crt.beta, ex.lipschitz.gamma,
                                   obs.G, obs.E, plant.C)
print("LMI margin:", margin)

# 2. The cubic-gain condition.  With one output and two states the assembled
# matrix -2 alpha C' theta C has rank one, so it can only be semidefinite;
# the check classifies that honestly rather than failing.  The
# identity residual is how far N is from the closed form -alpha P^-1 C' theta.
ncond = cert.verify_N_condition(crt.P, obs.N, plant.C, obs.theta, obs.alpha)
print("N-condition matrix:\n", ncond.matrix)
print("classification:", ncond.classification)
print("identity residual:", ncond.identity_residual)

# 3. Equilibrium uniqueness.  A nonzero rest point lies on a ray through a
# real eigenvector of the pencil (G, -N C), so its eigenvalues (one QZ solve)
# and their eigenspaces (one stacked SVD) decide the question for any gain:
# "no-counterexample" is a proof.
verdict = cert.check_equilibrium_uniqueness(obs.G, obs.N, plant.C, obs.theta)
print("equilibrium:", verdict.status)

# Certificates need not be supplied.  For a Lipschitz bound search_P decides
# feasibility exactly (bounded real lemma: G Hurwitz and gamma below
# gamma_max = 1/||(sI - G)^-1 (I - EC)||_inf), takes P from a Riccati
# equation, and returns a certificate whose margin, recomputed through the
# public verifier, is below -1e-6.  Above gamma_max it raises, saying
# infeasibility is proven.  The certificate stores no margin: ask the verifier.
found = cert.search_P(ex.lipschitz, obs.G, obs.E, plant.C)
print("\nsearched certificate:")
print("P =\n", found.P)
print("beta =", found.beta)
print("margin =", cert.verify_lmi_lipschitz(found.P, found.beta, ex.lipschitz.gamma,
                                            obs.G, obs.E, plant.C))
print("gamma_max =", cert.max_lipschitz_gamma(obs.G, obs.E, plant.C))
N = cert.cubic_gain(found.P, plant.C, obs.theta, obs.alpha)
print("derived cubic gain N =\n", N)

# Now break things on purpose: a sign-flipped gain makes the origin lose
# uniqueness.  With G = -I, N = [1; 0], C = [1 0], theta = 1 the equilibrium
# equation -v1 + v1^3 = 0 has the nonzero root v1 = 1: the pencil eigenvalue
# lam = 1 with eigenvector (1, 0) gives it, verified by its residual.
bad = cert.check_equilibrium_uniqueness(
    -np.eye(2), [[1.0], [0.0]], [[1.0, 0.0]], [[1.0]]
)
print("\nplanted bad gain:", bad.status)
print("counterexample v =", bad.v.ravel(), " residual =", bad.residual)
