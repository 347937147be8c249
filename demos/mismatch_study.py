"""
Nominal and mismatched estimation study
=======================================

Run the bundled two-state plant four ways: truth model nominal or
mismatched (a different drift matrix A and a doubled input delay), observer
cubic or linear (the same observer with N = 0).
The comparison metric is J_o(t) = integral of the squared estimation error,
so smaller is better.  This is the same study `cubicobs reproduce-paper`
runs; here it is driven through the library API so the intermediate
trajectories are available.
"""

import numpy as np

from cubicobs import sim
from cubicobs.model import example_system

ex = example_system()
cfg = sim.SimConfig(
    h=0.01,
    t_end=20.0,
    x0=np.zeros(2),
    xhat0=(-5.0, -5.0),
    input_signal=sim.input_signals(sim.DEFAULT_INPUT_SIGNAL, ex.nominal.n_u),
)

# The uncertain truth model changes the drift matrix A and grows the input
# delay from 1 s to 2 s; the observer keeps integrating the nominal design
# model, so its copies of A and of the delayed drive are both wrong.
runs = {
    "nominal": sim.compare_cubic_linear(ex.nominal, ex.nominal, ex.observer, cfg),
    "mismatch": sim.compare_cubic_linear(ex.uncertain, ex.nominal, ex.observer, cfg),
}

print(f"{'truth':10s} {'Jo cubic':>14s} {'Jo linear':>14s} {'ratio':>10s}")
for name, rep in runs.items():
    print(f"{name:10s} {rep.jo_cubic:14.6f} {rep.jo_linear:14.6f} {rep.ratio:10.6f}")

# Both ratios sit close to 1: the drive amplitude has to stay tiny for the
# open-loop-unstable mismatched plant to remain bounded for 20 s, so most of
# Jo accrues during the initial transient from xhat(0) = (-5, -5), where the
# cubic term is what acts on the large output error.  The cubic observer
# gains about 1% either way (ratios 0.99020 nominal, 0.99055 mismatched):
# its advantage comes from that transient, not from absorbing the mismatch.
rep = runs["mismatch"]
t = rep.cubic.t
for t_mark in (0.5, 1.0, 5.0, 20.0):
    k = int(round(t_mark / cfg.h))
    print(f"t = {t[k]:5.1f}: Jo cubic {rep.cubic.jo[k]:12.6f}"
          f"   Jo linear {rep.linear.jo[k]:12.6f}")
print("\nestimation error at t_end (mismatch, cubic):",
      np.linalg.norm(rep.cubic.x[-1] - rep.cubic.xhat[-1]))
