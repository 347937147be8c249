"""
The model expression language
=============================

Nonlinearities and drive signals live in config files as small arithmetic
expressions over states x1..xn, inputs u1..un_u, outputs y1..yn_y, and time.
A trailing @k selects the k-th configured delay of a signal.  This script
parses a few, evaluates them against hand-built signal values, and shows
the error reporting.
"""

import numpy as np

from cubicobs.exprlang import (
    ExprSyntaxError,
    SignalDims,
    evaluate,
    parse,
    unparse,
    variables,
)

# Two states, one input with one delay slot, one output, no output delays.
dims = SignalDims(n=2, n_u=1, n_y=1, n_delta=1, n_tau=0)

e = parse("0.5*sin(x1) - x2^3 + u1@1", dims)
print("parsed     :", unparse(e))
print("references :", sorted({unparse(v) for v in variables(e)}))

# Evaluation takes the current state plus, for inputs and outputs, one
# vector per delay slot: u[0] is the undelayed input, u[k] the input at the
# k-th delay.  A signal the expression does not reference may be None.
x = np.array([np.pi / 2, 1.0])
u = [np.array([0.0]), np.array([2.0])]
print("value      :", evaluate(e, x, u, y=None))  # 0.5*1 - 1 + 2 = 1.5

# Drive signals are time-only expressions; state references are rejected
# there because the drive must not depend on the trajectory.
drive = parse("0.0003*sin(t)", SignalDims(0, 0, 0), allow_time=True)
print("\ndrive at t=1:", evaluate(drive, t=1.0))

# Precedence follows the usual rules; unparse prints the tree fully
# parenthesized so round trips are unambiguous.
for text in ("-x1^2", "1 - 2 - 3", "2*x1 + 3*x2"):
    print(f"{text:12s} ->", unparse(parse(text, dims)))

# Errors carry the offending position and a specific message.
for bad in ("x3", "u1@2", "1 +", "sin()"):
    try:
        parse(bad, dims)
    except ExprSyntaxError as exc:
        print(f"reject {bad!r}: {exc}")
    except Exception as exc:
        print(f"reject {bad!r}: {exc}")
