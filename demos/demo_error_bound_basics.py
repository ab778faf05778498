# The conditional error bound on a problem with a known solution.
#
# For a reaction independent of the solution the bound holds
# unconditionally and telescopes into four explicit pieces: the initial
# error, the accumulated time estimator, the accumulated space-derivative
# estimator, and the logged maximum of the space estimator.  This script
# runs the decaying heat solution on a fixed mesh and compares the bound
# against the actually measured error.

import numpy as np

from semiheat import Mesh, builtin, run_fixed

prob = builtin("heat_decay")
mesh = Mesh.uniform(prob.rect, 4)
res = run_fixed(prob, mesh, degree=2, k=2e-3, T=prob.T)
L = res.ledger

print("steps:", res.steps, " final |U|:", round(res.final_norm, 6),
      " exact:", round(float(np.exp(-2 * np.pi ** 2 * prob.T)), 6))

# Every fixed-point parameter is exactly one here; the bound needs no
# condition check.
print("all delta == 1:", all(d == 1.0 for d in L.delta),
      "  all r == 1:", all(r == 1.0 for r in L.r))

bound = L.bound_through()
print("total bound:", bound)
print("  initial error      ", L.e0)
print("  sum eta_T          ", sum(L.eta_T))
print("  sum xi'            ", sum(L.xi_prime))
print("  logged space term  ", L.space_bound_term())

# Measure the true error at every recorded time on the sample grid.
sp = res.trajectory.u0.space
X, Y = sp.sample_points()
err = np.abs(prob.exact(X, Y, 0.0)
             - res.trajectory.u0.sample_values("val")).max()
for slab in res.trajectory.slabs:
    d = np.abs(prob.exact(X, Y, slab.t_next)
               - slab.u_next.sample_values("val")).max()
    err = max(err, d)
print("measured max-in-time error:", float(err))
print("reliable (error <= bound):", err <= bound,
      " effectivity:", round(bound / err, 1))

L.to_csv("heat_decay_ledger.csv")
print("wrote heat_decay_ledger.csv (per-step estimator table)")
