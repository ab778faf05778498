# Convergence orders of the estimator pieces on a manufactured solution.
#
# The time estimator of a single step scales like k^2, its accumulation
# over a fixed interval like k, and the space estimator content like
# h^(p+1).  All three orders are measured here by log-log slope fits.

from semiheat import (Mesh, Space, builtin, run_fixed, fit_slope,
                      project_initial, imex_step, SlabEnd, SlabWorkspace)
from semiheat.scheme import InitialLaplacian

prob = builtin("manufactured_linear")

# Per-step order: eta_T of the first step at k, k/2, k/4.
mesh = Mesh.uniform(prob.rect, 4)
space = Space(mesh, 3)
U0 = project_initial(prob, space)
ks = [0.02, 0.01, 0.005]
per_step = []
for k in ks:
    U1, hat = imex_step(prob, U0, space, k, 0.0)
    start = SlabEnd(U0, InitialLaplacian(prob.a, prob.lap_u0))
    ws = SlabWorkspace(prob, start, space, 0.0)
    ws.set_state(U1, hat, k)
    per_step.append(ws.eta_time())
print("per-step eta_T:", ["%.3e" % v for v in per_step],
      " slope:", round(fit_slope(ks, per_step), 3), "(expect ~2)")

# Accumulated order: sum of eta_T over runs to T = 0.2.
acc = [sum(run_fixed(prob, mesh, 3, k, 0.2).ledger.eta_T) for k in ks]
print("accumulated eta_T:", ["%.3e" % v for v in acc],
      " slope:", round(fit_slope(ks, acc), 3), "(expect ~1)")

# Spatial order: the estimator content of the bound's elliptic term on
# uniform meshes h = 1/8, 1/16, 1/32 for degrees 1..3.
hs = [1 / 8, 1 / 16, 1 / 32]
for p in (1, 2, 3):
    parts = [run_fixed(prob, Mesh.uniform(prob.rect, lvl), p, 1e-3,
                       0.05).ledger.space_estimator_max()
             for lvl in (3, 4, 5)]
    print("p=%d space estimator:" % p, ["%.3e" % v for v in parts],
          " slope:", round(fit_slope(hs, parts), 3),
          "(expect ~%d)" % (p + 1))
