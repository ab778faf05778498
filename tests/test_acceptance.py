"""Acceptance gate: one test per criterion, with a printed verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
of every criterion.  The blow-up sweeps (criteria 4-6 share one sweep of
the Gaussian-blob problem; criterion 5 rides a volcano-data sweep) take
several minutes each; everything else is seconds.
"""

import numpy as np
import pytest

from semiheat.mesh import Mesh, Rectangle
from semiheat import fespace as fe
from semiheat import scheme as sc
from semiheat import estimators as est
from semiheat import driver as dr
from semiheat.problems import builtin
from semiheat.cli import fit_slope


def _verdict(num, description, checks):
    """Print one line per criterion and fail on the first broken check."""
    ok = all(bool(c) for _, c in checks)
    print("\nCRITERION %d %s: %s" % (num, "PASS" if ok else "FAIL",
                                     description))
    for label, c in checks:
        mark = "ok" if c else "FAILED"
        print("    [%s] %s" % (mark, label))
    assert ok, "criterion %d failed" % num


def _measured_error(problem, result):
    """Max over recorded times of the sampled sup error against exact."""
    traj = result.trajectory
    sp = traj.u0.space
    X, Y = sp.sample_points()
    err = float(np.abs(problem.exact(X, Y, 0.0)
                       - traj.u0.sample_values("val")).max())
    for slab in traj.slabs:
        spn = slab.u_next.space
        Xn, Yn = spn.sample_points()
        d = float(np.abs(problem.exact(Xn, Yn, slab.t_next)
                         - slab.u_next.sample_values("val")).max())
        err = max(err, d)
    return err


def _telescoped_sum(ledger):
    logs = [est.log_factor(h) * m
            for h, m in zip(ledger.hmin, ledger.eta_S_max)]
    logs.append(ledger.log_eta_S0)
    return (ledger.e0 + sum(ledger.eta_T)
            + ledger.c_inf * sum(ledger.xi_prime)
            + ledger.c_inf * max(logs))


# -- criterion 1 -----------------------------------------------------------------


def test_criterion_1_zero_modulus_degeneration():
    checks = []
    prob_hd = builtin("heat_decay")
    tol = dr.Tolerances.from_plus(stol_plus=1.0, ttol_plus=0.05)
    res_hd = dr.run_adaptive(prob_hd, tol, 2, Mesh.uniform(prob_hd.rect, 3),
                             0.02)
    prob_ml = builtin("manufactured_linear")
    res_ml = dr.run_fixed(prob_ml, Mesh.uniform(prob_ml.rect, 4), 2,
                          k=0.01, T=0.1)
    for name, res in (("heat_decay", res_hd), ("manufactured_linear", res_ml)):
        L = res.ledger
        checks.append(("%s: every delta == 1.0 bit-exactly" % name,
                       all(d == 1.0 for d in L.delta)))
        checks.append(("%s: every r == 1.0 bit-exactly" % name,
                       all(r == 1.0 for r in L.r)))
        lhs = L.bound_through()
        rhs = _telescoped_sum(L)
        checks.append(("%s: bound_through matches the telescoped sum "
                       "(rel %.2e)" % (name, abs(lhs - rhs) / rhs),
                       abs(lhs - rhs) <= 1e-12 * rhs))
    _verdict(1, "zero-modulus degeneration is exact", checks)


# -- criterion 2 -----------------------------------------------------------------


def test_criterion_2_manufactured_reliability():
    prob = builtin("manufactured_linear")
    hs = [1.0 / 8, 1.0 / 16, 1.0 / 32]
    checks = []
    for p in (1, 2, 3):
        space_parts = []
        for level in (3, 4, 5):
            res = dr.run_fixed(prob, Mesh.uniform(prob.rect, level), p,
                               k=1e-3, T=0.05)
            err = _measured_error(prob, res)
            bound = res.ledger.bound_through()
            checks.append(
                ("p=%d h=1/%d: error %.3e <= bound %.3e"
                 % (p, 2 ** level, err, bound), err <= bound))
            space_parts.append(res.ledger.space_estimator_max())
        slope = fit_slope(hs, space_parts)
        checks.append(("p=%d: spatial slope %.3f in [%g, %g]"
                       % (p, slope, p + 0.6, p + 1.4),
                       p + 0.6 <= slope <= p + 1.4))
    _verdict(2, "reliability and optimal spatial order (C_inf = 1)", checks)


# -- criterion 3 -----------------------------------------------------------------


def test_criterion_3_temporal_order():
    prob = builtin("manufactured_linear")
    mesh = Mesh.uniform(prob.rect, 4)
    p = 3
    ks = [0.02, 0.01, 0.005]
    space = fe.Space(mesh, p)
    U0 = sc.project_initial(prob, space)
    per_step = []
    for k in ks:
        U1, hat = sc.imex_step(prob, U0, space, k, 0.0)
        ws = est.SlabWorkspace(
            prob, est.SlabEnd(U0, sc.InitialLaplacian(prob.a, prob.lap_u0)),
            space, 0.0)
        ws.set_state(U1, hat, k)
        per_step.append(ws.eta_time())
    slope_step = fit_slope(ks, per_step)
    accumulated = [sum(dr.run_fixed(prob, mesh, p, k, 0.2).ledger.eta_T)
                   for k in ks]
    slope_acc = fit_slope(ks, accumulated)
    _verdict(3, "time estimator orders", [
        ("per-step slope %.3f in [1.8, 2.2]" % slope_step,
         1.8 <= slope_step <= 2.2),
        ("accumulated slope %.3f in [0.8, 1.2]" % slope_acc,
         0.8 <= slope_acc <= 1.2)])


# -- criteria 4-6: blow-up sweeps --------------------------------------------------


def _blowup_sweep(problem, depth, degree=4, k1=0.07, stol=0.01):
    # the rows share their first-interval work, as `semiheat sweep` rows do;
    # a row's result does not depend on the cache
    cache = dr.FirstIntervalCache()
    rows = []
    for j in range(1, depth + 1):
        ttol = 0.25 ** j
        tol = dr.Tolerances(stol_plus=stol, stol_minus=stol / 2 ** 30,
                            ttol_plus=ttol, ttol_minus=ttol / 4096)
        res = dr.run_adaptive(problem, tol, degree,
                              Mesh.uniform(problem.rect, 4), k1,
                              dr.DriverOptions(max_steps=8000),
                              first_interval=cache)
        rows.append(res)
    return rows


@pytest.fixture(scope="module")
def example1_sweep():
    return _blowup_sweep(builtin("example1"), depth=5)


@pytest.fixture(scope="module")
def example2_sweep():
    return _blowup_sweep(builtin("example2"), depth=6)


PAPER_STEPS = [2, 8, 23, 52, 114]


def test_criterion_4_example1_blowup_trend(example1_sweep):
    rows = example1_sweep
    Ns = [r.steps for r in rows]
    Ts = [r.final_time for r in rows]
    tinf = rows[-1].tinf_estimate
    checks = [
        ("final times strictly increasing: %s"
         % ", ".join("%.5f" % t for t in Ts),
         all(a < b for a, b in zip(Ts, Ts[1:]))),
        ("last-row final time %.5f in [0.17, 0.215]" % Ts[-1],
         0.17 <= Ts[-1] <= 0.215),
        ("extrapolated blow-up time %.5f in [0.19, 0.24]" % tinf,
         0.19 <= tinf <= 0.24),
    ]
    for n, pn in zip(Ns, PAPER_STEPS):
        checks.append(("steps %d within 4x of reference %d" % (n, pn),
                       pn / 4 <= n <= pn * 4))
    checks.append(("every row stopped by fixed-point nonexistence",
                   all(r.stop_reason.startswith("delta_nonexistent")
                       for r in rows)))
    _verdict(4, "Gaussian-blob blow-up trend (degree 4 sweep)", checks)


def test_criterion_5_blowup_rate(example2_sweep):
    rows = example2_sweep
    Ns = [r.steps for r in rows]
    Ts = [r.final_time for r in rows]
    tinf = rows[-1].tinf_estimate
    slope = fit_slope(Ns, [abs(tinf - t) for t in Ts])
    _verdict(5, "blow-up convergence rate (volcano sweep, %d rows)"
             % len(rows), [
        ("rows %d >= 5" % len(rows), len(rows) >= 5),
        ("slope %.3f in [-1.3, -0.5]" % slope, -1.3 <= slope <= -0.5)])


def test_criterion_6_solution_asymptotics(example1_sweep):
    res = example1_sweep[-1]
    L = res.ledger
    tinf = res.tinf_estimate
    t10 = np.array(L.t[-10:])
    n10 = np.array(L.linf_u[-10:])
    slope = fit_slope(np.abs(tinf - t10), n10)
    _verdict(6, "solution norm grows like a first-order pole", [
        ("slope %.3f of log|U| vs log|T_inf - t| in [-1.3, -0.7]" % slope,
         -1.3 <= slope <= -0.7)])


# -- criterion 7 -----------------------------------------------------------------


def test_criterion_7_delta_oracle_equivalence():
    rng = np.random.default_rng(42)
    additive = est.LipschitzModulus.additive()
    generic = est.LipschitzModulus(lambda t, a, b: a + b, kind="generic")
    mismatches = 0
    found = 0
    worst_gap = 0.0
    worst_margin = 0.0
    for _ in range(200):
        psi = rng.uniform(0.0, 2.0)
        xi = rng.uniform(0.0, 1.0)
        k = rng.uniform(1e-4, 0.05)
        nval = rng.uniform(0.0, 8.0)
        nodes = est.TimeNodes(k, *est._time_rule(0.0, k, 3), (nval,) * 3)
        d_closed = est.fixed_point_delta(psi, xi, nodes, additive)
        d_scan = est.fixed_point_delta(psi, xi, nodes, generic)
        if (d_closed is None) != (d_scan is None):
            mismatches += 1
            continue
        if d_closed is None:
            continue
        found += 1
        worst_gap = max(worst_gap,
                        abs(d_closed - d_scan) / max(1.0, d_closed))
        for d in (d_closed, d_scan):
            integral = 2.0 * k * (d * psi + nval + xi)
            margin = (1.0 - 1.0 / d) - integral
            worst_margin = min(worst_margin, margin)
    _verdict(7, "fixed-point root: closed form vs bracket scan", [
        ("no existence mismatches (%d)" % mismatches, mismatches == 0),
        ("roots found on %d tuples" % found, found > 50),
        ("worst relative gap %.2e <= 1e-8" % worst_gap, worst_gap <= 1e-8),
        ("worst contraction margin %.2e >= -1e-10" % worst_margin,
         worst_margin >= -1e-10)])


# -- criterion 8 -----------------------------------------------------------------


def _random_mesh(rng, rect, rounds):
    mesh = Mesh.uniform(rect, 1)
    for _ in range(rounds):
        n = len(mesh)
        take = rng.choice(n, size=max(1, n // 3), replace=False)
        mesh = mesh.refine([mesh.leaves[i] for i in take])
        n = len(mesh)
        drop = rng.choice(n, size=max(1, n // 5), replace=False)
        mesh = mesh.coarsen([mesh.leaves[i] for i in drop])
    return mesh


def _count_containing(mesh, box):
    eps = 1e-12
    x0, y0, hx, hy = box
    cnt = 0
    for i in range(len(mesh)):
        a, b, w, h = mesh.x0[i], mesh.y0[i], mesh.hx[i], mesh.hy[i]
        if (a - eps <= x0 and b - eps <= y0
                and x0 + hx <= a + w + eps and y0 + hy <= b + h + eps):
            cnt += 1
    return cnt


def test_criterion_8_mesh_overlay_oracle():
    rng = np.random.default_rng(7)
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    bad = 0
    for trial in range(100):
        m1 = _random_mesh(rng, rect, 3)
        m2 = _random_mesh(rng, rect, 3)
        vee = m1.overlay_finest(m2)
        wedge = m1.overlay_coarsest(m2)
        ok = set(vee.leaves) == set(m2.overlay_finest(m1).leaves)
        ok &= set(wedge.leaves) == set(m2.overlay_coarsest(m1).leaves)
        ok &= set(vee.overlay_finest(vee).leaves) == set(vee.leaves)
        ok &= set(wedge.overlay_coarsest(wedge).leaves) == set(wedge.leaves)
        for i in range(len(vee)):
            box = (vee.x0[i], vee.y0[i], vee.hx[i], vee.hy[i])
            if _count_containing(m1, box) != 1 or _count_containing(m2, box) != 1:
                ok = False
                break
        for m in (m1, m2):
            for i in range(len(m)):
                box = (m.x0[i], m.y0[i], m.hx[i], m.hy[i])
                if _count_containing(wedge, box) != 1:
                    ok = False
                    break
        bad += not ok
    _verdict(8, "overlay containment / idempotence / commutativity "
             "(100 random pairs)", [("violations: %d" % bad, bad == 0)])


# -- criterion 9 -----------------------------------------------------------------


def test_criterion_9_extrapolation_exactness():
    rng = np.random.default_rng(3)
    tinf = 0.7174
    worst = 0.0
    for _ in range(50):
        t1, t2 = np.sort(rng.uniform(0.0, tinf - 1e-3, 2))
        if t2 - t1 < 1e-6:
            continue
        n1 = 1.0 / (tinf - t1)
        n2 = 1.0 / (tinf - t2)
        got = dr.extrapolate_blowup(t1, n1, t2, n2)
        worst = max(worst, abs(got - tinf))
    table = dr.extrapolate_blowup(0.21571, 745.826, 0.21625, 1276.960)
    _verdict(9, "blow-up time extrapolation", [
        ("pole data recovered to %.2e (<= 1e-12)" % worst, worst <= 1e-12),
        ("reference-table value %.6f within 5e-5 of 0.21700" % table,
         abs(table - 0.21700) <= 5e-5)])
