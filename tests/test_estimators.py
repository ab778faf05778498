"""Estimator chain: space/time estimators, psi recursion, delta, r, bound."""

import math

import numpy as np
import pytest

from semiheat.mesh import Mesh, Rectangle
from semiheat import fespace as fe
from semiheat import scheme as sc
from semiheat import driver as dr
from semiheat import estimators as est
from semiheat.problems import builtin

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)


def make_slab_workspace(prob, level=3, degree=2, k=0.01, mesh=None):
    mesh = mesh or Mesh.uniform(prob.rect, level)
    sp = fe.Space(mesh, degree)
    U0 = sc.project_initial(prob, sp)
    U1, hat = sc.imex_step(prob, U0, sp, k, 0.0)
    ws = est.SlabWorkspace(
        prob, est.SlabEnd(U0, sc.InitialLaplacian(prob.a, prob.lap_u0)),
        sp, 0.0)
    ws.set_state(U1, hat, k)
    return sp, U0, U1, hat, ws


# -- log factor and xi ---------------------------------------------------------


def test_log_factor_clamp():
    assert est.log_factor(2.0) == 1.0
    assert est.log_factor(1.0) == 1.0
    assert est.log_factor(np.exp(-1.0)) == pytest.approx(1.0)
    assert est.log_factor(0.01) == pytest.approx(math.log(100.0))


def test_xi_value_cases():
    z = np.zeros(4)
    assert est.xi_value(z, 0.1, z, 0.1) == 0.0
    m = np.array([0.5, 2.0, 1.0])
    assert est.xi_value(z, 0.5, m, np.exp(-1.0)) == pytest.approx(2.0)
    # equal maps: the smaller mesh size wins through the log factor
    assert est.xi_value(m, 0.01, m, 0.05) == pytest.approx(
        math.log(100.0) * 2.0)


# -- space estimator ------------------------------------------------------------


def test_space_estimator_zero_for_exact_reconstruction():
    # steady state: stationary field, matching driving term
    prob = builtin("heat_decay")
    from dataclasses import replace
    # u0 = x^2 + y^2 restricted: interpolant reproduces it at p >= 2, and
    # the analytic Laplacian cancels the volume residual exactly
    poly = replace(prob,
                   u0=lambda x, y: x * x + y * y,
                   lap_u0=lambda x, y: 4.0 + 0 * x)
    mesh = Mesh.uniform(UNIT, 2)
    sp = fe.Space(mesh, 2)
    U = fe.Field.from_callable(sp, poly.u0)
    eta = est.initial_space_estimator(poly, est.initial_end(poly, U))
    assert eta.max() < 1e-8


def test_space_estimator_zero_field():
    prob = builtin("heat_decay")
    from dataclasses import replace
    flat = replace(prob, u0=lambda x, y: 0.0 * x, lap_u0=lambda x, y: 0.0 * x)
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    eta = est.initial_space_estimator(
        flat, est.initial_end(flat, fe.Field.zeros(sp)))
    assert eta.max() == 0.0


def test_space_estimator_h_powers():
    # the combiner weights the volume part by h^2 and the jump part by h:
    # fixed residual magnitudes on meshes of halved size scale accordingly
    a = 2.0
    for h_scale in (1.0, 0.5):
        h = np.array([h_scale * np.sqrt(2.0)])
        vol = np.array([3.0])
        jump = np.array([5.0])
        eta = h * h / a * vol + h * jump
        if h_scale == 1.0:
            base = eta[0]
    fine = (0.5 * np.sqrt(2)) ** 2 / a * 3.0 + 0.5 * np.sqrt(2) * 5.0
    assert fine == pytest.approx(0.25 * (np.sqrt(2) ** 2 / a * 3.0)
                                 + 0.5 * (np.sqrt(2) * 5.0))


def test_eta_dot_vanishes_for_stationary_slab():
    prob = builtin("heat_decay")
    from dataclasses import replace
    flat = replace(prob, u0=lambda x, y: 0.0 * x, lap_u0=lambda x, y: 0.0 * x)
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    z = fe.Field.zeros(sp)
    ws = est.SlabWorkspace(
        flat, est.SlabEnd(z, sc.InitialLaplacian(1.0, flat.lap_u0)), sp, 0.0)
    ws.set_state(z, z, 0.1)
    dot_map, xi_prime = ws.eta_dot_maps()
    assert dot_map.max() == 0.0
    assert xi_prime == 0.0


def test_eta_dot_same_mesh_reduces_to_single_mesh():
    prob = builtin("heat_decay")
    sp, U0, U1, hat, ws = make_slab_workspace(prob)
    assert ws.vee is sp.mesh
    assert np.array_equal(ws.h_wedge, sp.mesh.h)


def test_eta_dot_pure_refinement_weights_from_coarse_mesh():
    prob = builtin("heat_decay")
    mesh = Mesh.uniform(UNIT, 2)
    sp = fe.Space(mesh, 2)
    U0 = sc.project_initial(prob, sp)
    fine = mesh.refine([mesh.leaves[0], mesh.leaves[5]])
    spf = fe.Space(fine, 2)
    U1, hat = sc.imex_step(prob, U0, spf, 0.01, 0.0)
    ws = est.SlabWorkspace(
        prob, est.SlabEnd(U0, sc.InitialLaplacian(1.0, prob.lap_u0)), spf,
        0.0)
    ws.set_state(U1, hat, 0.01)
    # wedge = coarse mesh; every vee cell's weight is its coarse ancestor's h
    assert set(ws.wedge.leaves) == set(mesh.leaves)
    assert set(ws.vee.leaves) == set(fine.leaves)
    assert ws.vee is spf.mesh
    for vi, key in enumerate(ws.vee.leaves):
        cx = ws.vee.x0[vi] + 0.5 * ws.vee.hx[vi]
        cy = ws.vee.y0[vi] + 0.5 * ws.vee.hy[vi]
        host = int(mesh.locate([cx], [cy])[0])
        assert ws.h_wedge[vi] == pytest.approx(mesh.h[host])


def test_refine_only_mesh_change_locates_once(monkeypatch):
    # One (new mesh, old mesh) Transfer serves the step's interpolation
    # and reaction term, the workspace's grids, faces and wedge sizes.
    prob = builtin("heat_decay")
    mesh = Mesh.uniform(UNIT, 2)
    sp = fe.Space(mesh, 2)
    U0 = sc.project_initial(prob, sp)
    k = 0.01
    U1, hat = sc.imex_step(prob, U0, sp, k, 0.0)
    A1 = sc.DiscreteLaplacian(prob.f, 0.0, k, U0, U1, hat)
    spf = fe.Space(mesh.refine([mesh.leaves[0], mesh.leaves[5]]), 2)
    calls = []
    locate = Mesh.locate

    def counted(self, x, y):
        calls.append(np.size(x))
        return locate(self, x, y)

    monkeypatch.setattr(Mesh, "locate", counted)
    U2, hat2 = sc.imex_step(prob, U1, spf, k, k)
    ws = est.SlabWorkspace(prob, est.SlabEnd(U1, A1), spf, k)
    ws.set_state(U2, hat2, k)
    ws.eta_time()
    ws.eta_space_map()
    ws.eta_dot_maps()
    assert ws.vee is spf.mesh and ws.wedge is mesh
    assert calls == [len(spf.mesh)]


def test_discrete_A_prev_must_end_at_u_prev():
    # A slab's A_prev closure ends at its u_prev, whose overlay values the
    # start already holds; a closure that ends elsewhere is refused.
    prob = builtin("heat_decay")
    mesh = Mesh.uniform(UNIT, 2)
    sp = fe.Space(mesh, 2)
    U0 = sc.project_initial(prob, sp)
    k = 0.01
    U1, hat = sc.imex_step(prob, U0, sp, k, 0.0)
    A1 = sc.DiscreteLaplacian(prob.f, 0.0, k, U0, U1, hat)
    spf = fe.Space(mesh.refine([mesh.leaves[0], mesh.leaves[5]]), 2)
    ws = est.SlabWorkspace(prob, est.SlabEnd(U1, A1), spf, k)
    grids = [fe.grid_values(u, ws.vee, "sample") for u in (U0, U1, hat)]
    assert np.array_equal(ws.A_prev_values(),
                          A1.values(ws.Xs, ws.Ys, *grids))
    with pytest.raises(ValueError, match="end at its field"):
        est.SlabEnd(U0, A1)


# -- reuse across slabs ------------------------------------------------------------


def _second_slab(refine):
    """Slab 1's certified workspace and slab 2's inputs (p=3, hanging nodes).

    With `refine`, slab 2 steps onto a refinement of slab 1's mesh, so the
    two slabs' finest overlays differ.  Returns (problem, slab 1's
    workspace, whose `end` is slab 2's start, U0, slab 2's space, slab
    2's state).
    """
    prob = builtin("example1")
    mesh = Mesh.uniform(prob.rect, 2).refine([(2, 1, 1)])
    sp = fe.Space(mesh, 3)
    k = 0.01
    U0 = sc.project_initial(prob, sp)
    U1, hat1 = sc.imex_step(prob, U0, sp, k, 0.0)
    A0 = sc.InitialLaplacian(prob.a, prob.lap_u0)
    ws1 = est.SlabWorkspace(prob, est.SlabEnd(U0, A0), sp, 0.0)
    ws1.set_state(U1, hat1, k)
    ws1.eta_time()
    ws1.eta_space_map()
    sp2 = fe.Space(mesh.refine([(3, 2, 2)]), 3) if refine else sp
    U2, hat2 = sc.imex_step(prob, U1, sp2, k, k)
    return prob, ws1, U0, sp2, (U2, hat2, k)


def _cold(end):
    """A start with the field and closure of `end` and nothing evaluated."""
    return est.SlabEnd(end.u, end.A)


def _assert_same_start(warm, cold):
    assert np.array_equal(warm.start.values(warm.vee),
                          cold.start.values(cold.vee))
    assert np.array_equal(warm.start.laplacian(warm.vee),
                          cold.start.laplacian(cold.vee))
    assert np.array_equal(warm.A_prev_values(), cold.A_prev_values())


def test_workspace_from_its_predecessor_equals_one_built_cold():
    prob, ws1, U0, sp2, state = _second_slab(refine=False)
    k = state[2]
    end1 = ws1.end
    U1 = end1.u
    # what slab 1's estimators evaluated of its end
    held = (end1.values(ws1.vee), end1.laplacian(ws1.vee),
            ws1.A_next_values())
    warm = est.SlabWorkspace(prob, end1, sp2, k)
    cold = est.SlabWorkspace(prob, _cold(end1), sp2, k)
    assert warm.vee is ws1.vee
    assert warm.start.face_derivs is ws1.end.face_derivs
    assert warm.start.values(warm.vee) is held[0]
    assert warm.start.laplacian(warm.vee) is held[1]
    assert warm.A_prev_values() is held[2]
    _assert_same_start(warm, cold)
    # a closure other than slab 1's state: its values are evaluated
    other = sc.DiscreteLaplacian(prob.f, 0.0, 2 * k, U0, U1, U1)
    warm = est.SlabWorkspace(prob, est.SlabEnd(U1, other), sp2, k)
    assert warm.A_prev_values() is not held[2]
    _assert_same_start(warm, est.SlabWorkspace(prob, est.SlabEnd(U1, other),
                                               sp2, k))
    # the time nodes eta_time records
    warm = est.SlabWorkspace(prob, end1, sp2, k)
    for ws in (warm, cold):
        ws.set_state(*state)
        ws.eta_time()
    assert warm.time_nodes == cold.time_nodes


def test_time_nodes_hold_the_rule_and_the_sampled_norms():
    prob, ws1, _, sp2, state = _second_slab(refine=True)
    k = state[2]
    ws = est.SlabWorkspace(prob, ws1.end, sp2, k, q=4)
    ws.set_state(*state)
    assert ws.time_nodes is None
    ws.eta_time()
    nodes = ws.time_nodes
    assert nodes.k == k
    assert (nodes.nodes, nodes.wts) == est._time_rule(k, k, 4)
    # max|(1 - l) U_prev + l U_next| on the overlay's sample grid, from
    # the fields themselves; U_prev lives on a coarser mesh
    assert ws.vee is not ws.space_prev.mesh
    U_prev, U_next = (fe.grid_values(u, ws.vee, "sample")
                      for u in (ws.start.u, state[0]))
    lbs = [(s - k) / k for s in nodes.nodes]
    assert nodes.norms == tuple(
        float(np.abs((1.0 - lb) * U_prev + lb * U_next).max()) for lb in lbs)
    ws.set_state(*state)
    assert ws.time_nodes is None


def test_psi_alpha_delta_and_r_read_the_time_nodes():
    prob, ws1, _, sp2, state = _second_slab(refine=False)
    ws = est.SlabWorkspace(prob, ws1.end, sp2, state[2])
    ws.set_state(*state)
    ws.eta_time()
    nodes = ws.time_nodes
    scaled = nodes._replace(norms=tuple(1.5 * n for n in nodes.norms))
    generic = est.LipschitzModulus(lambda a, b: a + b + 1.0)
    led = _Led(eta_I=0.1)
    for modulus in (prob.modulus, generic):
        out = []
        for tn in (nodes, scaled):
            psi = est.psi_update(led, 1, 0.0, 0.2, 0.0, modulus, tn)
            delta = est.fixed_point_delta(psi, 0.2, tn, modulus)
            out.append((psi, dr.alpha_value(modulus, tn, 0.2, 1.0), delta,
                        est.gronwall_factor(delta, psi, 0.2, tn, modulus)))
        for before, after in zip(*out):
            assert after > before


def test_workspace_after_a_mesh_change_evaluates_its_start_field():
    prob, ws1, _, sp2, _ = _second_slab(refine=True)
    k = 0.01
    end1 = ws1.end
    held = (end1.values(ws1.vee), end1.laplacian(ws1.vee),
            ws1.A_next_values())
    derivs = end1.normal_derivs(ws1.mesh_next)
    warm = est.SlabWorkspace(prob, end1, sp2, k)
    assert warm.vee is not ws1.vee
    assert warm.start.values(warm.vee) is not held[0]
    assert warm.start.laplacian(warm.vee) is not held[1]
    assert warm.A_prev_values() is not held[2]
    _assert_same_start(warm, est.SlabWorkspace(prob, _cold(end1), sp2, k))
    # face normal derivatives are kept per mesh, across overlays
    assert end1.normal_derivs(ws1.mesh_next) is derivs


def test_workspace_rejects_a_predecessor_it_does_not_continue():
    # The hand-off is one SlabEnd: slab 1's closure cannot start a slab
    # from U0, only from the field it ends at.
    prob, ws1, U0, sp2, _ = _second_slab(refine=False)
    with pytest.raises(ValueError, match="end at its field"):
        est.SlabEnd(U0, ws1.end.A)
    assert est.SlabWorkspace(prob, ws1.end, sp2, 0.01).start is ws1.end


def test_reusing_the_previous_workspace_leaves_the_ledger_bitwise(
        monkeypatch):
    from semiheat import driver as dr
    from test_driver import assert_maps_equal, certified_maps

    def run():
        prob = builtin("example3")
        tol = dr.Tolerances(0.02, 0.02 / 2 ** 10, 0.01, 0.01 / 16)
        return dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3),
                               0.01, dr.DriverOptions(max_steps=6)).ledger

    init = est.SlabWorkspace.__init__
    reused = []

    def spy(self, problem, start, *args, **kwargs):
        init(self, problem, start, *args, **kwargs)
        # the start already holds arrays on this workspace's overlay
        held = self.start
        reused.append(held._vee is self.vee and "val" in held._grids)

    monkeypatch.setattr(est.SlabWorkspace, "__init__", spy)
    maps = certified_maps(monkeypatch)
    warm = run()
    warm_maps = maps[:]
    del maps[:]
    assert any(reused) and not all(reused)
    # every workspace from a start with nothing evaluated
    monkeypatch.setattr(est.SlabWorkspace, "__init__",
                        lambda self, problem, start, *a, **kw:
                        init(self, problem, _cold(start), *a, **kw))
    cold = run()
    for name in ("t", "k", "dofs", "linf_u", "eta_T", "xi", "xi_prime",
                 "psi", "delta", "r", "r_tilde", "eta_S_max", "bound"):
        assert getattr(warm, name) == getattr(cold, name), name
    assert len(warm_maps) == len(warm.m)
    assert_maps_equal(warm_maps, maps)


# -- time estimator --------------------------------------------------------------


def test_eta_time_zero_for_linear_forcing():
    # f spatially flat and linear in t, zero state, endpoint values equal
    # to f at the slab endpoints: the blend reproduces the linear function
    # and the residual vanishes identically
    from dataclasses import replace

    def lin_f(x, y, t, u):
        return (2.0 + 3.0 * t) + 0.0 * x

    t_prev, k = 0.1, 0.1
    prob = replace(builtin("heat_decay"), rect=UNIT, f=lin_f)
    sp = fe.Space(Mesh.uniform(UNIT, 1), 2)
    zero = fe.Field.zeros(sp)
    ws = est.SlabWorkspace(
        prob, est.SlabEnd(zero, lambda x, y: lin_f(x, y, t_prev, 0.0)), sp,
        t_prev)
    ws.set_state(zero, zero, k)
    ws.end = est.SlabEnd(zero, lambda x, y: lin_f(x, y, t_prev + k, 0.0))
    assert ws.eta_time() < 1e-14


def test_eta_time_matches_dense_1d_oracle():
    # spatially constant states: the residual is a scalar function of
    # time; compare 3-node Gauss against a dense trapezoid oracle
    prob = builtin("example1")
    from dataclasses import replace
    flat = replace(prob, rect=UNIT, u0=lambda x, y: 0.0 * x + 1.0,
                   lap_u0=lambda x, y: 0.0 * x)
    mesh = Mesh.uniform(UNIT, 1)
    sp = fe.Space(mesh, 1)
    # growth kept small enough that the residual never changes sign, so
    # both the Gauss rule and the trapezoid oracle integrate |R| exactly
    c1, c2 = 1.0, 1.1
    k = 0.2
    U_prev = fe.Field(sp, np.full(sp.n_global, c1))
    U_next = fe.Field(sp, np.full(sp.n_global, c2))
    A_prev = sc.InitialLaplacian(1.0, flat.lap_u0)  # zero
    ws = est.SlabWorkspace(flat, est.SlabEnd(U_prev, A_prev), sp, 0.0)
    ws.set_state(U_next, U_prev, k)
    eta = ws.eta_time()

    a_next = c1 * c1 - (c2 - c1) / k
    dudt = (c2 - c1) / k

    def residual(s):
        lb = s / k
        la = 1.0 - lb
        u = la * c1 + lb * c2
        return abs(u * u - lb * a_next - dudt)

    ss = np.linspace(0.0, k, 10001)
    oracle = np.trapezoid([residual(s) for s in ss], ss)
    assert eta == pytest.approx(oracle, abs=1e-10)


def test_eta_time_second_order_in_k():
    prob = builtin("manufactured_linear")
    sp = fe.Space(Mesh.uniform(UNIT, 4), 3)
    U0 = sc.project_initial(prob, sp)
    etas = []
    for k in (0.02, 0.01, 0.005):
        U1, hat = sc.imex_step(prob, U0, sp, k, 0.0)
        ws = est.SlabWorkspace(
            prob, est.SlabEnd(U0, sc.InitialLaplacian(prob.a, prob.lap_u0)),
            sp, 0.0)
        ws.set_state(U1, hat, k)
        etas.append(ws.eta_time())
    slopes = [np.log2(etas[i] / etas[i + 1]) for i in range(2)]
    assert all(1.8 <= s <= 2.2 for s in slopes)


# -- eta_initial ---------------------------------------------------------------


def test_eta_initial_near_zero_for_member_data():
    prob = builtin("heat_decay")
    from dataclasses import replace
    member = replace(prob,
                     u0=lambda x, y: x * (1 - x) * y * (1 - y),
                     lap_u0=lambda x, y: 2 * y * (y - 1) + 2 * x * (x - 1))
    sp = fe.Space(Mesh.uniform(UNIT, 3), 2)
    U0 = sc.project_initial(member, sp)
    led = est.EstimatorLedger()
    end = est.initial_end(member, U0)
    led.set_initial(U0, est.initial_space_estimator(member, end),
                    est.initial_error_map(member, end))
    eta_I = led.eta_I
    assert eta_I < 1e-7


def test_eta_initial_dominates_e0():
    prob = builtin("example1")
    sp = fe.Space(Mesh.uniform(prob.rect, 2), 1)
    U0 = sc.project_initial(prob, sp)
    led = est.EstimatorLedger()
    end = est.initial_end(prob, U0)
    led.set_initial(U0, est.initial_space_estimator(prob, end),
                    est.initial_error_map(prob, end))
    eta_I = led.eta_I
    e0 = est.initial_error_map(prob, end).max()
    assert eta_I >= e0
    # a 4x4 p=1 mesh cannot resolve the Gaussian: the estimator sees it
    assert eta_I > 1.0


# -- psi / delta / r --------------------------------------------------------------


def _time_nodes(ws):
    """The `TimeNodes` the workspace's time estimator records."""
    ws.eta_time()
    return ws.time_nodes


class _Led:
    def __init__(self, c_inf=1.0, eta_I=0.0, r=(), psi=()):
        self.c_inf = c_inf
        self.eta_I = eta_I
        self.r = list(r)
        self.psi = list(psi)


def test_psi_zero_modulus_telescopes():
    prob = builtin("heat_decay")
    nodes = _time_nodes(make_slab_workspace(prob)[-1])
    led = _Led(eta_I=0.25)
    psi1 = est.psi_update(led, 1, 0.1, 0.7, 0.05, prob.modulus, nodes)
    assert psi1 == 0.25 + 0.1 + 0.05
    led2 = _Led(eta_I=0.25, r=[1.0], psi=[psi1])
    psi2 = est.psi_update(led2, 2, 0.2, 0.7, 0.0, prob.modulus, nodes)
    assert psi2 == psi1 + 0.2


def test_psi_all_zero_inputs():
    prob = builtin("heat_decay")
    nodes = _time_nodes(make_slab_workspace(prob)[-1])
    led = _Led(eta_I=0.0)
    assert est.psi_update(led, 1, 0.0, 0.0, 0.0, prob.modulus, nodes) == 0.0


def test_psi_constant_modulus_closed_form():
    # L == c: psi_2 = e^{c k1} psi_1 + C xi c k2 + eta_T + C xi'
    prob = builtin("heat_decay")
    c = 0.8
    modulus = est.LipschitzModulus(lambda t, a, b: c, kind="generic")
    nodes = _time_nodes(make_slab_workspace(prob, k=0.01)[-1])
    k1 = k2 = 0.01
    led = _Led(eta_I=0.3)
    psi1 = est.psi_update(led, 1, 0.1, 0.5, 0.02, modulus, nodes)
    assert psi1 == pytest.approx(0.3 + 0.5 * c * k1 + 0.1 + 0.02, rel=1e-12)
    r1 = math.exp(c * k1)
    led2 = _Led(eta_I=0.3, r=[r1], psi=[psi1])
    psi2 = est.psi_update(led2, 2, 0.07, 0.4, 0.01, modulus, nodes)
    assert psi2 == pytest.approx(r1 * psi1 + 0.4 * c * k2 + 0.07 + 0.01,
                                 rel=1e-12)


def _const_nodes(k, value):
    """Time nodes of a slab of step k from 0 whose norm is `value` at
    every node."""
    return est.TimeNodes(k, *est._time_rule(0.0, k, 3), (value,) * 3)


def test_delta_zero_modulus_exact_one():
    zero = est.LipschitzModulus.zero()
    d = est.fixed_point_delta(0.5, 0.2, _const_nodes(0.1, 3.0), zero)
    assert d == 1.0


def test_delta_integral_one_half():
    # constant modulus with int L ds = 1/2 independent of delta: root = 2
    modulus = est.LipschitzModulus(lambda t, a, b: 5.0, kind="generic")
    d = est.fixed_point_delta(0.0, 0.0, _const_nodes(0.1, 0.0), modulus)
    assert d == pytest.approx(2.0, rel=1e-10)


def test_delta_degenerate_interval():
    modulus = est.LipschitzModulus.additive()
    assert est.fixed_point_delta(1.0, 1.0, _const_nodes(0.0, 5.0),
                                 modulus) == 1.0


def test_delta_scan_stops_at_the_first_sign_change():
    # int L = c k = 0.1: the root 1/0.9 lies in the scan's first bracket
    # [1, 2^0.25], so the scan evaluates the fixed-point function at 1 and
    # 2^0.25 only, then bisects; the whole grid to 1e8 has 107 points
    calls = []

    def constant(t, a, b):
        calls.append(t)
        return 1.0

    modulus = est.LipschitzModulus(constant, kind="generic")
    d = est.fixed_point_delta(0.0, 0.0, _const_nodes(0.1, 0.0), modulus)
    assert d == pytest.approx(1.0 / 0.9, rel=1e-10)
    q = 3
    bisections = math.ceil(math.log2((2.0 ** 0.25 - 1.0) / 1e-12))
    assert len(calls) <= q * (2 + bisections + 1)


def test_delta_additive_closed_form_and_scan_agree():
    rng = np.random.default_rng(9)
    generic_add = est.LipschitzModulus(lambda t, a, b: a + b, kind="generic")
    additive = est.LipschitzModulus.additive()
    found = 0
    for _ in range(200):
        psi = rng.uniform(0.0, 2.0)
        xi = rng.uniform(0.0, 1.0)
        k = rng.uniform(1e-4, 0.05)
        nval = rng.uniform(0.0, 8.0)
        d1 = est.fixed_point_delta(psi, xi, _const_nodes(k, nval), additive)
        d2 = est.fixed_point_delta(psi, xi, _const_nodes(k, nval), generic_add)
        assert (d1 is None) == (d2 is None)
        if d1 is not None:
            found += 1
            assert d1 == pytest.approx(d2, rel=1e-8, abs=1e-8)
    assert found > 100  # the sampling hits plenty of existing roots


def test_delta_smallest_root_property():
    rng = np.random.default_rng(10)
    additive = est.LipschitzModulus.additive()
    for _ in range(50):
        psi = rng.uniform(0.0, 2.0)
        xi = rng.uniform(0.0, 1.0)
        k = rng.uniform(1e-4, 0.05)
        nval = rng.uniform(0.0, 8.0)
        d = est.fixed_point_delta(psi, xi, _const_nodes(k, nval), additive)
        if d is None:
            continue

        def phi(delta):
            L = 2.0 * (delta * psi + nval + xi)
            return 1.0 + delta * (L * k - 1.0)

        assert abs(phi(d)) < 1e-8 * max(1.0, abs(d))
        for s in np.linspace(1.0, d, 25)[:-1]:
            assert phi(s) > -1e-10


def test_delta_nonexistence_for_large_k():
    additive = est.LipschitzModulus.additive()
    assert est.fixed_point_delta(1.0, 0.0, _const_nodes(0.5, 10.0),
                                 additive) is None


def test_gronwall_factor_cases():
    zero = est.LipschitzModulus.zero()
    assert est.gronwall_factor(1.0, 1.0, 1.0, _const_nodes(0.1, 1.0),
                               zero) == 1.0
    c = 2.0
    modulus = est.LipschitzModulus(lambda t, a, b: c, kind="generic")
    k = 0.3
    r = est.gronwall_factor(1.0, 0.0, 0.0, _const_nodes(k, 0.0), modulus)
    assert r == pytest.approx(math.exp(c * k), rel=1e-12)
    # monotone in psi for a monotone modulus
    additive = est.LipschitzModulus.additive()
    rs = [est.gronwall_factor(1.5, psi, 0.1, _const_nodes(0.05, 2.0),
                              additive) for psi in (0.5, 1.0, 2.0)]
    assert rs[0] < rs[1] < rs[2]


# -- ledger and total bound -------------------------------------------------------


def _ledger_with_steps(modulus_is_zero, steps, eta_I=0.0, e0=0.0):
    led = est.EstimatorLedger(c_inf=1.0, modulus_is_zero=modulus_is_zero)
    led.e0 = e0
    led.eta_I = eta_I
    led.log_eta_S0 = eta_I - e0  # c_inf = 1
    led.eta_S0_max = led.log_eta_S0
    t = 0.0
    for (k, eta_T, xi, xi_prime, psi, delta, r, etaS) in steps:
        t += k
        led.add_step(len(led.m) + 1, t, k, 10, 1.0, eta_T, xi, xi_prime,
                     psi, delta, r, np.array([etaS]), np.exp(-1.0))
    return led


def test_total_bound_zero_case():
    led = _ledger_with_steps(True, [(0.1, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0)])
    assert led.bound_through() == 0.0


def test_total_bound_zero_modulus_telescoping():
    led = _ledger_with_steps(
        True,
        [(0.1, 0.1, 0.0, 0.0, 0.1, 1.0, 1.0, 0.0),
         (0.1, 0.2, 0.0, 0.0, 0.3, 1.0, 1.0, 0.0)])
    assert led.bound_through() == pytest.approx(0.3, abs=1e-15)


def test_total_bound_dominates_psi():
    led = _ledger_with_steps(
        False,
        [(0.1, 0.1, 0.2, 0.0, 0.5, 1.2, 1.1, 0.3),
         (0.1, 0.2, 0.2, 0.1, 0.9, 1.3, 1.2, 0.4)])
    bound = led.bound_through()
    assert bound >= 1.2 * 0.9 >= 0.9


def test_total_bound_requires_delta():
    led = _ledger_with_steps(
        False, [(0.1, 0.1, 0.2, 0.0, 0.5, None, None, 0.3)])
    with pytest.raises(est.BoundUnavailableError):
        led.bound_through()


def test_r_tilde_accumulates_product():
    rs = [1.1, 1.25, 1.05]
    led = _ledger_with_steps(
        False,
        [(0.1, 0.1, 0.0, 0.0, 0.5, 1.2, r, 0.1) for r in rs])
    expect = np.cumprod(rs)
    assert np.allclose(led.r_tilde, expect, rtol=1e-12)


def test_ledger_csv_columns(tmp_path):
    led = _ledger_with_steps(
        True, [(0.1, 0.1, 0.0, 0.0, 0.1, 1.0, 1.0, 0.0)])
    path = tmp_path / "ledger.csv"
    led.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("m,t_m,k_m,dofs_m,linf_U_m,eta_T,xi,xi_prime,psi,"
                        "delta,r,r_tilde,bound")
    assert len(lines) == 2
    assert lines[1].startswith("1,")


def test_psi_monotone_accumulation_in_runs():
    # psi_m >= r_{m-1} psi_{m-1} and psi_m >= eta_T^m on a real run
    prob = builtin("example1")
    mesh = Mesh.uniform(prob.rect, 4)
    mesh = mesh.refine([k for i, k in enumerate(mesh.leaves)
                        if abs(mesh.x0[i] + 0.5 * mesh.hx[i]) < 2
                        and abs(mesh.y0[i] + 0.5 * mesh.hy[i]) < 2])
    sp = fe.Space(mesh, 3)
    U0 = sc.project_initial(prob, sp)
    led = est.EstimatorLedger(1.0, False)
    end0 = est.initial_end(prob, U0)
    eta0 = est.initial_space_estimator(prob, end0)
    led.set_initial(U0, eta0, est.initial_error_map(prob, end0))
    u = U0
    A_prev = sc.InitialLaplacian(prob.a, prob.lap_u0)
    prev_map = eta0
    t = 0.0
    k = 1e-3
    for m in range(1, 4):
        u_next, hat = sc.imex_step(prob, u, sp, k, t)
        ws = est.SlabWorkspace(prob, est.SlabEnd(u, A_prev), sp, t)
        ws.set_state(u_next, hat, k)
        eta_T = ws.eta_time()
        eta_S = ws.eta_space_map()
        _, xi_prime = ws.eta_dot_maps()
        xi = est.xi_value(prev_map, mesh.min_diameter(), eta_S,
                          mesh.min_diameter())
        psi = est.psi_update(led, m, eta_T, xi, xi_prime, prob.modulus,
                             ws.time_nodes)
        if m > 1:
            assert psi >= led.r[-1] * led.psi[-1]
        assert psi >= eta_T
        delta = est.fixed_point_delta(psi, xi, ws.time_nodes, prob.modulus)
        assert delta is not None and delta >= 1.0
        r = est.gronwall_factor(delta, psi, xi, ws.time_nodes, prob.modulus)
        assert r >= 1.0
        t += k
        led.add_step(m, t, k, sp.n_free, u_next.linf_norm(), eta_T, xi,
                     xi_prime, psi, delta, r, eta_S, mesh.min_diameter())
        u = u_next
        A_prev = ws.end.A
        prev_map = eta_S
