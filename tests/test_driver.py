"""Adaptive loop: indicators, tolerance management, stops, post-processing."""

import gc
from dataclasses import replace

import numpy as np
import pytest

from semiheat.mesh import Mesh
from semiheat import fespace as fe
from semiheat import scheme as sc
from semiheat import estimators as est
from semiheat import driver as dr
from semiheat.problems import builtin


def test_tolerances_validation():
    with pytest.raises(ValueError):
        dr.Tolerances(1.0, 0.5, 1.0, 0.0625)    # space ratio 2 < 8
    with pytest.raises(ValueError):
        dr.Tolerances(1.0, 0.0625, 1.0, 2.0)    # coarsening above refinement
    with pytest.raises(ValueError):
        dr.Tolerances(-1.0, 0.1, 1.0, 0.0625)
    tol = dr.Tolerances.from_plus(1.0, 0.25)
    assert tol.stol_minus == pytest.approx(1.0 / 16)
    assert tol.ttol_minus == pytest.approx(0.25 / 16)


def test_time_indicator():
    assert dr.time_indicator(0.3, 1.0) == 0.3
    assert dr.time_indicator(0.4, 4.0) == pytest.approx(0.1)
    vals = [dr.time_indicator(0.4, rt) for rt in (1.0, 2.0, 8.0)]
    assert vals[0] >= vals[1] >= vals[2]
    with pytest.raises(ValueError):
        dr.time_indicator(0.4, 0.5)


def test_space_indicator_zero_modulus_reduces_to_max():
    etaS = np.array([0.1, 0.5, 0.2])
    etadot = np.array([0.3, 0.1, 0.4])
    out = dr.space_indicator(etaS, etadot, 1.0, 1.0)
    assert np.array_equal(out, np.maximum(etaS, etadot))


def test_space_indicator_alpha_weighting():
    etaS = np.array([0.1, 0.5])
    etadot = np.array([0.0, 0.0])
    out = dr.space_indicator(etaS, etadot, 3.0, 2.0)
    assert np.array_equal(out, 3.0 * etaS)


def test_alpha_constant_modulus_closed_form():
    # L == c: the time integral is c*k, so alpha = max(1, c / r_tilde)
    prob = builtin("heat_decay")
    sp = fe.Space(Mesh.uniform(prob.rect, 3), 2)
    U0 = sc.project_initial(prob, sp)
    U1, hat = sc.imex_step(prob, U0, sp, 0.02, 0.0)
    ws = est.SlabWorkspace(prob, U0,
                           sc.InitialLaplacian(prob.a, prob.lap_u0), sp, 0.0)
    ws.set_state(U1, hat, 0.02)
    for c in (0.25, 1.0, 7.0):
        modulus = est.LipschitzModulus(lambda t, a, b, c=c: c, kind="generic")
        alpha = dr.alpha_value(modulus, ws, 0.3, 1.0, 0.02)
        assert alpha == pytest.approx(max(1.0, c), rel=1e-12)
    assert dr.alpha_value(prob.modulus, ws, 0.3, 1.0, 0.02) == 1.0


def test_first_space_indicator_includes_initial_error():
    e0 = np.array([2.0, 0.0])
    s0 = np.array([0.1, 0.1])
    s1 = np.array([0.2, 0.3])
    d1 = np.array([0.0, 1.5])
    out = dr.first_space_indicator(e0, s0, s1, d1, alpha=2.0)
    assert np.array_equal(out, np.array([2.0, 1.5]))


def test_extrapolate_blowup_exact_for_pole():
    tinf = 0.4375
    for t1, t2 in ((0.1, 0.2), (0.25, 0.3), (0.4, 0.43)):
        n1 = 1.0 / (tinf - t1)
        n2 = 1.0 / (tinf - t2)
        assert dr.extrapolate_blowup(t1, n1, t2, n2) == pytest.approx(
            tinf, abs=1e-12)


def test_extrapolate_blowup_table_values():
    est1 = dr.extrapolate_blowup(0.21571, 745.826, 0.21625, 1276.960)
    assert est1 == pytest.approx(0.21700, abs=5e-5)
    est2 = dr.extrapolate_blowup(0.16627, 3340.33, 0.16635, 6171.90)
    assert est2 == pytest.approx(0.16644, abs=5e-5)


def test_extrapolate_blowup_rejects_bad_input():
    with pytest.raises(dr.ExtrapolationError):
        dr.extrapolate_blowup(0.1, 5.0, 0.2, 5.0)
    with pytest.raises(dr.ExtrapolationError):
        dr.extrapolate_blowup(0.1, 5.0, 0.2, 4.0)
    with pytest.raises(dr.ExtrapolationError):
        dr.extrapolate_blowup(0.1, -1.0, 0.2, 4.0)


def test_weighted_average_dofs_formula():
    prob = builtin("heat_decay")
    sp = fe.Space(Mesh.uniform(prob.rect, 2), 1)
    z = fe.Field.zeros(sp)
    s1 = sc.make_slab(prob, 1, 0.0, 0.5, z, z, z, None)
    s1.overlay_dofs = 100
    traj = sc.Trajectory(z, [s1])
    assert dr.weighted_average_dofs(traj) == pytest.approx(100.0)
    s2 = sc.make_slab(prob, 2, 0.5, 0.5, z, z, z, None)
    s2.overlay_dofs = 200
    traj.slabs.append(s2)
    assert dr.weighted_average_dofs(traj) == pytest.approx(150.0)


def test_weighted_average_dofs_overlay_exceeds_endpoints():
    prob = builtin("heat_decay")
    mesh = Mesh.uniform(prob.rect, 2)
    spc = fe.Space(mesh, 2)
    fine = mesh.refine([mesh.leaves[0]])
    spf = fe.Space(fine, 2)
    other = mesh.refine([mesh.leaves[-1]])
    spo = fe.Space(other, 2)
    za = fe.Field.zeros(spf)
    zb = fe.Field.zeros(spo)
    slab = sc.make_slab(prob, 1, 0.0, 1.0, za, zb, fe.interpolate(za, spo),
                        None)
    slab.overlay_dofs = est.SlabWorkspace(prob, za, None, spo,
                                          0.0).overlay_free_dofs()
    traj = sc.Trajectory(za, [slab])
    lam = dr.weighted_average_dofs(traj)
    assert lam > max(spf.n_free, spo.n_free)


def test_heat_decay_run_reaches_final_time():
    prob = builtin("heat_decay")
    tol = dr.Tolerances.from_plus(stol_plus=1.0, ttol_plus=0.05)
    res = dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.02)
    assert res.stop_reason == "final_time"
    assert res.final_time == prob.T  # exact, last step clipped
    assert all(d == 1.0 for d in res.ledger.delta)
    assert all(r == 1.0 for r in res.ledger.r)
    assert res.ledger.bound_through() > 0
    # tolerances never scaled on the zero-modulus path
    assert res.final_tolerances == (tol.stol_plus, tol.stol_minus,
                                    tol.ttol_plus, tol.ttol_minus)


def test_example3_run_reaches_final_time():
    prob = builtin("example3")
    tol = dr.Tolerances(0.02, 0.02 / 2 ** 10, 0.01, 0.01 / 16)
    res = dr.run_adaptive(prob, tol, 3, Mesh.uniform(prob.rect, 4), 0.01,
                          dr.DriverOptions(max_steps=200))
    assert res.stop_reason == "final_time"
    assert res.final_time == pytest.approx(0.75)
    assert all(d is not None for d in res.ledger.delta)


def test_example1_blowup_stop():
    prob = builtin("example1")
    tol = dr.Tolerances(0.01, 0.01 / 2 ** 30, 0.25, 0.25 / 4096)
    res = dr.run_adaptive(prob, tol, 4, Mesh.uniform(prob.rect, 4), 0.05,
                          dr.DriverOptions(max_steps=100))
    assert res.stop_reason.startswith("delta_nonexistent")
    assert res.steps <= 8
    assert res.final_norm == pytest.approx(11.0, abs=1.0)
    assert res.final_time < 0.12


def test_adaptive_run_keeps_one_condensation():
    # the trajectory keeps every space the run used; only the last one
    # may keep its condensed M and S
    prob = builtin("example3")
    tol = dr.Tolerances(0.02, 0.02 / 2 ** 10, 0.01, 0.01 / 16)
    res = dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.01,
                          dr.DriverOptions(max_steps=4))
    assert len({id(s.space_next) for s in res.trajectory.slabs}) > 1
    gc.collect()
    condensed = [o for o in gc.get_objects()
                 if isinstance(o, fe.Space) and o._condensation is not None]
    assert len(condensed) == 1


def test_run_times_strictly_increase_and_r_tilde_is_product():
    prob = builtin("example1")
    tol = dr.Tolerances(0.01, 0.01 / 2 ** 30, 0.0625, 0.0625 / 4096)
    res = dr.run_adaptive(prob, tol, 3, Mesh.uniform(prob.rect, 4), 0.05,
                          dr.DriverOptions(max_steps=60))
    L = res.ledger
    assert all(a < b for a, b in zip(L.t, L.t[1:]))
    assert np.allclose(L.r_tilde, np.cumprod(L.r), rtol=1e-12)
    # tolerances scale once per entered iteration: on a blow-up stop the
    # last recorded delta has already been applied
    assert res.stop_reason.startswith("delta_nonexistent")
    prod = np.prod(L.delta)
    assert res.final_tolerances[2] == pytest.approx(tol.ttol_plus * prod,
                                                    rel=1e-12)


def test_tolerance_scaling_flag():
    prob = builtin("example1")
    tol = dr.Tolerances(0.01, 0.01 / 2 ** 30, 0.0625, 0.0625 / 4096)
    res = dr.run_adaptive(prob, tol, 3, Mesh.uniform(prob.rect, 4), 0.05,
                          dr.DriverOptions(max_steps=25,
                                           scale_tolerances=False))
    assert res.final_tolerances == (tol.stol_plus, tol.stol_minus,
                                    tol.ttol_plus, tol.ttol_minus)


def test_run_fixed_uniform_steps():
    prob = builtin("manufactured_linear")
    res = dr.run_fixed(prob, Mesh.uniform(prob.rect, 3), 2, k=0.01, T=0.05)
    assert res.stop_reason == "final_time"
    assert res.steps == 5
    assert res.final_time == pytest.approx(0.05)
    assert all(d == 1.0 for d in res.ledger.delta)
    assert all(k == pytest.approx(0.01) for k in res.ledger.k)


def test_run_fixed_clips_last_step():
    prob = builtin("heat_decay")
    res = dr.run_fixed(prob, Mesh.uniform(prob.rect, 2), 1, k=0.03, T=0.1)
    assert res.steps == 4
    assert res.final_time == 0.1
    assert res.ledger.k[-1] == pytest.approx(0.01)


def test_dumps_written(tmp_path):
    prob = builtin("heat_decay")
    tol = dr.Tolerances.from_plus(stol_plus=1.0, ttol_plus=0.05)
    opts = dr.DriverOptions(dump_every=2, out_dir=str(tmp_path))
    res = dr.run_adaptive(prob, tol, 1, Mesh.uniform(prob.rect, 2), 0.02,
                          opts)
    dumps = sorted(tmp_path.glob("step_*.vtk"))
    assert len(dumps) >= 1
    text = dumps[0].read_text()
    assert "u_center" in text and "u_maxabs" in text


@pytest.mark.parametrize("name", ["heat_decay", "example3"])
def test_idle_adaptive_run_matches_fixed_run(name):
    # controllers that never act leave run_adaptive on run_fixed's path
    prob = replace(builtin(name), T=0.05)
    mesh = Mesh.uniform(prob.rect, 3)
    fixed = dr.run_fixed(prob, mesh, 2, 0.01, T=0.05).ledger
    idle = dr.run_adaptive(
        prob, dr.Tolerances(1e300, 1e-300, 1e300, 1e-300), 2, mesh, 0.01,
        dr.DriverOptions(scale_tolerances=False)).ledger
    n = len(idle.m)
    assert n == (len(fixed.m) if prob.modulus.is_zero else 2)
    assert (idle.e0, idle.eta_I) == (fixed.e0, fixed.eta_I)
    for col in ("m", "t", "k", "dofs", "linf_u", "eta_T", "xi", "xi_prime",
                "psi", "delta", "r", "r_tilde", "log_eta_S", "hmin", "bound"):
        assert getattr(idle, col) == getattr(fixed, col)[:n], col
    for col in ("eta_S_maps", "eta_dot_maps"):
        for a, b in zip(getattr(idle, col), getattr(fixed, col)[:n]):
            assert np.array_equal(a, b), col


def _first_interval_halving_run(k1):
    # stol_plus far above and stol_minus far below any space indicator:
    # the first interval keeps its mesh and only halves k
    prob = replace(builtin("heat_decay"), T=0.05)
    return dr.run_adaptive(prob, dr.Tolerances(1e3, 1e-12, 0.01, 0.01 / 16),
                           2, Mesh.uniform(prob.rect, 3), k1)


def test_first_interval_projects_once_per_mesh(monkeypatch):
    projected, first_solves = [], []
    project, step = sc.project_initial, sc.imex_step

    def counting_project(problem, space):
        projected.append(space.mesh.leafset)
        return project(problem, space)

    def counting_step(problem, u, space, k, t):
        if t == 0.0:
            first_solves.append(k)
        return step(problem, u, space, k, t)

    monkeypatch.setattr(sc, "project_initial", counting_project)
    monkeypatch.setattr(sc, "imex_step", counting_step)
    res = _first_interval_halving_run(0.05)
    assert res.ledger.k[0] < 0.05 / 4       # at least three passes
    assert len(first_solves) >= 4
    assert len(projected) == len(set(projected)) == 1


def test_first_interval_halving_matches_run_from_halved_k1(tmp_path):
    halved = _first_interval_halving_run(0.05)
    direct = _first_interval_halving_run(halved.ledger.k[0])
    assert halved.ledger.k[0] < 0.05
    halved.ledger.to_csv(str(tmp_path / "halved.csv"))
    direct.ledger.to_csv(str(tmp_path / "direct.csv"))
    assert (tmp_path / "halved.csv").read_bytes() \
        == (tmp_path / "direct.csv").read_bytes()
    assert (halved.ledger.e0, halved.ledger.eta_I) \
        == (direct.ledger.e0, direct.ledger.eta_I)
    for a, b in zip(halved.ledger.eta_S_maps, direct.ledger.eta_S_maps):
        assert np.array_equal(a, b)
