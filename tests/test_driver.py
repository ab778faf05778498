"""Adaptive loop: indicators, tolerance management, stops, post-processing."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from semiheat.mesh import Mesh
from semiheat import cli
from semiheat import fespace as fe
from semiheat import linalg
from semiheat import scheme as sc
from semiheat import estimators as est
from semiheat import driver as dr
from semiheat.problems import builtin
from test_cli import _tiny_sweep_cfg
from test_linalg import sparse_products


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


@pytest.fixture
def no_projection(monkeypatch):
    def fail(problem, space):
        raise AssertionError("U0 projected before the inputs were checked")

    monkeypatch.setattr(sc, "project_initial", fail)


def test_nan_tolerance_is_rejected():
    with pytest.raises(ValueError):
        dr.Tolerances(float("nan"), 1e-3, 0.1, 1e-3)


def test_nan_first_step_is_rejected_before_projecting(no_projection):
    prob = builtin("heat_decay")
    with pytest.raises(ValueError):
        dr.run_adaptive(prob, dr.Tolerances.from_plus(1.0, 0.05), 1,
                        Mesh.uniform(prob.rect, 2), float("nan"))


def test_nan_fixed_step_is_rejected_before_projecting(no_projection):
    prob = builtin("heat_decay")
    with pytest.raises(ValueError):
        dr.run_fixed(prob, Mesh.uniform(prob.rect, 2), 1, k=float("nan"))


def test_negative_final_time_is_rejected_before_projecting(no_projection):
    prob = builtin("heat_decay")
    with pytest.raises(ValueError):
        dr.run_fixed(prob, Mesh.uniform(prob.rect, 2), 1, k=0.01, T=-1.0)


def test_infinite_tolerance_is_rejected():
    with pytest.raises(ValueError, match="ttol_plus must be finite"):
        dr.Tolerances(1.0, 1e-3, float("inf"), 1e-3)


@pytest.mark.parametrize("name, value", [
    ("c_inf", -1.0), ("c_inf", 0.0), ("c_inf", float("nan")),
    ("c_inf", float("inf")), ("time_quadrature", 0), ("max_steps", 0),
    ("dump_every", -1)])
def test_driver_options_reject_bad_values(name, value):
    # rejected at construction, before a run records a bound from them
    with pytest.raises(ValueError, match="^%s must be " % name):
        dr.DriverOptions(**{name: value})


def test_infinite_first_step_is_rejected_before_projecting(no_projection):
    prob = builtin("heat_decay")
    with pytest.raises(ValueError, match="k1 must be finite"):
        dr.run_adaptive(prob, dr.Tolerances.from_plus(1.0, 0.05), 1,
                        Mesh.uniform(prob.rect, 2), float("inf"))


def test_infinite_fixed_step_is_rejected_before_projecting(no_projection):
    prob = builtin("heat_decay")
    with pytest.raises(ValueError, match="k must be finite"):
        dr.run_fixed(prob, Mesh.uniform(prob.rect, 2), 1, k=float("inf"))


def test_infinite_final_time_is_rejected_before_projecting(no_projection):
    prob = builtin("heat_decay")
    with pytest.raises(ValueError, match="finite positive final time"):
        dr.run_fixed(prob, Mesh.uniform(prob.rect, 2), 1, k=0.01,
                     T=float("inf"))


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
    ws = est.SlabWorkspace(
        prob, est.SlabEnd(U0, sc.InitialLaplacian(prob.a, prob.lap_u0)), sp,
        0.0)
    ws.set_state(U1, hat, 0.02)
    ws.eta_time()
    for c in (0.25, 1.0, 7.0):
        modulus = est.LipschitzModulus(lambda t, a, b, c=c: c, kind="generic")
        alpha = dr.alpha_value(modulus, ws.time_nodes, 0.3, 1.0)
        assert alpha == pytest.approx(max(1.0, c), rel=1e-12)
    assert dr.alpha_value(prob.modulus, ws.time_nodes, 0.3, 1.0) == 1.0


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
    s1 = sc.TimeSlab(1, 0.0, 0.5, 0.5, sp, sp, z, 100)
    traj = sc.Trajectory(z, [s1])
    assert dr.weighted_average_dofs(traj) == pytest.approx(100.0)
    traj.slabs.append(sc.TimeSlab(2, 0.5, 1.0, 0.5, sp, sp, z, 200))
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
    dofs = est.SlabWorkspace(prob, est.SlabEnd(za, None), spo,
                             0.0).overlay_free_dofs()
    traj = sc.Trajectory(za, [sc.TimeSlab(1, 0.0, 1.0, 1.0, spf, spo, zb,
                                          dofs)])
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


def _adaptive_run(tmp_path):
    prob = builtin("example3")
    tol = dr.Tolerances(0.02, 0.02 / 2 ** 10, 0.01, 0.01 / 16)
    res = dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.01,
                          dr.DriverOptions(max_steps=4))
    assert len({id(s.space_next) for s in res.trajectory.slabs}) > 1
    return [res]


def _fixed_run(tmp_path):
    prob = builtin("example3")
    return [dr.run_fixed(prob, Mesh.uniform(prob.rect, 3), 2, 0.01, T=0.03)]


def _sweep_rows(tmp_path):
    return [row["result"] for row in cli.run_sweep(_tiny_sweep_cfg(tmp_path))]


@pytest.mark.parametrize("run", [_adaptive_run, _fixed_run, _sweep_rows],
                         ids=["adaptive", "fixed", "sweep"])
def test_a_run_assembles_only_skeleton_matrices(run, tmp_path):
    # no global matrix on the run path: every product of two sparse
    # matrices forms the skeleton matrix of a projection's factor
    with sparse_products() as products:
        run(tmp_path)
    assert products \
        and {caller for caller, _, _ in products} == {"factor_skeleton"}


@pytest.mark.parametrize("run", [_adaptive_run, _fixed_run, _sweep_rows],
                         ids=["adaptive", "fixed", "sweep"])
def test_a_returned_run_keeps_no_derived_data(run, tmp_path):
    # the trajectory keeps every space the run used, and no space keeps
    # what it derived (no condensation: P^T, G, G^T and the step
    # diagonals; no bases or grids), nor any step closure
    results = run(tmp_path)
    assert all(res.steps > 0 for res in results)
    gc.collect()
    objects = gc.get_objects()
    assert not [o for o in objects if isinstance(o, fe.Space) and o._derived]
    assert not [o for o in objects if isinstance(o, sc.DiscreteLaplacian)]


def test_a_run_keeps_derived_data_only_on_its_working_set(monkeypatch):
    # A run whose mesh stays, refines, coarsens, and does both in one
    # slab.  After each certify only the next slab's working set (the
    # spaces of its start, the start's mesh) holds derived data, a face
    # set or transfers; no face set or transfer is built twice; and the
    # fields a run has left read the values they read when certified.
    from semiheat import mesh as mesh_module
    prob = builtin("example3")
    before = weakref.WeakSet(o for o in gc.get_objects()
                             if isinstance(o, (fe.Space, Mesh)))
    faces, pairs, read, kinds, working = [], [], [], [], []

    # builds are recorded by weak reference, so that no mesh outlives
    # the run's own references
    class CountedFaceSet(mesh_module.FaceSet):
        def __init__(self, mesh):
            assert not any(m() is mesh for m in faces)
            faces.append(weakref.ref(mesh))
            super().__init__(mesh)

    build_transfer = fe._build_transfer

    def counted_transfer(mesh, src_mesh):
        assert not any(m() is mesh and s() is src_mesh for m, s in pairs)
        pairs.append((weakref.ref(mesh), weakref.ref(src_mesh)))
        return build_transfer(mesh, src_mesh)

    certify = dr._Slab.certify

    def checked(slab, *args, **kwargs):
        ws = slab.ws
        u = ws.end.u
        read.append((u, u.sample_values("val").tobytes()))
        vee = ws.vee
        kinds.append("same" if ws.mesh_prev is ws.mesh_next else
                     "refine" if vee is ws.mesh_next else
                     "coarsen" if vee is ws.mesh_prev else "both")
        following = certify(slab, *args, **kwargs)
        start = following.start
        spaces, mesh = start.spaces(), start.u.space.mesh
        working.append(spaces)
        gc.collect()
        for o in gc.get_objects():
            if isinstance(o, fe.Space) and o not in before \
                    and o not in spaces:
                assert o._derived == {}
            if isinstance(o, Mesh) and o not in before and o is not mesh:
                assert o._faces is None and len(o._transfers) == 0
        return following

    monkeypatch.setattr(mesh_module, "FaceSet", CountedFaceSet)
    monkeypatch.setattr(fe, "_build_transfer", counted_transfer)
    monkeypatch.setattr(dr._Slab, "certify", checked)
    tol = dr.Tolerances(0.05, 0.05 / 8, 0.01, 0.01 / 16)
    res = dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.01,
                          dr.DriverOptions(max_steps=8))
    assert {"same", "refine", "coarsen", "both"} <= set(kinds)
    assert len(read) == res.steps
    assert faces and pairs
    left = [u for u, _ in read if u.space not in working[-1]]
    assert left and all(u.space._derived == {} for u in left)
    for u, values in read:
        assert u.sample_values("val").tobytes() == values


def test_a_certified_end_keeps_nothing_evaluated_on_released_meshes(
        monkeypatch):
    # A coarsening slab's overlay is released at certify; the end that
    # starts the next slab drops its grids there and its normal
    # derivatives on that overlay's face set.
    prob = builtin("example3")
    released, dropped = [], []
    release = Mesh.release

    def recording(mesh):
        released.append(weakref.ref(mesh))
        release(mesh)

    def gone(mesh):
        return any(ref() is mesh for ref in released)

    certify = dr._Slab.certify

    def checked(slab, *args, **kwargs):
        end = slab.ws.end
        vee = end._vee
        following = certify(slab, *args, **kwargs)
        assert following.start is end
        if vee is not None and gone(vee):
            dropped.append(slab.m)
        assert end._vee is None or not gone(end._vee)
        assert not any(gone(mesh) for mesh in end.face_derivs)
        return following

    monkeypatch.setattr(Mesh, "release", recording)
    monkeypatch.setattr(dr._Slab, "certify", checked)
    tol = dr.Tolerances(0.05, 0.05 / 8, 0.01, 0.01 / 16)
    res = dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.01,
                          dr.DriverOptions(max_steps=8))
    assert res.steps == 8
    assert dropped          # some end had evaluated on a released overlay


def test_kept_face_sets_group_nothing_on_left_meshes(monkeypatch):
    # After each certify no face set a mesh keeps holds a face-class
    # grouping (fespace._face_classes) keyed on a mesh that Mesh.release
    # was called on (one keyed on a freed mesh goes with it): the end
    # mesh's face set, which the next slab reads, drops those its slab
    # grouped on the meshes it left.
    prob = builtin("example3")
    released, stale = [], []
    release = Mesh.release

    def recording(mesh):
        released.append(weakref.ref(mesh))
        release(mesh)

    def left(mesh):
        return any(r() is mesh for r in released)

    certify = dr._Slab.certify

    def checked(slab, *args, **kwargs):
        following = certify(slab, *args, **kwargs)
        gc.collect()
        stale.extend((slab.m, key) for o in gc.get_objects()
                     if isinstance(o, Mesh) and o._faces is not None
                     for key in o._faces._classes if left(key))
        return following

    monkeypatch.setattr(Mesh, "release", recording)
    monkeypatch.setattr(dr._Slab, "certify", checked)
    tol = dr.Tolerances(0.05, 0.05 / 8, 0.01, 0.01 / 16)
    res = dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.01,
                          dr.DriverOptions(max_steps=8))
    assert res.steps == 8
    assert released
    assert stale == []


def _condensed_spaces():
    """The live spaces that hold a condensation."""
    gc.collect()
    return {o for o in gc.get_objects() if isinstance(o, fe.Space)
            and o._derived.get("condensation") is not None}


def test_a_sweep_row_leaving_a_cached_start_keeps_one_condensation(
        monkeypatch):
    # Two rows of the example1 preset share one FirstIntervalCache, as a
    # sweep's rows do.  Row 2's first interval steps on row 1's cached
    # start and then leaves its mesh; once u0 is projected on the next
    # mesh, at most one space holds a condensation.
    prob = builtin("example1")
    cache = dr.FirstIntervalCache()

    def run(ttol):
        tol = dr.Tolerances(0.01, 0.01 / 2 ** 30, ttol, ttol / 4096)
        return dr.run_adaptive(prob, tol, 9, Mesh.uniform(prob.rect, 4),
                               0.07, dr.DriverOptions(max_steps=1), cache)

    first = run(0.25)       # kept alive, as a sweep keeps its rows' results
    cached = {start.end.u.space for start in cache.starts.values()}
    events = []
    project, solve = sc.project_initial, dr._Slab.solve

    def projecting(problem, space):
        u0 = project(problem, space)
        events.append(len(_condensed_spaces()))
        return u0

    def solving(slab, space, k):
        events.append("cached" if space in cached else "solve")
        return solve(slab, space, k)

    monkeypatch.setattr(sc, "project_initial", projecting)
    monkeypatch.setattr(dr._Slab, "solve", solving)
    run(0.0625)
    assert first.steps == 1
    after = events[events.index("cached") + 1:]
    assert after and isinstance(after[0], int)
    assert all(n <= 1 for n in events if isinstance(n, int))


def test_a_run_sharing_its_start_keeps_a_condensation_only_there():
    # a run whose mesh moves after the first interval returns with its
    # start in the cache; its last space, which no later run can step
    # on, is released
    prob = builtin("example3")
    cache = dr.FirstIntervalCache()
    tol = dr.Tolerances(0.05, 0.05 / 8, 0.01, 0.01 / 16)
    res = dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.01,
                          dr.DriverOptions(max_steps=8), cache)
    (start,) = cache.starts.values()
    assert res.trajectory.slabs[-1].space_next is not start.end.u.space
    assert _condensed_spaces() <= {start.end.u.space}


def test_first_interval_frees_a_pass_before_projecting_the_next(
        monkeypatch):
    # a pass on a new mesh projects u0 again; by then no earlier pass's
    # space (nor its slab, start or workspace) is alive
    prob = builtin("example3")
    projected, alive = [], []
    project = sc.project_initial

    def watching(problem, space):
        alive.append([ref() is not None for ref in projected])
        projected.append(weakref.ref(space))
        return project(problem, space)

    monkeypatch.setattr(sc, "project_initial", watching)
    tol = dr.Tolerances(0.02, 0.02 / 2 ** 10, 0.25, 0.25 / 16)
    dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.05,
                    dr.DriverOptions(max_steps=1))
    assert len(projected) >= 3
    assert alive == [[False] * i for i in range(len(projected))]


def test_heap_trims_leave_the_ledger_unchanged(monkeypatch, tmp_path):
    # every projection of the first interval's passes trims the heap
    # four times, once inside the factor, and a run whose trims do
    # nothing writes the same ledger
    prob = builtin("example3")
    tol = dr.Tolerances(0.02, 0.02 / 2 ** 10, 0.25, 0.25 / 16)
    project, trim = sc.project_initial, linalg.trim_heap
    events = []

    def run(name):
        res = dr.run_adaptive(prob, tol, 2, Mesh.uniform(prob.rect, 3), 0.05,
                              dr.DriverOptions(max_steps=3))
        res.ledger.to_csv(str(tmp_path / name))
        return (tmp_path / name).read_bytes()

    def projecting(problem, space):
        events.append("project")
        return project(problem, space)

    def trimming():
        events.append("trim")
        trim()

    monkeypatch.setattr(sc, "project_initial", projecting)
    for module in (sc, linalg):
        monkeypatch.setattr(module, "trim_heap", trimming)
    trimmed = run("trimmed.csv")
    assert events.count("project") >= 3
    assert events == ["project", "trim", "trim", "trim", "trim"] \
        * events.count("project")
    for module in (sc, linalg):
        monkeypatch.setattr(module, "trim_heap", lambda: None)
    assert run("untrimmed.csv") == trimmed


def test_a_slab_frees_the_workspace_of_another_space_before_stepping(
        monkeypatch):
    prob = builtin("example3")
    sp = fe.Space(Mesh.uniform(prob.rect, 3), 2)
    slab = dr._start(prob, sp).slab(prob, dr.DriverOptions())
    slab.solve(sp, 0.01)
    slab.space_estimates()
    old = weakref.ref(slab.ws)
    freed = []
    step = sc.imex_step

    def watching(*args):
        freed.append(old() is None)
        return step(*args)

    monkeypatch.setattr(sc, "imex_step", watching)
    slab.solve(sp, 0.005)          # the same space keeps its workspace
    other = fe.Space(sp.mesh.refine([sp.mesh.leaves[0]]), 2)
    slab.solve(other, 0.005)
    assert freed == [False, True]
    assert slab.ws.space_next is other


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


def _assert_slabs_are_the_ledgers_steps(res):
    slabs, L = res.trajectory.slabs, res.ledger
    assert [s.m for s in slabs] == L.m
    assert [s.t_next for s in slabs] == L.t
    assert [s.k for s in slabs] == L.k
    assert [s.t_prev for s in slabs] == [0.0] + L.t[:-1]


def test_run_fixed_clips_last_step():
    prob = builtin("heat_decay")
    res = dr.run_fixed(prob, Mesh.uniform(prob.rect, 2), 1, k=0.03, T=0.1)
    assert res.steps == 4
    assert res.final_time == 0.1
    assert res.ledger.k[-1] == pytest.approx(0.01)
    _assert_slabs_are_the_ledgers_steps(res)


def test_run_fixed_defaults_to_the_problems_final_time():
    prob = builtin("heat_decay")
    res = dr.run_fixed(prob, Mesh.uniform(prob.rect, 2), 1, k=0.03)
    assert res.final_time == prob.T
    with pytest.raises(ValueError):
        dr.run_fixed(builtin("example1"), Mesh.uniform(prob.rect, 2), 1,
                     k=0.03)


def test_run_fixed_stops_at_max_steps():
    prob = builtin("heat_decay")
    res = dr.run_fixed(prob, Mesh.uniform(prob.rect, 2), 1, k=0.01, T=0.05,
                       options=dr.DriverOptions(max_steps=2))
    assert (res.stop_reason, res.steps) == ("max_steps", 2)
    assert res.caps_hit == [("max_steps", 2)]


def test_rising_forcing_halves_the_step():
    # zero modulus: f does not read u, and its ramp in t makes eta_T grow
    base = builtin("heat_decay")
    prob = replace(base, T=0.2, exact=None,
                   f=lambda x, y, t, u: 0.0 * u + 1e4 * t ** 3
                   * np.sin(np.pi * x) * np.sin(np.pi * y))
    res = dr.run_adaptive(prob, dr.Tolerances.from_plus(1.0, 0.05), 1,
                          Mesh.uniform(prob.rect, 2), 0.02)
    ks = res.ledger.k
    assert any(b == 0.5 * a for a, b in zip(ks, ks[1:]))
    assert (res.stop_reason, res.final_time) == ("final_time", prob.T)


def _decay_run_towards(T):
    # the mesh stays; heat_decay's shrinking eta_T doubles k at t = 0.03
    prob = replace(builtin("heat_decay"), T=T)
    return dr.run_adaptive(prob, dr.Tolerances(1e3, 1e-12, 0.05, 0.05 / 16),
                           1, Mesh.uniform(prob.rect, 2), 0.005)


def test_a_doubling_that_would_pass_T_ends_exactly_at_T():
    res = _decay_run_towards(0.038)
    ks = res.ledger.k
    assert (res.stop_reason, res.final_time) == ("final_time", 0.038)
    assert res.ledger.t[-1] == 0.038
    assert ks[-2] < ks[-1] < 2.0 * ks[-2]
    _assert_slabs_are_the_ledgers_steps(res)


def test_step_adjust_cap_is_reported(monkeypatch):
    monkeypatch.setattr(dr, "STEP_ADJUST_CAP", 0)
    res = _decay_run_towards(0.038)
    assert ("step_adjust", 7) in res.caps_hit
    assert set(res.ledger.k[:-1]) == {0.005}
    assert res.final_time == 0.038


def test_first_step_longer_than_T_ends_exactly_at_T():
    prob = replace(builtin("heat_decay"), T=0.05)
    res = dr.run_adaptive(prob, dr.Tolerances(1e300, 1e-300, 1e300, 1e-300),
                          1, Mesh.uniform(prob.rect, 2), 0.1)
    assert res.steps == 1
    assert res.ledger.t == [0.05] and res.ledger.k == [0.05]
    assert res.final_time == 0.05


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


def certified_maps(monkeypatch):
    """A list that receives the per-cell (eta_S, eta_dot) maps of each
    step a run records, in order, from `_Slab.certify`."""
    maps, certify = [], dr._Slab.certify

    def recording(slab, *args, **kwargs):
        eta_S, dot_map, _, _ = slab.space_estimates()
        following = certify(slab, *args, **kwargs)
        if following is not None:
            maps.append((eta_S, dot_map))
        return following

    monkeypatch.setattr(dr._Slab, "certify", recording)
    return maps


def assert_maps_equal(maps, other):
    assert len(maps) == len(other)
    for (eta_S, dot_map), (eta_S_b, dot_map_b) in zip(maps, other):
        assert np.array_equal(eta_S, eta_S_b)
        assert np.array_equal(dot_map, dot_map_b)


@pytest.mark.parametrize("name", ["heat_decay", "example3"])
def test_idle_adaptive_run_matches_fixed_run(name, monkeypatch):
    # controllers that never act leave run_adaptive on run_fixed's path
    prob = replace(builtin(name), T=0.05)
    mesh = Mesh.uniform(prob.rect, 3)
    maps = certified_maps(monkeypatch)
    fixed = dr.run_fixed(prob, mesh, 2, 0.01, T=0.05).ledger
    fixed_maps = maps[:]
    del maps[:]
    idle = dr.run_adaptive(
        prob, dr.Tolerances(1e300, 1e-300, 1e300, 1e-300), 2, mesh, 0.01,
        dr.DriverOptions(scale_tolerances=False)).ledger
    n = len(idle.m)
    assert n == (len(fixed.m) if prob.modulus.is_zero else 2)
    assert (idle.e0, idle.eta_I) == (fixed.e0, fixed.eta_I)
    for col in ("m", "t", "k", "dofs", "linf_u", "eta_T", "xi", "xi_prime",
                "psi", "delta", "r", "r_tilde", "log_eta_S", "eta_S_max",
                "hmin", "bound"):
        assert getattr(idle, col) == getattr(fixed, col)[:n], col
    assert len(fixed_maps) == len(fixed.m)
    assert_maps_equal(maps, fixed_maps[:n])


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


def test_first_interval_halving_matches_run_from_halved_k1(tmp_path,
                                                          monkeypatch):
    maps = certified_maps(monkeypatch)
    halved = _first_interval_halving_run(0.05)
    halved_maps = maps[:]
    del maps[:]
    direct = _first_interval_halving_run(halved.ledger.k[0])
    assert halved.ledger.k[0] < 0.05
    halved.ledger.to_csv(str(tmp_path / "halved.csv"))
    direct.ledger.to_csv(str(tmp_path / "direct.csv"))
    assert (tmp_path / "halved.csv").read_bytes() \
        == (tmp_path / "direct.csv").read_bytes()
    assert (halved.ledger.e0, halved.ledger.eta_I) \
        == (direct.ledger.e0, direct.ledger.eta_I)
    assert len(maps) == len(direct.ledger.m)
    assert_maps_equal(halved_maps, maps)


def _blas_counts_in_steps(monkeypatch, counts_are, n):
    """Patches imex_step to record, per call, whether the pools run n threads."""
    seen, step = [], sc.imex_step

    def observing_step(*args):
        seen.append(counts_are(n))
        return step(*args)

    monkeypatch.setattr(sc, "imex_step", observing_step)
    return seen


def _small_adaptive_run():
    prob = replace(builtin("heat_decay"), T=0.05)
    return dr.run_adaptive(prob, dr.Tolerances.from_plus(1.0, 0.05), 2,
                           Mesh.uniform(prob.rect, 3), 0.02)


def _small_fixed_run():
    prob = builtin("manufactured_linear")
    return dr.run_fixed(prob, Mesh.uniform(prob.rect, 3), 2, k=0.01, T=0.03)


@pytest.mark.parametrize("run", [_small_adaptive_run, _small_fixed_run])
def test_runs_hold_one_blas_thread_and_restore_the_callers(monkeypatch,
                                                           blas_counts_are,
                                                           run):
    seen = _blas_counts_in_steps(monkeypatch, blas_counts_are, 1)
    assert run().stop_reason == "final_time"
    assert seen and all(seen)
    assert blas_counts_are(2)


def test_run_restores_the_callers_blas_threads_when_it_raises(
        monkeypatch, blas_counts_are):
    seen = []

    def failing_step(*args):
        seen.append(blas_counts_are(1))
        raise linalg.SolverFailure("CG", 1.0, 0.5)

    monkeypatch.setattr(sc, "imex_step", failing_step)
    with pytest.raises(linalg.SolverFailure):
        _small_adaptive_run()
    assert seen == [True]
    assert blas_counts_are(2)


def test_sweep_restores_the_callers_blas_threads(monkeypatch, tmp_path,
                                                 blas_counts_are):
    seen = _blas_counts_in_steps(monkeypatch, blas_counts_are, 1)
    rows = cli.run_sweep(_tiny_sweep_cfg(tmp_path))
    assert [r["stop_reason"] for r in rows] == ["final_time"] * 2
    assert seen and all(seen)
    assert blas_counts_are(2)


def test_run_without_blas_pools_sets_nothing(monkeypatch, blas_counts_are):
    monkeypatch.setattr(linalg, "_blas_pools", lambda: [])
    seen = _blas_counts_in_steps(monkeypatch, blas_counts_are, 2)
    assert _small_adaptive_run().stop_reason == "final_time"
    assert seen and all(seen)
