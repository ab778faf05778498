"""IMEX stepping, initial projection, discrete Laplacians, interpolant."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse import issparse
from scipy.sparse.linalg import spsolve

from semiheat.mesh import Mesh, Rectangle
from semiheat import fespace as fe
from semiheat import linalg
from semiheat import scheme as sc
from semiheat.linalg import (assemble_stiffness, factor_skeleton,
                             load_vector, solve_skeleton)
from semiheat.problems import builtin
from test_linalg import assembled

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)


def test_project_initial_zero_data():
    prob = builtin("heat_decay")
    from dataclasses import replace
    flat = replace(prob, u0=lambda x, y: 0.0 * x, lap_u0=lambda x, y: 0.0 * x)
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    U0 = sc.project_initial(flat, sp)
    assert np.abs(U0.coeffs).max() == 0.0


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
def test_project_initial_frees_its_stiffness_matrix(degree, monkeypatch):
    # the stiffness operator lives only for the projection: nothing
    # holds it once the projection returns, the space's condensation
    # holds no matrix of S's shape, and the result is bitwise the
    # skeleton solve
    prob = builtin("heat_decay")
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 1, 1), (2, 2, 1)])
    sp = fe.Space(mesh.refine([(3, 3, 3)]), degree)
    assert sp.is_slave.any()
    refs = []

    def keeping_a_ref(space, a):
        S = assemble_stiffness(space, a)
        refs.append(weakref.ref(S))
        return S

    monkeypatch.setattr(sc, "assemble_stiffness", keeping_a_ref)
    U0 = sc.project_initial(prob, sp)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
    S = assemble_stiffness(sp, 1.0)
    assert not [name for name, value
                in vars(sp._derived["condensation"]).items()
                if issparse(value) and value.shape == S.shape]
    Xq, Yq, _ = sp.quadrature_points()
    b = load_vector(sp, -np.asarray(prob.lap_u0(Xq, Yq), dtype=float))
    assert np.array_equal(U0.free_values,
                          solve_skeleton(factor_skeleton(sp), S, b))


@pytest.mark.parametrize("degree", [1, 4, 9])
def test_project_initial_factors_before_assembling_stiffness(degree,
                                                             monkeypatch):
    # the heap is trimmed on entry, inside the factor before its LU,
    # between the LU and the load vector, and after S; neither the load
    # vector nor S exists before the factor.  That U0 is bitwise the
    # solve with S assembled first is
    # test_project_initial_frees_its_stiffness_matrix's
    prob = builtin("heat_decay")
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 1, 1), (2, 2, 1)])
    sp = fe.Space(mesh.refine([(3, 3, 3)]), degree)
    events = []
    splu, assemble, load = linalg.splu, sc.assemble_stiffness, sc.load_vector

    def factoring(A, **kwargs):
        events.append("splu")
        return splu(A, **kwargs)

    def assembling(space, a):
        events.append("S")
        return assemble(space, a)

    def loading(space, values):
        events.append("b")
        return load(space, values)

    monkeypatch.setattr(linalg, "splu", factoring)
    monkeypatch.setattr(sc, "load_vector", loading)
    monkeypatch.setattr(sc, "assemble_stiffness", assembling)
    for module in (sc, linalg):
        monkeypatch.setattr(module, "trim_heap", lambda: events.append("trim"))
    sc.project_initial(prob, sp)
    assert events == ["trim", "trim", "splu", "trim", "b", "S", "trim"]


def test_a_projection_and_a_step_stay_below_one_assembled_stiffness():
    # tracemalloc's peak over project_initial and one imex_step on a
    # fresh p=9 hanging-node space (level 4 refined once in places),
    # its condensation built inside, stays below the bytes of the
    # assembled S, which neither builds
    prob = builtin("example1")
    mesh = Mesh.uniform(prob.rect, 4)
    mesh = mesh.refine(mesh.leaves[::7])
    S = assembled(fe.Space(mesh, 9), 0.0, 1.0)
    held = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
    del S
    sp = fe.Space(mesh, 9)
    tracemalloc.start()
    try:
        sc.imex_step(prob, sc.project_initial(prob, sp), sp, 0.01, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held


def test_project_initial_ritz_accuracy():
    # elliptic projection of sin sin converges at the optimal nodal rate
    prob = builtin("heat_decay")
    errs = []
    for level in (2, 3, 4):
        sp = fe.Space(Mesh.uniform(UNIT, level), 2)
        U0 = sc.project_initial(prob, sp)
        X, Y = sp.sample_points()
        err = np.abs(U0.sample_values("val") - prob.u0(X, Y)).max()
        errs.append(err)
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) > 2.3  # O(h^{p+1}) with p = 2


def test_project_initial_example1_peak():
    prob = builtin("example1")
    mesh = Mesh.uniform(prob.rect, 4)
    mesh = mesh.refine([k for i, k in enumerate(mesh.leaves)
                        if abs(mesh.x0[i] + 0.5 * mesh.hx[i]) < 2
                        and abs(mesh.y0[i] + 0.5 * mesh.hy[i]) < 2])
    sp = fe.Space(mesh, 4)
    U0 = sc.project_initial(prob, sp)
    assert U0.linf_norm() == pytest.approx(10.0, abs=0.2)


def test_imex_zero_data_stays_zero():
    prob = builtin("heat_decay")
    from dataclasses import replace
    flat = replace(prob, u0=lambda x, y: 0.0 * x, lap_u0=lambda x, y: 0.0 * x)
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    U0 = fe.Field.zeros(sp)
    U1, _ = sc.imex_step(flat, U0, sp, 0.01, 0.0)
    assert np.abs(U1.coeffs).max() < 1e-14


def test_imex_rejects_bad_step():
    prob = builtin("heat_decay")
    sp = fe.Space(Mesh.uniform(UNIT, 1), 1)
    with pytest.raises(ValueError):
        sc.imex_step(prob, fe.Field.zeros(sp), sp, 0.0, 0.0)


def test_imex_heat_decay_non_increasing_norms():
    # discrete smoothing for the pure heat equation across random data
    prob = builtin("heat_decay")
    sp = fe.Space(Mesh.uniform(UNIT, 3), 1)
    rng = np.random.default_rng(0)
    k = 0.01
    for trial in range(50):
        u = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
        norms = [u.linf_norm()]
        for _ in range(3):
            u, _ = sc.imex_step(prob, u, sp, k, 0.0)
            norms.append(u.linf_norm())
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:])), \
            "norm grew on trial %d: %r" % (trial, norms)


def test_imex_heat_decay_tracks_exact_solution():
    prob = builtin("heat_decay")
    sp = fe.Space(Mesh.uniform(UNIT, 4), 3)
    u = sc.project_initial(prob, sp)
    k = 1e-3
    for m in range(5):
        u, _ = sc.imex_step(prob, u, sp, k, m * k)
    exact = np.exp(-2 * np.pi ** 2 * 5 * k)
    assert u.linf_norm() == pytest.approx(exact, rel=2e-3)


def test_imex_example1_reaction_growth():
    # a single step from the projected Gaussian grows at the center
    prob = builtin("example1")
    mesh = Mesh.uniform(prob.rect, 4)
    mesh = mesh.refine([k for i, k in enumerate(mesh.leaves)
                        if abs(mesh.x0[i] + 0.5 * mesh.hx[i]) < 2
                        and abs(mesh.y0[i] + 0.5 * mesh.hy[i]) < 2])
    sp = fe.Space(mesh, 4)
    U0 = sc.project_initial(prob, sp)
    U1, _ = sc.imex_step(prob, U0, sp, 0.05375 / 2, 0.0)
    c0 = U0.eval(0.0, 0.0)
    c1 = U1.eval(0.0, 0.0)
    assert c1 > c0
    # sanity against the space-free reaction bound u' = u^2
    ode = c0 / (1.0 - 0.05375 / 2 * c0)
    assert c1 < ode * 1.05


def test_mesh_change_invariance():
    # identical meshes: transfer is the identity and the step matches
    prob = builtin("example1")
    mesh = Mesh.uniform(prob.rect, 3)
    sp = fe.Space(mesh, 2)
    U0 = sc.project_initial(prob, sp)
    U1a, hat = sc.imex_step(prob, U0, sp, 0.01, 0.0)
    assert hat is U0
    sp_twin = fe.Space(Mesh.uniform(prob.rect, 3), 2)
    U0_twin = fe.Field(sp_twin, U0.coeffs.copy())
    U1b, hat_b = sc.imex_step(prob, U0_twin, sp_twin, 0.01, 0.0)
    assert np.abs(U1a.coeffs - U1b.coeffs).max() < 1e-12


def test_discrete_laplacian_cases():
    prob = builtin("heat_decay")
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    # stationary field with zero reaction: A vanishes
    u = fe.Field.from_callable(sp, lambda x, y: x * (1 - x) * y * (1 - y))
    A = sc.DiscreteLaplacian(prob.f, 0.0, 0.1, u, u, u)
    X, Y = sp.sample_points()
    grids = [fe.grid_values(v, sp.mesh, "sample")
             for v in (A.u_prev, A.u_next, A.u_hat)]
    assert np.abs(A.values(X, Y, *grids)).max() < 1e-13
    pts = np.random.default_rng(1).random((20, 2))
    # slab zero: analytic Laplacian of the initial data
    A0 = sc.InitialLaplacian(1.0, prob.lap_u0)
    vals = A0(pts[:, 0], pts[:, 1])
    expect = 2 * np.pi ** 2 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    assert np.abs(vals - expect).max() < 1e-12


def test_reconstruction_identity():
    # (A_next, V) = a (grad U_next, grad V) for all V in the space
    prob = builtin("example1")
    mesh = Mesh.uniform(prob.rect, 3)
    sp = fe.Space(mesh, 3)
    U0 = sc.project_initial(prob, sp)
    k = 0.01
    U1, hat = sc.imex_step(prob, U0, sp, k, 0.0)
    A = sc.DiscreteLaplacian(prob.f, 0.0, k, U0, U1, hat)
    Xq, Yq, _ = sp.quadrature_points()
    grids = [fe.grid_values(v, mesh, "quad") for v in (U0, U1, hat)]
    b = load_vector(sp, A.values(Xq, Yq, *grids))
    S = assemble_stiffness(sp, prob.a)
    resid = np.abs(b - S @ U1.free_values).max()
    assert resid < 1e-8 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("moved", [False, True])
def test_imex_step_matches_a_direct_solve_of_the_assembled_system(moved):
    # example3's a = 0.001 on a non-square rectangle with hanging nodes
    from dataclasses import replace
    prob = replace(builtin("example3"), rect=Rectangle(-1.0, 2.0, 0.0, 0.5))
    mesh = Mesh.uniform(prob.rect, 2).refine([(2, 1, 1)])
    sp_prev = fe.Space(mesh, 3)
    sp = fe.Space(mesh.refine([(3, 2, 2)]), 3) if moved else sp_prev
    rng = np.random.default_rng(5)
    u_prev = fe.Field.from_free(sp_prev, rng.standard_normal(sp_prev.n_free))
    k, t = 0.01, 0.1
    u_next, u_hat = sc.imex_step(prob, u_prev, sp, k, t)
    M = assembled(sp, 1.0, 0.0)
    Xq, Yq, _ = sp.quadrature_points()
    upq = u_prev.eval(Xq.ravel(), Yq.ravel()).reshape(Xq.shape)
    b = M @ u_hat.free_values / k + load_vector(sp, prob.f(Xq, Yq, t, upq))
    x = spsolve((M / k + assembled(sp, 0.0, prob.a)).tocsc(), b)
    assert np.abs(u_next.free_values - x).max() <= 1e-8 * np.abs(x).max()


@pytest.mark.parametrize("a", [0.0, -0.001])
def test_imex_rejects_nonpositive_diffusion(a):
    from dataclasses import replace
    prob = replace(builtin("example3"), a=a)
    sp = fe.Space(Mesh.uniform(prob.rect, 2), 2)
    with pytest.raises(ValueError, match="diffusion coefficient"):
        sc.imex_step(prob, fe.Field.zeros(sp), sp, 0.01, 0.0)
