"""Assembly and SPD solves against quadrature and dense oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import coo_matrix, csr_matrix

from semiheat.mesh import Mesh, Rectangle
from semiheat import fespace as fe
from semiheat import linalg
from semiheat.linalg import (StepOperator, assemble_mass, assemble_stiffness,
                             load_vector, solve_direct, solve_spd,
                             SolverFailure)
from test_mesh_properties import OPS, PROPERTY, build

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)


def test_p1_single_cell_has_no_free_dofs():
    sp = fe.Space(Mesh.uniform(UNIT, 0), 1)
    assert sp.n_free == 0
    M = assemble_mass(sp)
    assert M.shape == (0, 0)


def test_mass_row_sums_match_quadrature():
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 0, 0)])
    sp = fe.Space(mesh, 3)
    M_full = assemble_mass(sp, condensed=False)
    ones = np.ones((len(mesh), len(sp.ref.quad1d) ** 2))
    b = load_vector(sp, ones, condensed=False)
    assert np.abs(np.asarray(M_full.sum(axis=1)).ravel() - b).max() < 1e-14


def test_mass_total_sum_is_domain_area():
    rect = Rectangle(-2.0, 1.0, 0.0, 2.0)
    sp = fe.Space(Mesh.uniform(rect, 2), 2)
    M_full = assemble_mass(sp, condensed=False)
    assert M_full.sum() == pytest.approx(rect.area, rel=1e-12)


def test_stiffness_linearity_in_a():
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    S1 = assemble_stiffness(sp, 1.0)
    S2 = assemble_stiffness(sp, 2.0)
    assert np.abs((2.0 * S1 - S2).toarray()).max() == 0.0


def test_stiffness_constant_in_kernel():
    # the unconstrained stiffness annihilates the constant nodal vector;
    # after Dirichlet condensation the lifted constant leaves only the
    # boundary coupling, checked against the quadrature oracle
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 3, 3)])
    sp = fe.Space(mesh, 2)
    S_full = assemble_stiffness(sp, 1.7, condensed=False)
    ones = np.ones(sp.n_global)
    assert np.abs(S_full @ ones).max() < 1e-12
    # condensed residual for the interior part of the constant equals the
    # negative boundary coupling: S_free x + (P^T S_full) e_bnd = 0
    x = ones[sp.free_gids]
    bnd = ones.copy()
    bnd[sp.free_gids] = 0.0
    bnd[sp.is_slave] = 0.0
    S = assemble_stiffness(sp, 1.7)
    resid = S @ x + sp.P.T @ (S_full @ sp.resolve(bnd))
    assert np.abs(resid).max() < 1e-10


def test_stiffness_rejects_nonpositive_a():
    sp = fe.Space(Mesh.uniform(UNIT, 1), 1)
    with pytest.raises(ValueError):
        assemble_stiffness(sp, 0.0)


def test_symmetry():
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 1, 1)])
    sp = fe.Space(mesh, 2)
    M = assemble_mass(sp)
    S = assemble_stiffness(sp, 0.7)
    for A in (M, S):
        scale = np.abs(A.toarray()).max()
        assert np.abs((A - A.T).toarray()).max() < 1e-12 * scale
        assert (A.diagonal() > 0).all()


def test_q1_five_point_stencil_hand_assembly():
    # Uniform 4x4 cells, p = 1: compare full rows against a hand-built
    # matrix from the classical bilinear local stiffness.
    n = 4
    mesh = Mesh.uniform(UNIT, 2)
    sp = fe.Space(mesh, 1)
    S = assemble_stiffness(sp, 1.0).toarray()
    local = np.array([[4, -1, -2, -1],
                      [-1, 4, -1, -2],
                      [-2, -1, 4, -1],
                      [-1, -2, -1, 4]]) / 6.0  # SW, SE, NE, NW corners
    nodes = {}
    for j in range(n + 1):
        for i in range(n + 1):
            nodes[(i, j)] = j * (n + 1) + i
    big = np.zeros((len(nodes), len(nodes)))
    for cy in range(n):
        for cx in range(n):
            corners = [(cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)]
            for a in range(4):
                for b in range(4):
                    big[nodes[corners[a]], nodes[corners[b]]] += local[a, b]
    interior = [nodes[(i, j)] for j in range(1, n) for i in range(1, n)]
    hand = big[np.ix_(interior, interior)]
    # match rows up to simultaneous permutation of the interior nodes
    gids = [g for g in range(sp.n_global)
            if not sp.is_boundary[g] and not sp.is_slave[g]]
    coords = sp.node_coords[gids]
    order = np.lexsort((coords[:, 0], coords[:, 1]))
    perm = [sp.free_index[gids[k]] for k in order]
    assert np.abs(S[np.ix_(perm, perm)] - hand).max() < 1e-12


def test_galerkin_consistency():
    rng = np.random.default_rng(0)
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 2, 2)])
    sp = fe.Space(mesh, 2)
    a = 1.3
    S = assemble_stiffness(sp, a)
    u = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    v = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    _, _, W = sp.quadrature_points()

    def grad(f, d):
        B = sp.tensor_basis("quad", *d)
        h = sp.mesh.hx if d == (1, 0) else sp.mesh.hy
        return (f.coeffs[sp.dofmap] @ B.T) / h[:, None]

    quad = a * ((grad(u, (1, 0)) * grad(v, (1, 0))
                 + grad(u, (0, 1)) * grad(v, (0, 1))) * W).sum()
    alg = float(v.free_values @ (S @ u.free_values))
    assert quad == pytest.approx(alg, abs=1e-10 * max(1, abs(alg)))


def test_solve_identity_and_zero_rhs():
    A = csr_matrix(np.eye(5))
    b = np.array([1.0, -2.0, 3.0, 0.0, 0.5])
    assert np.array_equal(solve_spd(A, b), b)
    assert np.array_equal(solve_spd(A, np.zeros(5)), np.zeros(5))


def test_solve_random_spd_against_dense_oracle():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((50, 50))
    A = B.T @ B + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = solve_spd(csr_matrix(A), b)
    assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-8


def test_solve_reports_residual_on_failure():
    # singular system with incompatible right-hand side: CG cannot reach
    # the tolerance and must report the stall
    A = csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverFailure) as exc:
        solve_spd(A, np.array([1.0, -1.0]))
    assert not (exc.value.residual <= exc.value.tol)


def _poisson_system(degree):
    # the initial projection's system on a mesh with hanging nodes
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 1, 1), (2, 2, 1)])
    mesh = mesh.refine([(3, 3, 3)])
    sp = fe.Space(mesh, degree)
    assert sp.is_slave.any()
    Xq, Yq, _ = sp.quadrature_points()
    rhs = np.sin(np.pi * Xq) * np.sin(2.0 * np.pi * Yq) + Xq * Yq
    return assemble_stiffness(sp, 1.0), load_vector(sp, rhs)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_direct_solve_meets_the_residual_bound_and_matches_cg(degree):
    S, b = _poisson_system(degree)
    x = solve_direct(S, b)
    assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)
    y = solve_spd(S, b)
    assert np.abs(x - y).max() <= 1e-8 * np.abs(y).max()


def test_direct_solve_rejects_a_bad_factor(monkeypatch):
    S, b = _poisson_system(2)

    class Garbage:
        def __init__(self, A, **kwargs):
            self.n = A.shape[0]

        def solve(self, rhs):
            return np.full(self.n, 1e3)

    monkeypatch.setattr(linalg, "splu", Garbage)
    with pytest.raises(SolverFailure) as exc:
        solve_direct(S, b)
    assert "sparse LU" in str(exc.value)
    assert exc.value.residual > exc.value.tol


def _spd_system():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((40, 40))
    A = B.T @ B + 40 * np.eye(40)
    return csr_matrix(A), rng.standard_normal(40), A


def _off_by(A_dense, b, factor, rtol=1e-10):
    # an x whose residual is exactly `factor` times the bound rtol ||b||
    direction = np.ones(len(b)) / np.sqrt(len(b))
    return np.linalg.solve(A_dense, b + factor * rtol
                           * np.linalg.norm(b) * direction)


def test_cg_restarts_an_iterate_just_above_the_bound(monkeypatch):
    A, b, A_dense = _spd_system()
    calls = []
    real_cg = linalg.cg

    def first_call_off(*args, **kwargs):
        calls.append(kwargs.get("x0"))
        if len(calls) == 1:
            return _off_by(A_dense, b, 1.005), 0
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(linalg, "cg", first_call_off)
    x = solve_spd(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert len(calls) == 2


def test_cg_fails_after_one_restart_and_names_itself(monkeypatch):
    A, b, A_dense = _spd_system()
    calls = []

    def always_off(*args, **kwargs):
        calls.append(1)
        return _off_by(A_dense, b, 1.005), 0

    monkeypatch.setattr(linalg, "cg", always_off)
    with pytest.raises(SolverFailure) as exc:
        solve_spd(A, b)
    assert len(calls) == 2
    assert str(exc.value).startswith("conjugate gradients stalled")
    assert exc.value.residual > exc.value.tol


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
@PROPERTY
@given(OPS, st.sampled_from([1e-4, 0.01, 0.3]),
       st.sampled_from([1.0, 0.07, 2.5]))
def test_step_operator_is_the_assembled_step_matrix(degree, ops, k, a):
    # random hanging-node meshes on a non-square rectangle (hx != hy)
    sp = fe.Space(build(ops), degree)
    op = StepOperator(sp, k, a)
    A = assemble_mass(sp) / k + assemble_stiffness(sp, a)
    x = np.random.default_rng(degree).standard_normal(sp.n_free)
    y = A @ x
    assert op.shape == A.shape
    assert np.abs(op @ x - y).max(initial=0.0) \
        <= 1e-13 * np.abs(y).max(initial=0.0)
    assert np.array_equal(op.diagonal(), A.diagonal())
    assert op.nnz == len(sp.mesh) * (degree + 1) ** 4


def test_load_vector_scatter_adds_like_add_at():
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 1, 1)])
    sp = fe.Space(mesh, 3)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((len(mesh), len(sp.ref.quad1d) ** 2))
    _, _, W = sp.quadrature_points()
    cellwise = (values * W) @ sp.tensor_basis("quad", 0, 0)
    oracle = np.zeros(sp.n_global)
    np.add.at(oracle, sp.dofmap, cellwise)
    assert np.array_equal(load_vector(sp, values, condensed=False), oracle)


def _hanging_space(degree=3):
    # hanging nodes at two levels on a non-square rectangle
    mesh = Mesh.uniform(Rectangle(-1.0, 2.0, 0.0, 0.5), 2)
    return fe.Space(mesh.refine([(2, 1, 1)]).refine([(3, 2, 2)]), degree)


def test_step_operators_share_one_space_cache_without_going_stale():
    sp = _hanging_space()
    x = np.random.default_rng(7).standard_normal(sp.n_free)
    pairs = [(0.3, 1.0), (1e-4, 2.5), (0.3, 0.07), (0.01, 1.0)]
    ops = [StepOperator(sp, k, a) for k, a in pairs]
    cond = sp._condensation
    assert cond is not None and all(op._cond is cond for op in ops)
    for op, (k, a) in zip(ops, pairs):
        A = assemble_mass(sp) / k + assemble_stiffness(sp, a)
        y = A @ x
        assert np.abs(op @ x - y).max() <= 1e-13 * np.abs(y).max()
        assert np.array_equal(op.diagonal(), A.diagonal())
    assert sp._condensation is cond
    assert StepOperator(sp, 0.5, 3.0)._cond is cond


def test_condensation_equals_p_transpose_a_p():
    sp = _hanging_space()
    P = sp.P
    for A, A_full in [(assemble_mass(sp), assemble_mass(sp, condensed=False)),
                      (assemble_stiffness(sp, 1.0),
                       assemble_stiffness(sp, 1.0, condensed=False))]:
        old = (P.T @ A_full @ P).toarray()
        assert np.abs(A.toarray() - old).max() <= 1e-14 * np.abs(old).max()
    values = np.random.default_rng(8).standard_normal(
        (len(sp.mesh), len(sp.ref.quad1d) ** 2))
    b_full = load_vector(sp, values, condensed=False)
    assert np.array_equal(load_vector(sp, values), P.T @ b_full)


def test_condensing_a_second_space_frees_the_first():
    first, second = _hanging_space(), _hanging_space(2)
    x = np.random.default_rng(9).standard_normal(first.n_free)
    op = StepOperator(first, 0.02, 1.5)
    M, S = assemble_mass(first), assemble_stiffness(first, 1.0)
    assemble_mass(second)
    assert first._condensation is None
    assert second._condensation is not None
    # the operator keeps its own condensation
    y = (M / 0.02 + 1.5 * S) @ x
    assert np.abs(op @ x - y).max() <= 1e-13 * np.abs(y).max()
    # the first space rebuilds its matrices when used again
    P = first.P
    for A, A_full in [(assemble_mass(first),
                       assemble_mass(first, condensed=False)),
                      (assemble_stiffness(first, 1.0),
                       assemble_stiffness(first, 1.0, condensed=False))]:
        oracle = (P.T @ A_full @ P).toarray()
        assert np.abs(A.toarray() - oracle).max() \
            <= 1e-14 * np.abs(oracle).max()
    assert first._condensation is not None
    assert second._condensation is None


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
def test_assembly_matches_int64_index_oracle_bitwise(degree):
    sp = _hanging_space(degree)
    dofmap = sp.dofmap.astype(np.int64)
    nloc = dofmap.shape[1]
    rows = np.repeat(dofmap, nloc, axis=1).ravel()
    cols = np.tile(dofmap, (1, nloc)).ravel()
    for mass, stiff in [(1.0, 0.0), (0.0, 1.0)]:
        local = linalg._cell_matrices(sp.ref, sp.mesh.hx, sp.mesh.hy,
                                      mass, stiff)
        A = linalg._assemble_full(sp, local)
        oracle = coo_matrix((local.ravel(), (rows, cols)),
                            shape=(sp.n_global, sp.n_global)).tocsr()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, attr), getattr(oracle, attr))


@pytest.mark.parametrize("k, a", [(0.0, 1.0), (-0.01, 1.0),
                                  (0.01, 0.0), (0.01, -0.001)])
def test_step_operator_rejects_nonpositive_k_or_a(k, a):
    sp = fe.Space(Mesh.uniform(UNIT, 1), 2)
    with pytest.raises(ValueError, match="must be positive"):
        StepOperator(sp, k, a)
