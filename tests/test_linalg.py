"""Assembly and SPD solves against quadrature and dense oracles."""

import contextlib
import glob
import os
import platform
import sys
import threading
import types

import numpy as np
import pytest
import scipy
from hypothesis import given, strategies as st
from scipy.sparse import block_diag, coo_matrix, csr_matrix
from scipy.sparse._compressed import _cs_matrix
from scipy.sparse.linalg import spsolve

from semiheat.mesh import Mesh, Rectangle
from semiheat import fespace as fe
from semiheat import linalg
from semiheat.linalg import (assemble_mass, assemble_stiffness,
                             factor_skeleton, load_vector, one_blas_thread,
                             solve_skeleton, solve_spd, step_operator,
                             SolverFailure)
from test_mesh_properties import OPS, PROPERTY, build

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)


def held(sp):
    """The condensation the space holds now, or None."""
    return sp._derived.get("condensation")


def _congruence_oracle(G, GT, bounds, local):
    """scipy's G^T @ (blocks @ G), blocks the level matrices per cell."""
    blocks = block_diag([blk for blk, n in zip(local, np.diff(bounds))
                         for _ in range(n)], format="csr")
    return GT @ (blocks @ G)


def assembled(sp, mass, stiff):
    """Oracle: the condensed mass * M + stiff * S assembled as CSR,
    scipy's G^T @ (blocks @ G)."""
    cond = linalg._condensation(sp)
    return _congruence_oracle(cond.G, cond.GT, cond.bounds,
                              cond.level_matrices(mass, stiff))


@contextlib.contextmanager
def sparse_products():
    """Records every product of two sparse matrices scipy forms meanwhile
    as (caller, left, right), caller the name of the innermost semiheat
    function on the stack (None outside the package).  An assembled
    matrix, G^T (blocks G), is two such products."""
    package = os.path.dirname(linalg.__file__)
    product = _cs_matrix._matmul_sparse
    products = []

    def recording(left, right):
        frame = sys._getframe(1)
        while frame is not None \
                and os.path.dirname(frame.f_code.co_filename) != package:
            frame = frame.f_back
        products.append((frame and frame.f_code.co_name, left, right))
        return product(left, right)

    _cs_matrix._matmul_sparse = recording
    try:
        yield products
    finally:
        _cs_matrix._matmul_sparse = product


def dense(op):
    """An operator's matrix, one product per column."""
    return op @ np.eye(op.shape[1])


def assemble_full(sp, mass, stiff):
    """Oracle: mass * M + stiff * S on the unconstrained dofs, every cell's
    local matrix scattered onto its dofs (duplicates summed)."""
    dofmap = sp.dofmap
    nloc = dofmap.shape[1]
    rows = np.repeat(dofmap, nloc, axis=1).ravel()
    cols = np.tile(dofmap, (1, nloc)).ravel()
    local = linalg._cell_matrices(sp.ref, sp.mesh.hx, sp.mesh.hy, mass, stiff)
    return coo_matrix((local.ravel(), (rows, cols)),
                      shape=(sp.n_global, sp.n_global)).tocsr()


def load_full(sp, values):
    """Oracle: the load vector on the unconstrained dofs, by np.add.at."""
    _, _, W = sp.quadrature_points()
    cellwise = (values * W) @ sp.tensor_basis("quad", 0, 0)
    b = np.zeros(sp.n_global)
    np.add.at(b, sp.dofmap, cellwise)
    return b


def test_p1_single_cell_has_no_free_dofs():
    sp = fe.Space(Mesh.uniform(UNIT, 0), 1)
    assert sp.n_free == 0
    M = assemble_mass(sp)
    assert M.shape == (0, 0)


def test_mass_row_sums_match_quadrature():
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 0, 0)])
    sp = fe.Space(mesh, 3)
    M_full = assemble_full(sp, 1.0, 0.0)
    ones = np.ones((len(mesh), len(sp.ref.quad1d) ** 2))
    b = load_full(sp, ones)
    assert np.abs(np.asarray(M_full.sum(axis=1)).ravel() - b).max() < 1e-14


def test_mass_total_sum_is_domain_area():
    rect = Rectangle(-2.0, 1.0, 0.0, 2.0)
    sp = fe.Space(Mesh.uniform(rect, 2), 2)
    M_full = assemble_full(sp, 1.0, 0.0)
    assert M_full.sum() == pytest.approx(rect.area, rel=1e-12)


def test_stiffness_linearity_in_a():
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    S1 = dense(assemble_stiffness(sp, 1.0))
    S2 = dense(assemble_stiffness(sp, 2.0))
    assert np.abs(2.0 * S1 - S2).max() == 0.0


def test_stiffness_constant_in_kernel():
    # the unconstrained stiffness annihilates the constant nodal vector;
    # after Dirichlet condensation the lifted constant leaves only the
    # boundary coupling, checked against the quadrature oracle
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 3, 3)])
    sp = fe.Space(mesh, 2)
    S_full = assemble_full(sp, 0.0, 1.7)
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
    # NaN and infinity too, which a test of a <= 0 lets through
    sp = fe.Space(Mesh.uniform(UNIT, 1), 1)
    for a in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            assemble_stiffness(sp, a)


def test_symmetry():
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 1, 1)])
    sp = fe.Space(mesh, 2)
    M = assemble_mass(sp)
    S = assemble_stiffness(sp, 0.7)
    for A in (M, S):
        dA = dense(A)
        scale = np.abs(dA).max()
        assert np.abs(dA - dA.T).max() < 1e-12 * scale
        assert (A.diagonal() > 0).all()


def test_q1_five_point_stencil_hand_assembly():
    # Uniform 4x4 cells, p = 1: compare full rows against a hand-built
    # matrix from the classical bilinear local stiffness.
    n = 4
    mesh = Mesh.uniform(UNIT, 2)
    sp = fe.Space(mesh, 1)
    S = dense(assemble_stiffness(sp, 1.0))
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


def _poisson_system(degree, rect=UNIT, mesh=None):
    # the initial projection's system, by default on a mesh with hanging
    # nodes
    if mesh is None:
        mesh = Mesh.uniform(rect, 2).refine([(2, 1, 1), (2, 2, 1)])
        mesh = mesh.refine([(3, 3, 3)])
    sp = fe.Space(mesh, degree)
    assert sp.is_slave.any()
    Xq, Yq, _ = sp.quadrature_points()
    rhs = np.sin(np.pi * Xq) * np.sin(2.0 * np.pi * Yq) + Xq * Yq
    return sp, assemble_stiffness(sp, 1.0), load_vector(sp, rhs)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_direct_solve_meets_the_residual_bound_and_matches_cg(degree):
    sp, S, b = _poisson_system(degree)
    A = assembled(sp, 0.0, 1.0)
    x = spsolve(A.tocsc(), b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    y = solve_spd(S, b)
    assert np.abs(x - y).max() <= 1e-8 * np.abs(y).max()


class _GarbageLU:
    def __init__(self, A, **kwargs):
        self.n = A.shape[0]

    def solve(self, rhs):
        return np.full(self.n, 1e3)


@pytest.mark.parametrize("rect", [UNIT, Rectangle(-1.0, 2.0, 0.0, 0.5)])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
def test_skeleton_solve_matches_the_direct_solve(degree, rect):
    # degree 1 has no cell interiors: the skeleton is every free dof
    sp, S, b = _poisson_system(degree, rect)
    cond = held(sp)
    kept = {name: id(value) for name, value in vars(cond).items()}
    x = solve_skeleton(factor_skeleton(sp), S, b)
    assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)
    y = spsolve(assembled(sp, 0.0, 1.0).tocsc(), b)
    assert np.abs(x - y).max() <= 1e-11 * np.abs(y).max()
    # the solve keeps nothing on the space
    assert held(sp) is cond
    assert {name: id(value) for name, value in vars(cond).items()} == kept


@pytest.mark.parametrize("degree", [2, 4])
def test_skeleton_solve_on_a_mesh_graded_to_level_30(degree):
    # one level block per level 1..30, hanging nodes at every level
    mesh = Mesh.uniform(Rectangle(-1.0, 2.0, 0.0, 0.5), 1)
    for level in range(1, 30):
        mesh = mesh.refine([(level, 0, 0)])
    assert (30, 0, 0) in mesh.leafset
    sp, S, b = _poisson_system(degree, mesh=mesh)
    x = solve_skeleton(factor_skeleton(sp), S, b)
    assert np.linalg.norm(S @ x - b) <= 1e-10 * np.linalg.norm(b)
    y = spsolve(assembled(sp, 0.0, 1.0).tocsc(), b)
    assert np.abs(x - y).max() <= 1e-11 * np.abs(y).max()


def test_skeleton_solve_of_a_cell_without_skeleton_dofs():
    # one cell: every edge node is on the boundary, only interiors are free
    sp = fe.Space(Mesh.uniform(UNIT, 0), 3)
    S = assemble_stiffness(sp, 1.0)
    b = np.arange(1.0, sp.n_free + 1)
    solve = factor_skeleton(sp)
    x = spsolve(assembled(sp, 0.0, 1.0).tocsc(), b)
    assert np.abs(solve_skeleton(solve, S, b) - x).max() <= 1e-14
    assert np.array_equal(solve_skeleton(solve, S, 0 * b), 0 * b)


def test_skeleton_solve_rejects_a_bad_factor(monkeypatch):
    sp, S, b = _poisson_system(3)
    monkeypatch.setattr(linalg, "splu", _GarbageLU)
    with pytest.raises(SolverFailure) as exc:
        solve_skeleton(factor_skeleton(sp), S, b)
    assert str(exc.value).startswith("skeleton LU stalled")
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
    # random hanging-node meshes on a non-square rectangle (hx != hy);
    # the diagonal is taken without assembling anything
    sp = fe.Space(build(ops), degree)
    op = step_operator(sp, k, a)
    with sparse_products() as products:
        d = op.diagonal()
    assert products == []
    A = assembled(sp, 1.0, 0.0) / k + a * assembled(sp, 0.0, 1.0)
    x = np.random.default_rng(degree).standard_normal(sp.n_free)
    y = A @ x
    assert op.shape == A.shape
    assert np.abs(op @ x - y).max(initial=0.0) \
        <= 1e-13 * np.abs(y).max(initial=0.0)
    assert np.array_equal(d, A.diagonal())
    assert op.nnz == len(sp.mesh) * (degree + 1) ** 4


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
@PROPERTY
@given(OPS, st.sampled_from([1.0, 0.07, 2.5]))
def test_mass_and_stiffness_operators_are_the_assembled_matrices(degree, ops,
                                                                a):
    sp = fe.Space(build(ops), degree)
    x = np.random.default_rng(degree).standard_normal(sp.n_free)
    for op, A in [(assemble_mass(sp), assembled(sp, 1.0, 0.0)),
                  (assemble_stiffness(sp, a), assembled(sp, 0.0, a))]:
        y = A @ x
        assert op.shape == A.shape
        assert np.abs(op @ x - y).max(initial=0.0) \
            <= 1e-13 * np.abs(y).max(initial=0.0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
@PROPERTY
@given(OPS)
def test_diagonals_are_the_assembled_diagonals_bit_for_bit(degree, ops):
    # those of M and the unit S, which the Jacobi preconditioner reads,
    # and of a step's blocks, on random hanging-node meshes on a
    # non-square rectangle
    sp = fe.Space(build(ops), degree)
    cond = linalg._condensation(sp)
    for mass, stiff in [(1.0, 0.0), (0.0, 1.0), (1 / 0.01, 0.3)]:
        assert np.array_equal(linalg._diagonal(cond, mass, stiff),
                              assembled(sp, mass, stiff).diagonal())


def test_load_vector_scatter_adds_like_add_at():
    mesh = Mesh.uniform(UNIT, 2).refine([(2, 1, 1)])
    sp = fe.Space(mesh, 3)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((len(mesh), len(sp.ref.quad1d) ** 2))
    assert np.array_equal(load_vector(sp, values),
                          sp.P.T @ load_full(sp, values))


def _hanging_space(degree=3):
    # hanging nodes at two levels on a non-square rectangle
    mesh = Mesh.uniform(Rectangle(-1.0, 2.0, 0.0, 0.5), 2)
    return fe.Space(mesh.refine([(2, 1, 1)]).refine([(3, 2, 2)]), degree)


def test_step_operators_share_one_space_cache_without_going_stale():
    sp = _hanging_space()
    x = np.random.default_rng(7).standard_normal(sp.n_free)
    pairs = [(0.3, 1.0), (1e-4, 2.5), (0.3, 0.07), (0.01, 1.0)]
    ops = [step_operator(sp, k, a) for k, a in pairs]
    cond = held(sp)
    assert cond is not None and all(op._cond is cond for op in ops)
    M, S = assembled(sp, 1.0, 0.0), assembled(sp, 0.0, 1.0)
    for op, (k, a) in zip(ops, pairs):
        A = M / k + a * S
        y = A @ x
        assert np.abs(op @ x - y).max() <= 1e-13 * np.abs(y).max()
        assert np.array_equal(op.diagonal(), A.diagonal())
    assert held(sp) is cond
    assert step_operator(sp, 0.5, 3.0)._cond is cond


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
def test_step_product_is_scipys_product_bit_for_bit(degree):
    # G^T (blocks (G x)) with scipy's G @ x, which sums every row from
    # 0.0 and so turns a -0.0 read through a unit row into +0.0
    sp = _hanging_space(degree)
    k, a = 0.02, 1.5
    op = step_operator(sp, k, a)
    cond = op._cond
    rows = np.diff(cond.G.indptr)
    # empty rows (boundary dofs), one-entry rows and hanging rows, the
    # only ones with weights other than 1.0
    assert (rows == 0).any() and (rows == 1).any()
    assert (cond.G.data != 1.0).any()
    rng = np.random.default_rng(degree)
    x = rng.standard_normal(sp.n_free)
    x[rng.random(sp.n_free) < 0.3] = -0.0    # every free dof has a unit row
    u = (cond.G @ x).reshape(sp.dofmap.shape)
    v = np.empty_like(u)
    for start, end, local in zip(cond.bounds[:-1], cond.bounds[1:],
                                 cond.level_matrices(1.0 / k, a)):
        np.matmul(u[start:end], local, out=v[start:end])
    y = cond.GT @ v.ravel()
    for _ in range(2):
        assert (op @ x).tobytes() == y.tobytes()


def _arrays(obj):
    """Every numpy array reachable from obj's attributes, with its path."""
    found = {}
    stack = [("", obj)]
    seen = set()
    while stack:
        path, item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found[path] = item
        elif isinstance(item, (list, tuple)):
            stack += [("%s[%d]" % (path, i), v) for i, v in enumerate(item)]
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack += [("%s.%s" % (path, k), v)
                      for k, v in vars(item).items()]
    return found


def test_a_product_writes_nothing_on_the_condensation():
    # every array the condensation holds, G's and the diagonals' included,
    # is byte-identical after products of two operators on the space
    sp = _hanging_space(3)
    ops = [step_operator(sp, 0.02, 1.5), assemble_stiffness(sp, 1.0)]
    cond = ops[0]._cond
    ops[0].diagonal()
    x = np.random.default_rng(5).standard_normal(sp.n_free)
    before = {path: a.tobytes() for path, a in _arrays(cond).items()}
    assert any(".G.data" in path for path in before)
    for op in ops:
        op @ x
    after = {path: a.tobytes() for path, a in _arrays(cond).items()}
    assert after.keys() == before.keys()
    assert [p for p in before if after[p] != before[p]] == []


def test_threads_stepping_on_one_space_share_its_buffers_correctly():
    # more threads than cores, switching often; large enough that the
    # products' numpy calls overlap
    sp = fe.Space(Mesh.uniform(UNIT, 5).refine([(5, 9, 9)]), 4)
    pairs = [(0.02, 1.5), (0.3, 1.0), (1e-3, 2.0), (0.05, 0.5)]
    ops = [step_operator(sp, k, a) for k, a in pairs]
    xs = np.random.default_rng(11).standard_normal((len(ops), sp.n_free))
    want = [(op @ x).tobytes() for op, x in zip(ops, xs)]
    got = [[] for _ in ops]

    def products(i):
        for _ in range(20):
            got[i].append((ops[i] @ xs[i]).tobytes())

    threads = [threading.Thread(target=products, args=(i,))
               for i in range(len(ops))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [set(g) for g in got] == [{w} for w in want]
    assert all(len(g) == 20 for g in got)


def test_condensation_equals_p_transpose_a_p():
    # the level-block products G^T (blocks (G x)) against scattering
    # every cell's matrix and condensing, on a non-square rectangle
    for degree in (1, 2, 3, 4, 9):
        sp = _hanging_space(degree)
        P = sp.P
        for A, A_full in [(assemble_mass(sp), assemble_full(sp, 1.0, 0.0)),
                          (assemble_stiffness(sp, 1.0),
                           assemble_full(sp, 0.0, 1.0))]:
            old = (P.T @ A_full @ P).toarray()
            assert np.abs(dense(A) - old).max() <= 1e-14 * np.abs(old).max()
        values = np.random.default_rng(8).standard_normal(
            (len(sp.mesh), len(sp.ref.quad1d) ** 2))
        assert np.array_equal(load_vector(sp, values),
                              P.T @ load_full(sp, values))


def _same_csr(A, B):
    """A and B hold the same CSR arrays, bit for bit and in stored order."""
    assert A.shape == B.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(A, attr), getattr(B, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
@PROPERTY
@given(OPS)
def test_row_blocks_assemble_scipys_product_bit_for_bit(degree, ops):
    # random hanging-node meshes on a non-square rectangle: the skeleton
    # matrix splu receives holds the arrays of scipy's product of G_b^T,
    # the block diagonal of every cell's level block and G_b, bit for
    # bit, and the block diagonal holds each block in dense rows
    sp = fe.Space(build(ops), degree)
    cond = linalg._condensation(sp)
    factored = []
    splu = linalg.splu

    def recording(A, **kwargs):
        factored.append(A)
        return splu(A, **kwargs)

    S = assemble_stiffness(sp, 1.0)
    linalg.splu = recording
    try:
        with sparse_products() as products:
            solve_skeleton(factor_skeleton(sp), S, np.ones(sp.n_free))
    finally:
        linalg.splu = splu
    assert len(factored) == (sp.n_free > 0)
    if factored:
        # G_b: the rows of G at each cell's edge nodes, on the free dofs
        # that are no cell's interior node
        i, j = np.divmod(np.arange((degree + 1) ** 2), degree + 1)
        edge = (i % degree == 0) | (j % degree == 0)
        interior = sp.free_index[sp.dofmap[cond.order][:, ~edge]]
        skeleton = np.setdiff1d(np.arange(sp.n_free), interior)
        Gb = cond.G[np.flatnonzero(np.tile(edge, len(sp.mesh)))][:, skeleton]
        # the level blocks, read from the block diagonal's dense rows
        n = 4 * degree
        B = products[0][1]
        schur = B.data.reshape(-1, n, n)[cond.bounds[:-1]]
        _same_csr(factored[0],
                  _congruence_oracle(Gb, Gb.T.tocsr(), cond.bounds,
                                     schur).tocsc())


def test_releasing_a_space_frees_its_condensation():
    first, second = _hanging_space(), _hanging_space(2)
    x = np.random.default_rng(9).standard_normal(first.n_free)
    op = step_operator(first, 0.02, 1.5)
    M, S = assemble_mass(first), assemble_stiffness(first, 1.0)
    first.release()
    assemble_mass(second)
    assert held(first) is None
    assert held(second) is not None
    # the operator keeps its own condensation
    y = (M / 0.02 + 1.5 * S) @ x
    assert np.abs(op @ x - y).max() <= 1e-13 * np.abs(y).max()
    # the first space rebuilds its condensation when used again
    second.release()
    P = first.P
    for A, A_full in [(assemble_mass(first), assemble_full(first, 1.0, 0.0)),
                      (assemble_stiffness(first, 1.0),
                       assemble_full(first, 0.0, 1.0))]:
        oracle = (P.T @ A_full @ P).toarray()
        assert np.abs(dense(A) - oracle).max() <= 1e-14 * np.abs(oracle).max()
    assert held(first) is not None
    assert held(second) is None


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 9])
def test_assembly_matches_int64_index_oracle_bitwise(degree):
    # G^T (blocks G), whose level blocks have int32 indices and one local
    # matrix per level, against G^T B G with B every cell's own local
    # matrix on int64 COO indices
    sp = _hanging_space(degree)
    cond = linalg._condensation(sp)
    nloc = sp.dofmap.shape[1]
    ncells = len(sp.mesh)
    cell = np.repeat(np.arange(ncells, dtype=np.int64), nloc * nloc)
    i, j = np.divmod(np.tile(np.arange(nloc * nloc, dtype=np.int64), ncells),
                     nloc)
    rows, cols = cell * nloc + i, cell * nloc + j
    hx, hy = sp.mesh.hx[cond.order], sp.mesh.hy[cond.order]
    for mass, stiff in [(1.0, 0.0), (0.0, 1.0)]:
        A = assembled(sp, mass, stiff)
        local = linalg._cell_matrices(sp.ref, hx, hy, mass, stiff)
        B = coo_matrix((local.ravel(), (rows, cols)),
                       shape=(ncells * nloc, ncells * nloc)).tocsr()
        oracle = cond.GT @ (B @ cond.G)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, attr), getattr(oracle, attr))


@pytest.mark.parametrize("k, a", [(0.0, 1.0), (-0.01, 1.0),
                                  (0.01, 0.0), (0.01, -0.001),
                                  (float("nan"), 1.0), (0.01, float("nan"))])
def test_step_operator_rejects_nonpositive_k_or_a(k, a):
    sp = fe.Space(Mesh.uniform(UNIT, 1), 2)
    with pytest.raises(ValueError, match="must be positive"):
        step_operator(sp, k, a)


@pytest.fixture
def fresh_trim_lookup():
    linalg._malloc_trim.cache_clear()
    yield
    linalg._malloc_trim.cache_clear()


def _no_c_library(name):
    raise OSError("cannot open the C library")


@pytest.mark.parametrize("library", [lambda name: object(), _no_c_library],
                         ids=["without malloc_trim", "not found"])
def test_trim_heap_does_nothing_without_malloc_trim(monkeypatch,
                                                    fresh_trim_lookup,
                                                    library):
    monkeypatch.setattr(linalg.ctypes, "CDLL", library)
    assert linalg._malloc_trim() is None
    linalg.trim_heap()


def test_trim_heap_asks_malloc_trim_for_every_free_page(monkeypatch,
                                                        fresh_trim_lookup):
    pads = []

    def malloc_trim(pad):
        pads.append(pad)
        return 1

    lib = types.SimpleNamespace(malloc_trim=malloc_trim)
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda name: lib)
    linalg.trim_heap()
    linalg.trim_heap()
    assert pads == [0, 0]
    assert malloc_trim.argtypes == (linalg.ctypes.c_size_t,)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="malloc_trim is glibc's")
def test_trim_heap_finds_glibcs_malloc_trim(fresh_trim_lookup):
    assert linalg._malloc_trim() is not None
    linalg.trim_heap()


def test_nested_one_blas_thread_restores_the_outer_value(blas_counts_are):
    with one_blas_thread():
        with one_blas_thread():
            assert blas_counts_are(1)
        assert blas_counts_are(1)
    assert blas_counts_are(2)


def test_overlapping_scopes_in_two_threads_restore_the_callers_count(
        blas_counts_are):
    # thread a opens first and closes first, while b's scope is open
    a_in, b_in, a_out = (threading.Event() for _ in range(3))
    seen = []

    def a():
        with one_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with one_blas_thread():
            b_in.set()
            a_out.wait(10)
            seen.append(blas_counts_are(1))

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert seen == [True]
    assert blas_counts_are(2)


def test_every_bundled_openblas_has_a_pool():
    # a renamed thread-count symbol in a new numpy or scipy wheel must
    # fail here instead of turning one_blas_thread into a silent no-op
    found = {os.path.realpath(pool.path) for pool in linalg._blas_pools()}
    for package in (np, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            package.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            assert os.path.realpath(path) in found, path
