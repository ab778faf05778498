"""Lagrange spaces on quadtrees: evaluation, norms, jumps, transfer."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from semiheat.mesh import FaceSet, LMAX, Mesh, Rectangle, face_set
from semiheat import fespace as fe
from test_mesh import (TWO_IRREGULAR, _neighbor_leaves,
                       brute_force_one_irregular)
from test_mesh_properties import OPS, PROPERTY, build

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)


def hanging_mesh(level=2, extra=1):
    mesh = Mesh.uniform(UNIT, level)
    for _ in range(extra):
        mesh = mesh.refine([mesh.leaves[0]])
    return mesh


def test_eval_constant():
    sp = fe.Space(hanging_mesh(), 2)
    f = fe.Field.from_callable(sp, lambda x, y: 3.5 + 0 * x)
    assert f.eval(0.3, 0.7) == pytest.approx(3.5, abs=1e-13)


def test_eval_linear_reproduction():
    sp = fe.Space(Mesh.uniform(UNIT, 2), 1)
    f = fe.Field.from_callable(sp, lambda x, y: x)
    assert f.eval(0.3, 0.7) == pytest.approx(0.3, abs=1e-13)


def test_eval_product_at_hanging_point():
    sp = fe.Space(hanging_mesh(), 2)
    f = fe.Field.from_callable(sp, lambda x, y: x * y)
    # points on and around the hanging faces of the refined corner
    pts = [(0.25, 0.125), (0.125, 0.25), (0.25, 0.25), (0.2, 0.25)]
    for x, y in pts:
        assert f.eval(x, y) == pytest.approx(x * y, abs=1e-12)


def test_eval_outside_domain_raises():
    sp = fe.Space(Mesh.uniform(UNIT, 1), 1)
    f = fe.Field.zeros(sp)
    with pytest.raises(ValueError):
        f.eval(1.2, 0.5)


def test_polynomial_reproduction_property():
    rng = np.random.default_rng(0)
    mesh = hanging_mesh(2, 2)
    for p in (1, 2, 3):
        sp = fe.Space(mesh, p)
        coef = rng.standard_normal((p + 1, p + 1))
        # total degree <= p
        for i in range(p + 1):
            for j in range(p + 1):
                if i + j > p:
                    coef[i, j] = 0.0

        def q(x, y):
            return sum(coef[i, j] * x ** i * y ** j
                       for i in range(p + 1) for j in range(p + 1))

        f = fe.Field.from_callable(sp, q)
        pts = rng.random((100, 2))
        vals = f.eval(pts[:, 0], pts[:, 1])
        assert np.abs(vals - q(pts[:, 0], pts[:, 1])).max() < 1e-10


def test_hanging_face_continuity():
    rng = np.random.default_rng(1)
    mesh = hanging_mesh(2, 2)
    sp = fe.Space(mesh, 3)
    f = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    # two-sided values along the hanging faces at x = 0.25 agree
    ys = np.linspace(0.01, 0.24, 20)
    left = mesh.locate(np.full_like(ys, 0.25 - 1e-9), ys)
    right = mesh.locate(np.full_like(ys, 0.25 + 1e-9), ys)
    va = fe.evaluate_in_cells([f], left, np.full_like(ys, 0.25), ys,
                              [(0, 0)])[0]
    vb = fe.evaluate_in_cells([f], right, np.full_like(ys, 0.25), ys,
                              [(0, 0)])[0]
    assert np.abs(va - vb).max() < 1e-10


def test_linf_zero_field():
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    assert fe.Field.zeros(sp).linf_norm() == 0.0


def test_linf_sine_dense_oracle():
    sp = fe.Space(Mesh.uniform(UNIT, 3), 3)
    f = fe.Field.from_callable(sp, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    # dense 1000x1000 evaluation of the field itself
    x = np.linspace(0, 1, 1000)
    X, Y = np.meshgrid(x, x)
    dense = np.abs(f.eval(X.ravel(), Y.ravel())).max()
    val = f.linf_norm()
    assert val == pytest.approx(dense, abs=1e-6)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_linf_gaussian_peak():
    rect = Rectangle(-8, 8, -8, 8)
    mesh = Mesh.uniform(rect, 4)
    # refine around the origin so the interpolant resolves the bump
    for _ in range(3):
        idx = [k for i, k in enumerate(mesh.leaves)
               if abs(mesh.x0[i] + 0.5 * mesh.hx[i]) < 2.5
               and abs(mesh.y0[i] + 0.5 * mesh.hy[i]) < 2.5]
        mesh = mesh.refine(idx)
    sp = fe.Space(mesh, 6)
    g = lambda x, y: 10.0 * np.exp(-2.0 * (x * x + y * y))
    f = fe.Field.from_callable(sp, g)
    x = np.linspace(-8, 8, 1000)
    X, Y = np.meshgrid(x, x)
    dense = np.abs(f.eval(X.ravel(), Y.ravel())).max()
    val = f.linf_norm()
    assert val == pytest.approx(10.0, abs=1e-6)
    assert dense <= val + 1e-9  # sample grid catches the max (it sits on a node)


def test_linf_norm_axioms_on_sample_lattice():
    rng = np.random.default_rng(4)
    sp = fe.Space(hanging_mesh(), 2)
    u = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    v = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    alpha = -2.75
    scaled = fe.Field(sp, alpha * u.coeffs)
    assert scaled.linf_norm() == abs(alpha) * u.linf_norm()
    total = fe.Field(sp, u.coeffs + v.coeffs)
    assert total.linf_norm() <= u.linf_norm() + v.linf_norm()


def test_linf_norm_caches_no_sample_grid():
    rng = np.random.default_rng(5)
    sp = fe.Space(hanging_mesh(), 3)
    u = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    val = u.linf_norm()
    assert val == float(np.abs(u.sample_values("val")).max())
    # neither call left a (ncells, npts) grid on the field
    assert not [v for v in vars(u).values()
                if isinstance(v, np.ndarray) and v.ndim == 2]


def test_interpolate_identity():
    rng = np.random.default_rng(5)
    sp = fe.Space(hanging_mesh(), 2)
    f = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    g = fe.interpolate(f, sp)
    assert np.array_equal(f.coeffs, g.coeffs)


def test_interpolate_refinement_exact():
    rng = np.random.default_rng(6)
    mesh = hanging_mesh(2, 1)
    sp = fe.Space(mesh, 2)
    f = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    fine = mesh.refine([mesh.leaves[3], mesh.leaves[8]])
    spf = fe.Space(fine, 2)
    g = fe.interpolate(f, spf)
    pts = rng.random((100, 2))
    assert np.abs(g.eval(pts[:, 0], pts[:, 1])
                  - f.eval(pts[:, 0], pts[:, 1])).max() < 1e-12


def test_interpolate_coarsening_keeps_nodal_values():
    rng = np.random.default_rng(8)
    fine = Mesh.uniform(UNIT, 3)
    spf = fe.Space(fine, 2)
    bump = fe.Field.from_callable(
        spf, lambda x, y: np.exp(-50 * ((x - 0.3) ** 2 + (y - 0.4) ** 2)))
    coarse = fe.Space(Mesh.uniform(UNIT, 1), 2)
    g = fe.interpolate(bump, coarse)
    xy = coarse.node_coords[~(coarse.is_boundary | coarse.is_slave)]
    assert np.abs(g.eval(xy[:, 0], xy[:, 1])
                  - bump.eval(xy[:, 0], xy[:, 1])).max() < 1e-12
    # the peak is lost: coarse interpolant underestimates the max
    assert g.linf_norm() < bump.linf_norm()


def moved_mesh_pair():
    """(source, target) meshes with hanging faces on a non-square domain.

    The target refines one source cell twice (cells two levels below
    their host) and keeps as one cell a source cell that the source
    splits (a cell coarser than its host).
    """
    base = Mesh.uniform(Rectangle(0.0, 2.0, -1.0, 0.5), 2)
    src = base.refine([base.leaves[5]])
    tgt = base.refine([base.leaves[10]])
    tgt = tgt.refine([k for k in tgt.leaves if k[0] == 3][:1])
    return src, tgt


def test_moved_mesh_pair_has_every_class():
    src, tgt = moved_mesh_pair()
    tr = fe.transfer(tgt, src)
    assert fe.transfer(tgt, src) is tr
    assert fe.transfer(src, tgt) is not tr
    assert fe.transfer(tgt, tgt) is fe.transfer(tgt, tgt)
    dls = {ck[0] for ck in tr.classes}
    assert fe.COARSER in tr.classes and 0 in dls and 2 in dls
    for mesh in (src, tgt):
        assert fe.Space(mesh, 1).is_slave.any()      # hanging faces


@pytest.mark.parametrize("p", [1, 2, 4])
def test_grid_values_match_pointwise_evaluation(p):
    """grid_values on a moved mesh agrees with evaluate_multi at its points.

    "val" uses a random conforming field; "lap" a random polynomial of
    degree p per direction, which the space reproduces, so its Laplacian
    is continuous and a point on a cell boundary has one value.
    """
    rng = np.random.default_rng(20 + p)
    src, tgt = moved_mesh_pair()
    sp = fe.Space(src, p)
    coef = rng.standard_normal((p + 1, p + 1))
    fields = {
        "val": fe.Field.from_free(sp, rng.standard_normal(sp.n_free)),
        "lap": fe.Field.from_callable(
            sp, lambda x, y: np.polynomial.polynomial.polyval2d(x, y, coef))}
    tr = fe.transfer(tgt, src)
    for kind in ("sample", "quad", "nodes"):
        X, Y = fe.tensor_grid(tgt, slice(None), sp.ref.points(kind))
        for deriv, field in fields.items():
            got = fe.grid_values(field, tr, kind, deriv)
            dv = "lap" if deriv == "lap" else (0, 0)
            want = fe.evaluate_multi([field], X.ravel(), Y.ravel(), [dv])[0]
            scale = max(np.abs(want).max(), 1.0)
            assert got.shape == X.shape
            assert np.abs(got.ravel() - want).max() <= 1e-12 * scale, \
                (kind, deriv)


def test_grid_values_identity_transfer_is_the_cell_basis():
    rng = np.random.default_rng(9)
    sp = fe.Space(hanging_mesh(), 3)
    f = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    tr = fe.transfer(sp.mesh, sp.mesh)
    X, Y = sp.sample_points()
    x, y = X.ravel(), Y.ravel()
    cells = np.repeat(np.arange(len(sp.mesh)), X.shape[1])
    # values located anywhere; the Laplacian, which jumps across cell
    # edges, in each point's own cell
    for deriv, want in (
            ("val", fe.evaluate_multi([f], x, y, [(0, 0)])[0]),
            ("lap", fe.evaluate_in_cells([f], cells, x, y, ["lap"])[0])):
        got = fe.grid_values(f, tr, "sample", deriv)
        assert np.abs(got.ravel() - want).max() \
            <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError):
        fe.grid_values(f, fe.transfer(sp.mesh, Mesh.uniform(UNIT, 1)),
                       "sample")


def test_interpolate_rejects_other_degree():
    mesh = hanging_mesh()
    f = fe.Field.zeros(fe.Space(mesh, 2))
    with pytest.raises(ValueError):
        fe.interpolate(f, fe.Space(mesh, 3))


@pytest.mark.parametrize("p", [1, 3])
def test_interpolate_refining_and_coarsening_keeps_free_nodes(p):
    rng = np.random.default_rng(30 + p)
    src, tgt = moved_mesh_pair()
    sp, tsp = fe.Space(src, p), fe.Space(tgt, p)
    f = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    g = fe.interpolate(f, tsp)
    xy = tsp.node_coords[tsp.free_gids]
    want = f.eval(xy[:, 0], xy[:, 1])
    assert np.abs(g.free_values - want).max() <= 1e-12 * np.abs(want).max()


def test_jump_zero_for_reproduced_polynomial():
    sp = fe.Space(hanging_mesh(2, 1), 2)
    f = fe.Field.from_callable(sp, lambda x, y: x * x + y * y - x * y)
    assert f.jump_max_per_cell().max() < 1e-10


def test_jump_unit_kink():
    sp = fe.Space(Mesh.uniform(UNIT, 1), 1)
    f = fe.Field.from_callable(sp, lambda x, y: np.maximum(x - 0.5, 0.0))
    jumps = f.jump_max_per_cell()
    assert jumps.max() == pytest.approx(1.0, abs=1e-12)
    # every cell touches the kink face x = 0.5
    assert (jumps > 0.99).all()


def test_jump_excludes_boundary():
    # kink only along the boundary: field linear inside, bent outside has
    # no interior face jump
    sp = fe.Space(Mesh.uniform(UNIT, 1), 2)
    f = fe.Field.from_callable(sp, lambda x, y: x * (1 - x) * y * (1 - y))
    assert f.jump_max_per_cell().max() < 1e-12


def test_jump_boundary_cells_only_interior_faces():
    sp = fe.Space(Mesh.uniform(UNIT, 1), 1)
    f = fe.Field.from_callable(sp, lambda x, y: np.abs(x - 0.5))
    # |x - 1/2| has a kink on the interior face only; boundary faces are
    # never checked, so the jump equals exactly the interior kink of 2
    assert f.jump_max_per_cell().max() == pytest.approx(2.0, abs=1e-12)


def test_jump_linf_per_cell_accessor():
    sp = fe.Space(Mesh.uniform(UNIT, 1), 1)
    f = fe.Field.from_callable(sp, lambda x, y: np.maximum(x - 0.5, 0.0))
    cell = sp.mesh.index_of((1, 0, 0))
    assert f.jump_max_per_cell()[cell] == pytest.approx(1.0, abs=1e-12)


def test_cell_linf_constant_and_linear():
    sp = fe.Space(Mesh.uniform(UNIT, 0), 1)
    X, Y = sp.sample_points()
    assert np.abs(3.0 + 0 * X[0]).max() == pytest.approx(3.0)
    assert np.abs(X[0]).max() == pytest.approx(1.0, abs=1e-12)


def test_cell_linf_laplacian_oracle():
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    f = fe.Field.from_callable(sp, lambda x, y: x * x + y * y)
    lap = lambda X, Y: f.eval(X.ravel(), Y.ravel(), deriv="lap").reshape(X.shape)
    X, Y = sp.sample_points()
    assert np.abs(lap(X[5], Y[5])).max() == pytest.approx(4.0, abs=1e-10)


def test_sample_rule_quadrature_exactness():
    # tensor Gauss of order p+2 integrates x^(2p+3) exactly on each cell
    for p in (1, 2, 3):
        sp = fe.Space(Mesh.uniform(UNIT, 1), p)
        X, Y, W = sp.quadrature_points()
        d = 2 * p + 3
        val = float((W * X ** d).sum())
        assert val == pytest.approx(1.0 / (d + 1), rel=1e-13)


def test_high_degree_space():
    # the degree used by the heaviest shipped preset must construct and
    # reproduce its polynomials
    sp = fe.Space(hanging_mesh(1, 1), 9)
    f = fe.Field.from_callable(sp, lambda x, y: (x * y) ** 4 + x ** 9)
    pts = np.random.default_rng(9).random((50, 2))
    vals = f.eval(pts[:, 0], pts[:, 1])
    expect = (pts[:, 0] * pts[:, 1]) ** 4 + pts[:, 0] ** 9
    assert np.abs(vals - expect).max() < 1e-9


@pytest.mark.parametrize("p", [1, 2, 3, 4, 9])
def test_eval_orders_from_one_vandermonde_match_eval(p):
    # evaluate_in_cells' 1-D bases, including orders above the degree
    ref = fe._ref(p)
    pts = np.concatenate([[0.0, 1.0], np.random.default_rng(p).random(50)])
    orders = range(p + 2)
    got = ref.eval_orders(pts, orders)
    assert sorted(got) == list(orders)
    for d in orders:
        want = ref.eval(pts, d)
        assert got[d].shape == want.shape == (len(pts), p + 1)
        assert np.abs(got[d] - want).max() \
            <= 1e-13 * max(np.abs(want).max(), 1.0)


def test_gauss_legendre_is_cached_and_read_only():
    for n in (1, 3, 6):
        x, w = np.polynomial.legendre.leggauss(n)
        pts, wts = fe.gauss_legendre(n)
        assert fe.gauss_legendre(n)[0] is pts
        assert np.array_equal(pts, 0.5 * (x + 1.0))
        assert np.array_equal(wts, 0.5 * w)
        for a in (pts, wts):
            with pytest.raises(ValueError):
                a[0] = 0.0


@pytest.mark.parametrize("p", [1, 3, 9])
def test_shared_grid_evaluation_matches_scattered_points(p):
    # two grids per shape, either direction contracted first, values
    # y-major per cell
    mesh, _ = moved_mesh_pair()
    sp = fe.Space(mesh, p)
    rng = np.random.default_rng(p)
    f = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
    cells = np.arange(0, len(mesh), 3)
    grid = rng.integers(0, 2, len(cells))
    derivs = [(0, 0), (1, 0), (0, 1), (2, 1), "lap"]
    for nx, ny in ((1, 5), (5, 1), (3, 2), (2, 3)):
        xi, eta = rng.random((2, nx)), rng.random((2, ny))
        got = fe.evaluate_in_cells([f] * len(derivs), cells, xi, eta,
                                   derivs, grid=grid)
        gx = np.tile(xi, ny)[grid]
        gy = np.repeat(eta, nx, axis=1)[grid]
        c = np.repeat(cells, nx * ny)
        x = (mesh.x0[cells, None] + mesh.hx[cells, None] * gx).ravel()
        y = (mesh.y0[cells, None] + mesh.hy[cells, None] * gy).ravel()
        want = fe.evaluate_in_cells([f] * len(derivs), c, x, y, derivs)
        for g, w in zip(got, want):
            assert g.shape == (len(cells), nx * ny)
            assert np.abs(g.ravel() - w).max() \
                <= 1e-12 * max(np.abs(w).max(), 1.0)


def loop_face_normal_derivs(field, fs):
    """face_normal_derivs by evaluating each face point on its own.

    The face's physical sample points along [lo, hi], each evaluated in
    its side's host cell through `evaluate_in_cells`' scattered path.
    """
    host = fe.transfer(fs.mesh, field.space.mesh).host
    t = field.space.ref.sample1d
    ns = len(t)
    seg = fs.lo[:, None] + (fs.hi - fs.lo)[:, None] * t[None, :]
    out = []
    for o, dv in ((0, (1, 0)), (1, (0, 1))):
        sel = np.flatnonzero(fs.orient == o)
        if len(sel) == 0:
            continue
        across = np.repeat(fs.coord[sel], ns)
        along = seg[sel].ravel()
        x, y = (across, along) if o == 0 else (along, across)
        sides = []
        for side in (fs.left[sel], fs.right[sel]):
            vals = fe.evaluate_in_cells([field], np.repeat(host[side], ns),
                                        x, y, [dv])[0]
            sides.append(vals.reshape(len(sel), ns))
        out.append((sel, sides[0], sides[1]))
    return out


def deep_mesh_pair():
    """(source, deep) meshes; deep grades down to level 39 at one point.

    The finest overlay of the two has faces up to 37 levels below their
    host cell in the source mesh.
    """
    src, _ = moved_mesh_pair()
    deep = Mesh.uniform(src.rect, 1)
    for _ in range(38):
        deep = deep.refine([deep.leaves[int(deep.locate(0.3, -0.2)[0])]])
    return src, deep


@pytest.mark.parametrize("p", [1, 2, 3, 4, 9])
def test_face_normal_derivs_by_class_match_the_pointwise_loop(p):
    """On own-mesh and overlay face sets of hanging-node meshes of a
    non-square rectangle, including a level-39 overlay."""
    rng = np.random.default_rng(30 + p)
    src, tgt = moved_mesh_pair()
    _, deep = deep_mesh_pair()
    assert max(deep.levels) == 39
    cases = [(src, src), (tgt, tgt), (src, src.overlay_finest(tgt)),
             (tgt, src.overlay_finest(tgt)), (src, src.overlay_finest(deep))]
    dls = set()
    for mesh, faces in cases:
        sp = fe.Space(mesh, p)
        f = fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
        fs = face_set(faces)
        host = fe.transfer(faces, mesh).host
        dls.update((faces.levels - mesh.levels[host]).tolist())
        got = fe.face_normal_derivs(f, fs)
        want = loop_face_normal_derivs(f, fs)
        assert len(got) == len(want) == 2
        for (sg, lg, rg), (sw, lw, rw) in zip(got, want):
            assert np.array_equal(sg, sw)
            scale = max(np.abs(lw).max(), np.abs(rw).max())
            assert lg.shape == lw.shape and rg.shape == rw.shape
            assert np.abs(lg - lw).max() <= 1e-12 * scale
            assert np.abs(rg - rw).max() <= 1e-12 * scale
    assert max(dls) >= 37


def test_face_classes_are_cached_per_mesh_and_degree():
    """Warm calls equal cold ones bitwise, on an own-mesh and an overlay
    face set; another degree builds its own grids."""
    rng = np.random.default_rng(41)
    src, tgt = moved_mesh_pair()
    for faces in (src, src.overlay_finest(tgt)):
        fields = [fe.Field.from_free(sp, rng.standard_normal(sp.n_free))
                  for sp in (fe.Space(src, 2), fe.Space(src, 3))
                  for _ in range(2)]
        # each cold call on a face set of its own, with nothing cached
        cold = [fe.face_normal_derivs(f, FaceSet(faces)) for f in fields]
        fs = face_set(faces)
        for f, want in zip(fields, cold):
            got = fe.face_normal_derivs(f, fs)
            assert len(got) == len(want) == 2
            for g, w in zip(got, want):
                assert all(np.array_equal(a, b) for a, b in zip(g, w))
        # keyed by a weak reference to the mesh, which may be fs's own
        mesh = weakref.ref(src)
        assert set(fs._classes) == {(mesh, 2), (mesh, 3)}
        for c2, c3 in zip(fs._classes[(mesh, 2)], fs._classes[(mesh, 3)]):
            assert np.array_equal(c2[2], c3[2])         # same grouping
            # each degree's grids along the faces hold its sample points
            for c, sp in ((c2, fields[0].space), (c3, fields[2].space)):
                assert sorted(xy.shape[1] for xy in c[3:]) \
                    == [1, len(sp.ref.sample1d)]
                assert not any(a.flags.writeable for a in c[2:])


def test_a_released_space_empties_and_evaluates_as_before():
    # a released space keeps no tensor bases, grids or condensation, and
    # evaluates its fields as before; using another space frees nothing
    from semiheat.linalg import step_operator
    mesh = Mesh.uniform(Rectangle(-1.0, 2.0, 0.0, 0.5), 2).refine([(2, 1, 1)])
    first = fe.Space(mesh, 3)
    second = fe.Space(mesh.refine([(3, 2, 2)]), 3)
    u = fe.Field.from_callable(first, lambda x, y: np.sin(3 * x) * y * y)
    op = step_operator(first, 0.1, 1.0)
    first.quadrature_points()
    before = [u.sample_values(d).tobytes() for d in ("val", "lap")]
    assert first._derived
    first.release()
    step_operator(second, 0.1, 1.0)
    assert first._derived == {}
    assert "condensation" in second._derived
    assert [u.sample_values(d).tobytes() for d in ("val", "lap")] == before
    x = np.ones(first.n_free)
    assert np.array_equal(op @ x, step_operator(first, 0.1, 1.0) @ x)
    assert "condensation" in second._derived
    second.release()
    assert second._derived == {} and "condensation" in first._derived


def test_a_left_space_rebuilds_its_derived_arrays_bit_for_bit():
    # a space keeps its numbering and constraints; what it derives from
    # them is dropped when the space is released and rebuilt on use
    from semiheat.linalg import step_operator
    src, _ = moved_mesh_pair()            # hanging faces, 2 x 1.5 domain
    sp = fe.Space(src, 3)
    assert sp.is_slave.any()
    u = fe.Field.from_free(
        sp, np.random.default_rng(7).standard_normal(sp.n_free))
    step_operator(sp, 0.1, 1.0)
    names = ("Q", "P", "node_coords", "free_index", "free_gids")
    held = {name: getattr(sp, name) for name in names}
    before = [u.sample_values(d).tobytes() for d in ("val", "lap")]
    sp.release()
    assert sp._derived == {}
    fresh = fe.Space(src, 3)
    for name in names:
        got = getattr(sp, name)
        assert got is not held[name]
        for want in (held[name], getattr(fresh, name)):
            assert got.shape == want.shape and got.dtype == want.dtype
            if name in ("Q", "P"):
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, part),
                                          getattr(want, part))
            else:
                assert np.array_equal(got, want)
    sp.release()
    assert sp._derived == {}
    assert [u.sample_values(d).tobytes() for d in ("val", "lap")] == before


def test_a_mesh_is_freed_when_its_last_reference_goes():
    # a mesh's face set, its transfers and a face-class grouping on its
    # own face set do not hold it, so no reference cycle keeps it alive
    gc.disable()
    try:
        m = Mesh.uniform(UNIT, 3)
        face_set(m)
        fe.transfer(m, m)
        ref = weakref.ref(m)
        del m
        assert ref() is None
        m = hanging_mesh()
        other = m.refine([m.leaves[-1]])
        fe.transfer(m, other)
        fe.transfer(other, m)
        fe.face_normal_derivs(fe.Field.zeros(fe.Space(m, 2)), face_set(m))
        refs = [weakref.ref(m), weakref.ref(other)]
        del m, other
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_eval_at_domain_corners():
    sp = fe.Space(Mesh.uniform(UNIT, 2), 2)
    f = fe.Field.from_callable(sp, lambda x, y: x + y)
    for x, y, want in ((0.0, 0.0, 0.0), (1.0, 1.0, 2.0), (1.0, 0.0, 1.0)):
        assert f.eval(x, y) == pytest.approx(want, abs=1e-12)


def test_non_square_cells():
    rect = Rectangle(0.0, 2.0, 0.0, 1.0)
    sp = fe.Space(Mesh.uniform(rect, 2).refine([(2, 0, 0)]), 2)
    g = fe.Field.from_callable(sp, lambda x, y: 1 + x * y + 0.5 * x * x - y * y)
    rng = np.random.default_rng(0)
    pts = rng.random((50, 2)) * np.array([2.0, 1.0])
    expect = 1 + pts[:, 0] * pts[:, 1] + 0.5 * pts[:, 0] ** 2 - pts[:, 1] ** 2
    assert np.abs(g.eval(pts[:, 0], pts[:, 1]) - expect).max() < 1e-12
    assert g.eval(pts[:, 0], pts[:, 1], deriv="lap") == pytest.approx(
        np.full(50, -1.0), abs=1e-11)


def test_dimension_counts_free_interior_dofs():
    mesh = Mesh.uniform(UNIT, 1)
    sp = fe.Space(mesh, 1)
    # 3x3 nodes, single interior node
    assert sp.n_global == 9
    assert sp.n_free == 1
    sp2 = fe.Space(mesh, 2)
    # 5x5 nodes, 3x3 interior
    assert sp2.n_global == 25
    assert sp2.n_free == 9


def loop_dofs(mesh, p):
    """Per-node loop numbering of the dofs: the oracle of `_build_dofs`."""
    nodes = fe.gauss_lobatto(p + 1)
    SB = 1 << LMAX
    gid_of = {}
    dofmap = np.empty((len(mesh), (p + 1) ** 2), dtype=np.int64)
    coords = []
    boundary = []
    for ci, key in enumerate(mesh.leaves):
        l, ix, iy = key
        s = 1 << (LMAX - l)
        X0, Y0 = ix * s, iy * s
        x0, y0, hx, hy = mesh.cell_box(ci)
        for j in range(p + 1):
            yb = 0 if j == 0 else (2 if j == p else 1)
            for i in range(p + 1):
                xb = 0 if i == 0 else (2 if i == p else 1)
                if xb != 1 and yb != 1:
                    X = X0 + (s if xb == 2 else 0)
                    Y = Y0 + (s if yb == 2 else 0)
                    ekey = ("v", X, Y)
                    bnd = X == 0 or X == SB or Y == 0 or Y == SB
                elif yb != 1:
                    Y = Y0 + (s if yb == 2 else 0)
                    ekey = ("h", X0, Y, s, i)
                    bnd = Y == 0 or Y == SB
                elif xb != 1:
                    X = X0 + (s if xb == 2 else 0)
                    ekey = ("u", X, Y0, s, j)
                    bnd = X == 0 or X == SB
                else:
                    ekey = ("c", l, ix, iy, i, j)
                    bnd = False
                gid = gid_of.get(ekey)
                if gid is None:
                    gid = len(gid_of)
                    gid_of[ekey] = gid
                    coords.append((x0 + hx * nodes[i], y0 + hy * nodes[j]))
                    boundary.append(bnd)
                dofmap[ci, j * (p + 1) + i] = gid
    return (dofmap, np.array(coords, dtype=float),
            np.array(boundary, dtype=bool))


@PROPERTY
@given(OPS, st.integers(1, 4))
def test_build_dofs_matches_loop_oracle(ops, p):
    mesh = build(ops)
    sp = fe.Space(mesh, p)
    dofmap, coords, boundary = loop_dofs(mesh, p)
    assert np.array_equal(sp.dofmap, dofmap)
    assert np.array_equal(sp.node_coords, coords)
    assert np.array_equal(sp.is_boundary, boundary)
    assert sp.n_global == len(coords)


def loop_constraints(sp):
    """Per-cell loop over the leaves' neighbours, with constraint chains
    resolved by a fixed point: the oracle of `_build_constraints`.

    Returns (P, resolve) as the space should have them.
    """
    from scipy.sparse import csr_matrix

    p = sp.degree
    mesh = sp.mesh
    dofmap = sp.dofmap
    W = sp.ref.half_trace
    raw = {}

    def edge_gids(ci, d):
        base = np.arange(p + 1)
        if d == "E":
            return dofmap[ci, base * (p + 1) + p]
        if d == "W":
            return dofmap[ci, base * (p + 1)]
        if d == "N":
            return dofmap[ci, p * (p + 1) + base]
        return dofmap[ci, base]

    opposite = {"E": "W", "W": "E", "N": "S", "S": "N"}
    for ci, key in enumerate(mesh.leaves):
        l, ix, iy = key
        for d in ("E", "W", "N", "S"):
            nbs = _neighbor_leaves(mesh.leafset, key, d)
            if len(nbs) != 1 or nbs[0][0] != l - 1:
                continue
            nci = mesh.index_of(nbs[0])
            slaves = edge_gids(ci, d)
            masters = edge_gids(nci, opposite[d])
            off = (iy if d in ("E", "W") else ix) & 1
            trace = W[off]
            skip = 0 if off == 0 else p
            for j in range(p + 1):
                if j == skip:
                    continue
                g = int(slaves[j])
                if g in raw:
                    continue
                raw[g] = [(int(masters[k]), trace[j, k])
                          for k in range(p + 1) if trace[j, k] != 0.0]

    for _ in range(60):
        changed = False
        for g, terms in raw.items():
            if any(m in raw for m, _ in terms):
                acc = {}
                for m, w in terms:
                    if m in raw:
                        for mm, ww in raw[m]:
                            acc[mm] = acc.get(mm, 0.0) + w * ww
                    else:
                        acc[m] = acc.get(m, 0.0) + w
                raw[g] = list(acc.items())
                changed = True
        if not changed:
            break
    else:
        raise RuntimeError("hanging-node constraint chains did not close")

    is_slave = np.zeros(sp.n_global, dtype=bool)
    is_slave[list(raw)] = True
    free_gids = np.flatnonzero(~(sp.is_boundary | is_slave))
    free_index = np.full(sp.n_global, -1, dtype=np.int64)
    free_index[free_gids] = np.arange(len(free_gids))
    rows, cols, vals = list(free_gids), list(range(len(free_gids))), \
        [1.0] * len(free_gids)
    srows, scols, svals = [], [], []
    for g, terms in raw.items():
        for m, w in terms:
            srows.append(g)
            scols.append(m)
            svals.append(w)
            if not sp.is_boundary[m]:
                rows.append(g)
                cols.append(free_index[m])
                vals.append(w)
    P = csr_matrix((vals, (rows, cols)), shape=(sp.n_global, len(free_gids)))
    slave_gids = np.array(sorted(raw), dtype=np.int64)
    slave_mat = csr_matrix((svals, (srows, scols)),
                           shape=(sp.n_global, sp.n_global))

    def resolve(raw_values):
        out = np.array(raw_values, dtype=float)
        if len(slave_gids):
            out[slave_gids] = (slave_mat @ out)[slave_gids]
        return out

    return P, resolve


@PROPERTY
@given(OPS, st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_build_constraints_matches_loop_oracle(ops, p, seed):
    sp = fe.Space(build(ops), p)
    P, resolve = loop_constraints(sp)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(sp.P, name), getattr(P, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert sp.P.shape == P.shape
    raw = np.random.default_rng(seed).standard_normal(sp.n_global)
    assert np.array_equal(sp.resolve(raw), resolve(raw))


def test_two_irregular_mesh_is_rejected():
    mesh = Mesh(UNIT, TWO_IRREGULAR)
    assert mesh.total_area() == pytest.approx(1.0, rel=1e-15)
    assert not mesh.is_one_irregular()
    assert not brute_force_one_irregular(mesh)
    with pytest.raises(ValueError, match="1-irregular"):
        fe.Space(mesh, 2)
