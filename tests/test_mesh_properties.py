"""Property tests of the mesh invariants over random refine/coarsen runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiheat import estimators as est
from semiheat import fespace as fe
from semiheat.mesh import Mesh, Rectangle, children, face_set, parent
from test_mesh import (TWO_IRREGULAR, walk_coarsen, walk_faces,
                       walk_overlay_coarsest, walk_overlay_finest, walk_refine)

RECT = Rectangle(-1.0, 2.0, 0.0, 0.5)

# (refine?, leaf picks): a pick is reduced modulo the leaf count; coarsening
# marks all four siblings of each picked leaf.
OPS = st.lists(st.tuples(st.booleans(),
                         st.lists(st.integers(0, 1 << 20), min_size=1,
                                  max_size=5)),
               max_size=4)

PROPERTY = settings(max_examples=30, deadline=None)


def apply(mesh, op):
    refine, picks = op
    keys = [mesh.leaves[i % len(mesh)] for i in picks]
    if refine:
        return mesh.refine(keys)
    return mesh.coarsen([k for key in keys if key[0] > 0
                         for k in children(parent(key))])


def build(ops):
    mesh = Mesh.uniform(RECT, 1)
    for op in ops:
        mesh = apply(mesh, op)
    return mesh


@PROPERTY
@given(OPS)
def test_refine_coarsen_keep_tiling_and_one_irregularity(ops):
    mesh = Mesh.uniform(RECT, 1)
    for op in ops:
        mesh = apply(mesh, op)
        assert mesh.total_area() == pytest.approx(RECT.area, rel=1e-14)
        assert mesh.is_one_irregular()


@PROPERTY
@given(OPS, OPS)
def test_overlays_commute_and_are_idempotent(ops_a, ops_b):
    a, b = build(ops_a), build(ops_b)
    vee, wedge = a.overlay_finest(b), a.overlay_coarsest(b)
    assert set(vee.leaves) == set(b.overlay_finest(a).leaves)
    assert set(wedge.leaves) == set(b.overlay_coarsest(a).leaves)
    assert a.overlay_finest(a) is a
    assert a.overlay_coarsest(a) is a
    assert vee.total_area() == pytest.approx(RECT.area, rel=1e-14)
    assert wedge.total_area() == pytest.approx(RECT.area, rel=1e-14)
    # the overlays nest with both inputs
    for m in (a, b):
        assert m.overlay_finest(vee) is vee
        assert m.overlay_coarsest(wedge) is wedge


@PROPERTY
@given(OPS, OPS)
def test_overlays_match_tree_walks(ops_a, ops_b):
    a, b = build(ops_a), build(ops_b)
    assert a.overlay_finest(b).leaves == walk_overlay_finest(a, b)
    assert a.overlay_coarsest(b).leaves == walk_overlay_coarsest(a, b)


def test_overlays_match_tree_walks_at_level_39():
    # Two meshes graded down to level 39 at opposite corners of RECT.
    a = b = Mesh.uniform(RECT, 1)
    for l in range(1, 39):
        n = (1 << l) - 1
        a = a.refine([(l, n, n)])
        b = b.refine([(l, 0, 0)])
    assert (39, 0, 0) in b.leafset and (39, n * 2 + 1, n * 2 + 1) in a.leafset
    for m1, m2 in ((a, b), (b, a), (a, a.refine([(38, n - 1, n)]))):
        vee, wedge = m1.overlay_finest(m2), m1.overlay_coarsest(m2)
        assert vee.leaves == walk_overlay_finest(m1, m2)
        assert wedge.leaves == walk_overlay_coarsest(m1, m2)
        assert vee.total_area() == pytest.approx(RECT.area, rel=1e-14)


@PROPERTY
@given(OPS, st.lists(st.integers(0, 1 << 20), max_size=5))
def test_nested_overlays_are_the_inputs(ops, picks):
    a = build(ops)
    b = a.refine([a.leaves[i % len(a)] for i in picks])
    assert a.overlay_finest(b) is b
    assert a.overlay_coarsest(b) is a
    assert b.overlay_finest(a) is b
    assert b.overlay_coarsest(a) is a


@PROPERTY
@given(OPS, OPS, st.integers(1, 2))
def test_overlay_free_dofs_counts_the_finest_overlay_space(ops_a, ops_b, p):
    a, b = build(ops_a), build(ops_b)
    nested = b.refine([b.leaves[0]])
    for prev, nxt in ((a, b), (b, nested), (nested, b)):
        u_prev = fe.Field.zeros(fe.Space(prev, p))
        ws = est.SlabWorkspace(None, est.SlabEnd(u_prev, None),
                               fe.Space(nxt, p), 0.0)
        assert ws.overlay_free_dofs() == fe.Space(ws.vee, p).n_free


@PROPERTY
@given(st.one_of(OPS.map(build), st.just(Mesh(RECT, TWO_IRREGULAR))))
def test_face_set_matches_set_walk(mesh):
    fs = face_set(mesh)
    got = (fs.left, fs.right, fs.orient, fs.coord, fs.lo, fs.hi)
    for a, b in zip(got, walk_faces(mesh)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert fs.nfaces == len(fs.left)


@PROPERTY
@given(OPS, st.lists(st.integers(0, 1 << 20), max_size=8), st.booleans())
def test_refine_coarsen_match_set_walks(ops, picks, two_irregular):
    mesh = Mesh(RECT, TWO_IRREGULAR) if two_irregular else build(ops)
    keys = [mesh.leaves[i % len(mesh)] for i in picks]
    families = [k for key in keys if key[0] > 0
                for k in children(parent(key))]
    runs = [(Mesh.coarsen, walk_coarsen, families + keys)]
    # On a 2-irregular input the recursive walk may also split leaves it
    # created itself (test_refine_closure_splits_input_leaves_only).
    if not two_irregular:
        runs.append((Mesh.refine, walk_refine, keys))
    for method, walk, marks in runs:
        got, want = method(mesh, marks), walk(mesh, marks)
        assert got.leaves == want.leaves
        assert (got is mesh) == (want is mesh)
