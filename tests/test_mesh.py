"""Quadtree mesh operations: refinement closure, coarsening, overlays."""

import numpy as np
import pytest

from semiheat.mesh import Mesh, Rectangle, DomainMismatchError, face_set

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)


def leaf_boxes(mesh):
    return [(mesh.x0[i], mesh.y0[i], mesh.hx[i], mesh.hy[i])
            for i in range(len(mesh))]


def contains(outer, inner):
    ox, oy, ow, oh = outer
    ix, iy, iw, ih = inner
    eps = 1e-12
    return (ox - eps <= ix and iy >= oy - eps
            and ix + iw <= ox + ow + eps and iy + ih <= oy + oh + eps)


def count_containing(mesh, box):
    return sum(contains(b, box) for b in leaf_boxes(mesh))


def brute_force_one_irregular(mesh):
    # all-pairs edge adjacency check on the float boxes
    boxes = leaf_boxes(mesh)
    eps = 1e-12
    for i, (xa, ya, wa, ha) in enumerate(boxes):
        for j, (xb, yb, wb, hb) in enumerate(boxes):
            if i >= j:
                continue
            touch_x = abs(xa + wa - xb) < eps or abs(xb + wb - xa) < eps
            overlap_y = min(ya + ha, yb + hb) - max(ya, yb) > eps
            touch_y = abs(ya + ha - yb) < eps or abs(yb + hb - ya) < eps
            overlap_x = min(xa + wa, xb + wb) - max(xa, xb) > eps
            if (touch_x and overlap_y) or (touch_y and overlap_x):
                la = mesh.leaves[i][0]
                lb = mesh.leaves[j][0]
                if abs(la - lb) > 1:
                    return False
    return True


def random_mesh(rng, rect=UNIT, rounds=3, start=1):
    mesh = Mesh.uniform(rect, start)
    for _ in range(rounds):
        n = len(mesh)
        marked = [mesh.leaves[i] for i in rng.choice(n, size=max(1, n // 4),
                                                     replace=False)]
        mesh = mesh.refine(marked)
    return mesh


def test_refine_empty_is_identity():
    mesh = Mesh.uniform(UNIT, 2)
    assert mesh.refine([]) is mesh


def test_refine_root_gives_four_children():
    mesh = Mesh.uniform(UNIT, 0)
    refined = mesh.refine([(0, 0, 0)])
    assert len(refined) == 4
    assert all(k[0] == 1 for k in refined.leaves)


def test_double_refine_triggers_closure():
    mesh = Mesh.uniform(UNIT, 1)
    mesh = mesh.refine([(1, 0, 0)])
    mesh = mesh.refine([(2, 0, 0)])
    # the level-2 neighbors of the level-3 cells must have been split
    assert brute_force_one_irregular(mesh)
    assert mesh.is_one_irregular()
    assert mesh.total_area() == pytest.approx(1.0, rel=1e-12)


def test_coarsen_empty_is_identity():
    mesh = Mesh.uniform(UNIT, 2)
    assert mesh.coarsen([]) is mesh


def test_coarsen_full_quadruple_restores_root():
    mesh = Mesh.uniform(UNIT, 1)
    out = mesh.coarsen(list(mesh.leaves))
    assert len(out) == 1
    assert out.leaves[0] == (0, 0, 0)


def test_coarsen_needs_all_four_siblings():
    mesh = Mesh.uniform(UNIT, 1)
    out = mesh.coarsen(list(mesh.leaves)[:3])
    assert set(out.leaves) == set(mesh.leaves)


def test_coarsen_respects_one_irregularity():
    mesh = Mesh.uniform(UNIT, 1).refine([(1, 0, 0)])
    # merging the NE quadruple of the root is fine, but merging the
    # quadruple next to the level-2 cells would create a 2-level jump
    out = mesh.coarsen([k for k in mesh.leaves if k[0] >= 1])
    assert out.is_one_irregular()
    assert brute_force_one_irregular(out)


def test_refine_then_coarsen_roundtrip():
    rng = np.random.default_rng(7)
    mesh = random_mesh(rng, rounds=2)
    marked = [mesh.leaves[i] for i in rng.choice(len(mesh), size=3,
                                                 replace=False)]
    refined = mesh.refine(marked)
    children = [k for k in refined.leaves if k not in mesh.leafset]
    back = refined.coarsen(children)
    assert set(back.leaves) == set(mesh.leaves)


def test_overlay_idempotent_and_commutative():
    rng = np.random.default_rng(3)
    m1 = random_mesh(rng)
    m2 = random_mesh(rng)
    assert set(m1.overlay_finest(m1).leaves) == set(m1.leaves)
    assert set(m1.overlay_coarsest(m1).leaves) == set(m1.leaves)
    assert set(m1.overlay_finest(m2).leaves) == set(m2.overlay_finest(m1).leaves)
    assert set(m1.overlay_coarsest(m2).leaves) == set(m2.overlay_coarsest(m1).leaves)


def test_overlay_refinement_dominates():
    mesh = Mesh.uniform(UNIT, 1)
    finer = mesh.refine([(1, 1, 1)])
    assert set(mesh.overlay_finest(finer).leaves) == set(finer.leaves)
    assert set(mesh.overlay_coarsest(finer).leaves) == set(mesh.leaves)
    # nested meshes overlay to the inputs themselves, in either order
    assert mesh.overlay_finest(finer) is finer
    assert finer.overlay_finest(mesh) is finer
    assert mesh.overlay_coarsest(finer) is mesh
    assert finer.overlay_coarsest(mesh) is mesh


def test_overlay_quadrant_example():
    base = Mesh.uniform(UNIT, 2)
    nw = base.refine([k for k in base.leaves if k[1] < 2 and k[2] >= 2])
    se = base.refine([k for k in base.leaves if k[1] >= 2 and k[2] < 2])
    vee = nw.overlay_finest(se)
    both = base.refine([k for k in base.leaves
                        if (k[1] < 2 and k[2] >= 2) or (k[1] >= 2 and k[2] < 2)])
    assert set(vee.leaves) == set(both.leaves)
    wedge = nw.overlay_coarsest(se)
    assert set(wedge.leaves) == set(base.leaves)
    # brute-force containment: every vee leaf in exactly one leaf of each input
    for box in leaf_boxes(vee):
        assert count_containing(nw, box) == 1
        assert count_containing(se, box) == 1
    for m in (nw, se):
        for box in leaf_boxes(m):
            assert count_containing(wedge, box) == 1


def test_overlay_coarsest_of_vee_recovers_input():
    rng = np.random.default_rng(11)
    m1 = random_mesh(rng)
    m2 = random_mesh(rng)
    vee = m1.overlay_finest(m2)
    assert set(vee.overlay_coarsest(m1).leaves) == set(m1.leaves)


def test_overlay_domain_mismatch():
    m1 = Mesh.uniform(UNIT, 1)
    m2 = Mesh.uniform(Rectangle(0, 2, 0, 2), 1)
    with pytest.raises(DomainMismatchError):
        m1.overlay_finest(m2)


def test_min_diameter():
    assert Mesh.uniform(UNIT, 1).min_diameter() == pytest.approx(np.sqrt(2) / 2)
    assert Mesh.uniform(UNIT, 0).min_diameter() == pytest.approx(np.sqrt(2))
    big = Rectangle(-8, 8, -8, 8)
    mesh = Mesh.uniform(big, 0)
    for level in range(1, 6):
        key = next(k for k in mesh.leaves
                   if k[0] == level - 1 and
                   mesh.x0[mesh.index_of(k)] <= 0 < mesh.x0[mesh.index_of(k)] + mesh.hx[mesh.index_of(k)])
        mesh = mesh.refine([key])
    assert mesh.min_diameter() == pytest.approx(16 * np.sqrt(2) / 2 ** 5)


def test_area_preserved_through_operations():
    rng = np.random.default_rng(5)
    mesh = Mesh.uniform(Rectangle(-3, 5, 0, 2), 2)
    for _ in range(4):
        marked = [mesh.leaves[i] for i in rng.choice(len(mesh), size=4,
                                                     replace=False)]
        mesh = mesh.refine(marked)
        assert mesh.total_area() == pytest.approx(16.0, rel=1e-12)
        assert mesh.is_one_irregular()
        coarse = [mesh.leaves[i] for i in rng.choice(len(mesh), size=8,
                                                     replace=False)]
        mesh = mesh.coarsen(coarse)
        assert mesh.total_area() == pytest.approx(16.0, rel=1e-12)
        assert mesh.is_one_irregular()


def test_locate_points():
    rng = np.random.default_rng(2)
    mesh = random_mesh(rng, rounds=4)
    pts = rng.random((200, 2))
    idx = mesh.locate(pts[:, 0], pts[:, 1])
    for (x, y), i in zip(pts, idx):
        x0, y0, hx, hy = mesh.cell_box(int(i))
        assert x0 - 1e-12 <= x <= x0 + hx + 1e-12
        assert y0 - 1e-12 <= y <= y0 + hy + 1e-12
    with pytest.raises(ValueError):
        mesh.locate([1.5], [0.5])


def test_locate_below_max_level():
    # cell keys past level 31 used to overflow the int64 location keys
    mesh = Mesh.uniform(Rectangle(0, 1, 0, 1), 1)
    x = y = 1 - 1e-12
    for l in range(1, 39):
        mesh = mesh.refine([(l, 2 ** l - 1, 2 ** l - 1)])
        i = int(mesh.locate(x, y)[0])
        assert mesh.x0[i] <= x <= mesh.x0[i] + mesh.hx[i]
        assert mesh.y0[i] <= y <= mesh.y0[i] + mesh.hy[i]
    assert mesh.leaves[i] == (39, 2 ** 39 - 1, 2 ** 39 - 1)


def test_face_set_covers_interior():
    mesh = Mesh.uniform(UNIT, 1).refine([(1, 0, 0)])
    fs = face_set(mesh)
    # every face lies strictly inside and separates two distinct leaves
    assert fs.nfaces > 0
    assert (fs.left != fs.right).all()
    for n in range(fs.nfaces):
        if fs.orient[n] == 0:
            assert 0 < fs.coord[n] < 1
        else:
            assert 0 < fs.coord[n] < 1
        assert fs.hi[n] > fs.lo[n]


def test_vtk_dump(tmp_path):
    mesh = Mesh.uniform(UNIT, 1)
    path = tmp_path / "mesh.vtk"
    mesh.dump_vtk(str(path), cell_data={"v": np.arange(4.0)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "POINTS 16 double" in text
    assert "CELL_DATA 4" in text
    assert "SCALARS v double 1" in text
