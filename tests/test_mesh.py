"""Quadtree mesh operations: refinement closure, coarsening, overlays."""

import numpy as np
import pytest

from semiheat.mesh import (LMAX, Mesh, Rectangle, DomainMismatchError,
                           children, face_set, parent)

UNIT = Rectangle(0.0, 1.0, 0.0, 1.0)

# A tiling with a level-3 leaf next to a level-1 leaf, which refine and
# coarsen never produce.
TWO_IRREGULAR = [(1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 0, 0), (2, 1, 0),
                 (2, 0, 1), (3, 2, 2), (3, 3, 2), (3, 2, 3), (3, 3, 3)]

# -- set-walk oracles ---------------------------------------------------------
# Per-key Python walks over leaf sets: the reference that the mesh's
# integer-key adjacency (FaceSet, refine, coarsen, overlays) is compared
# against.

_DIRS = ("E", "W", "N", "S")


def _same_level_neighbor(key, d):
    """Neighbor key at the same level, or None at the domain boundary."""
    l, ix, iy = key
    n = 1 << l
    if d == "E":
        return (l, ix + 1, iy) if ix + 1 < n else None
    if d == "W":
        return (l, ix - 1, iy) if ix > 0 else None
    if d == "N":
        return (l, ix, iy + 1) if iy + 1 < n else None
    return (l, ix, iy - 1) if iy > 0 else None


def _near_children(key, d):
    """The two children of `key` adjacent to the face seen from direction d.

    d is the direction of travel from the querying cell, so the relevant
    children of the neighbor candidate lie on the opposite side.
    """
    l, ix, iy = key
    if d == "E":   # querying cell looks east -> neighbor's west children
        return ((l + 1, 2 * ix, 2 * iy), (l + 1, 2 * ix, 2 * iy + 1))
    if d == "W":
        return ((l + 1, 2 * ix + 1, 2 * iy), (l + 1, 2 * ix + 1, 2 * iy + 1))
    if d == "N":
        return ((l + 1, 2 * ix, 2 * iy), (l + 1, 2 * ix + 1, 2 * iy))
    return ((l + 1, 2 * ix, 2 * iy + 1), (l + 1, 2 * ix + 1, 2 * iy + 1))


def _neighbor_leaves(leafset, key, d):
    """All leaves in `leafset` sharing a positive-length edge with key."""
    cand = _same_level_neighbor(key, d)
    if cand is None:
        return []
    # Equal or coarser neighbor: walk up the ancestor chain.
    k = cand
    while k[0] >= 0:
        if k in leafset:
            return [k]
        k = parent(k)
    # Finer neighbors: collect the leaves covering the shared face.
    out = []
    stack = [cand]
    while stack:
        k = stack.pop()
        if k in leafset:
            out.append(k)
        else:
            stack.extend(_near_children(k, d))
    return out


def walk_faces(mesh):
    """(left, right, orient, coord, lo, hi) of FaceSet by a per-leaf walk."""
    left, right, orient, coord, lo, hi = [], [], [], [], [], []
    for key in mesh.leaves:
        i = mesh.index_of(key)
        x0, y0, hx, hy = mesh.cell_box(i)
        for d, o in (("E", 0), ("N", 1)):
            for nb in _neighbor_leaves(mesh.leafset, key, d):
                j = mesh.index_of(nb)
                nx0, ny0, nhx, nhy = mesh.cell_box(j)
                if o == 0:
                    a = max(y0, ny0)
                    b = min(y0 + hy, ny0 + nhy)
                    coord.append(x0 + hx)
                else:
                    a = max(x0, nx0)
                    b = min(x0 + hx, nx0 + nhx)
                    coord.append(y0 + hy)
                left.append(i)
                right.append(j)
                orient.append(o)
                lo.append(a)
                hi.append(b)
    return (np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
            np.array(orient, dtype=np.int64), np.array(coord, dtype=float),
            np.array(lo, dtype=float), np.array(hi, dtype=float))


def walk_refine(mesh, marked):
    """Mesh.refine by a recursive split over a leaf set."""
    marked = [k for k in marked if k in mesh.leafset]
    if not marked:
        return mesh
    ls = set(mesh.leaves)

    def split(key):
        if key not in ls:
            return
        l = key[0]
        if l + 1 >= LMAX:
            raise ValueError("refinement exceeds maximum level")
        # Coarser edge neighbors must split first.
        for d in _DIRS:
            cand = _same_level_neighbor(key, d)
            if cand is None:
                continue
            k = cand
            while k[0] >= 0:
                if k in ls:
                    if k[0] < l:
                        split(k)
                    break
                k = parent(k)
        ls.discard(key)
        ls.update(children(key))

    for key in sorted(marked, key=lambda k: -k[0]):
        split(key)
    return Mesh(mesh.rect, ls)


def walk_coarsen(mesh, marked):
    """Mesh.coarsen by sequential merges checked with set walks."""
    marked = set(k for k in marked if k in mesh.leafset)
    groups = {}
    for k in marked:
        if k[0] == 0:
            continue
        groups.setdefault(parent(k), []).append(k)
    candidates = [(par, kids) for par, kids in groups.items()
                  if len(kids) == 4]
    if not candidates:
        return mesh
    ls = set(mesh.leaves)
    changed = False
    for par, kids in sorted(candidates, key=lambda t: (-t[0][0],) + t[0][1:]):
        if not all(k in ls for k in kids):
            continue
        # Merged parent at level l-1 must not touch a leaf at level > l.
        l = par[0] + 1
        ok = True
        for d in _DIRS:
            for nb in _neighbor_leaves(ls, par, d):
                if nb[0] > l:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            ls.difference_update(kids)
            ls.add(par)
            changed = True
    if not changed:
        return mesh
    return Mesh(mesh.rect, ls)


def walk_overlay_finest(m1, m2):
    """Leaves of Mesh.overlay_finest by a tree walk from the root."""
    ls1, ls2 = m1.leafset, m2.leafset
    out = []
    stack = [((0, 0, 0), False, False)]
    while stack:
        key, c1, c2 = stack.pop()
        c1 = c1 or key in ls1
        c2 = c2 or key in ls2
        if c1 and c2:
            out.append(key)
        else:
            stack.extend((ch, c1, c2) for ch in children(key))
    return tuple(sorted(out))


def walk_overlay_coarsest(m1, m2):
    """Leaves of Mesh.overlay_coarsest by a tree walk from the root."""
    ls1, ls2 = m1.leafset, m2.leafset
    out = []
    stack = [(0, 0, 0)]
    while stack:
        key = stack.pop()
        if key in ls1 or key in ls2:
            out.append(key)
        else:
            stack.extend(children(key))
    return tuple(sorted(out))


# -- tests --------------------------------------------------------------------


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


def test_refine_level_cap():
    mesh = Mesh.uniform(UNIT, 1)
    for l in range(1, 39):
        mesh = mesh.refine([(l, 2 ** l - 1, 2 ** l - 1)])
    deepest = (39, 2 ** 39 - 1, 2 ** 39 - 1)
    assert deepest in mesh.leafset
    with pytest.raises(ValueError, match="refinement exceeds maximum level"):
        mesh.refine([deepest])
    key = (38, 2 ** 38 - 2, 2 ** 38 - 1)
    out = mesh.refine([key])
    assert set(children(key)) <= out.leafset
    assert out.is_one_irregular()


def test_refine_closure_splits_input_leaves_only():
    # The closure is taken over the input mesh's faces: the marked level-3
    # leaf pulls in its coarser neighbours (2, 0, 1) and (1, 0, 1), but not
    # the child (2, 1, 2) of (1, 0, 1), so a 2-irregular input stays so.
    mesh = Mesh(UNIT, TWO_IRREGULAR)
    out = mesh.refine([(3, 2, 3)])
    split = {(3, 2, 3), (2, 0, 1), (1, 0, 1)}
    want = (set(TWO_IRREGULAR) - split) | {c for k in split
                                            for c in children(k)}
    assert set(out.leaves) == want


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
