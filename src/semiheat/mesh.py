"""Quadtree meshes of an axis-aligned rectangle.

Cells are identified by integer root paths (level, ix, iy) with
ix, iy in [0, 2**level), so containment, adjacency and the two mesh
overlays reduce to integer arithmetic and sorted integer-key lookups.
Meshes are immutable: refine/coarsen return new Mesh objects when
something changes, and an overlay of two nested meshes (identical ones
included) is one of its inputs, so it shares that input's cached
FaceSet.  A mesh caches its FaceSet and the `fespace.transfer`s onto
it, weakly keyed by their source meshes; its face set caches face-class
groupings weakly keyed by the field's mesh.  None of these holds a
mesh, so a mesh is freed when its last reference goes, and
`Mesh.release` drops both caches from a mesh a run has moved past.
`Mesh(rect, leaves)` trusts its leaf list: it checks neither that the
leaves tile the rectangle nor that they are 1-irregular (edge-adjacent
leaves differ by at most one level).  refine and coarsen keep a
1-irregular mesh 1-irregular; `is_one_irregular` checks a mesh, and
`fespace.Space` rejects any mesh that fails it.
"""

import weakref

import numpy as np

# Integer grid resolution used for exact corner/edge coordinates.
LMAX = 40


class DomainMismatchError(ValueError):
    """Raised when two meshes with different root rectangles are combined."""


class Rectangle:
    """Axis-aligned rectangle (x_min, x_max) x (y_min, y_max)."""

    __slots__ = ("x_min", "x_max", "y_min", "y_max")

    def __init__(self, x_min, x_max, y_min, y_max):
        if not (x_min < x_max and y_min < y_max):
            raise ValueError("degenerate rectangle")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.y_min = float(y_min)
        self.y_max = float(y_max)

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    @property
    def area(self):
        """Kept as the tests' exact value for tiling and mass sums."""
        return self.width * self.height

    def __eq__(self, other):
        return isinstance(other, Rectangle) and (
            self.x_min == other.x_min and self.x_max == other.x_max
            and self.y_min == other.y_min and self.y_max == other.y_max)

    def __hash__(self):
        return hash((self.x_min, self.x_max, self.y_min, self.y_max))

    def __repr__(self):
        return "Rectangle(%g, %g, %g, %g)" % (
            self.x_min, self.x_max, self.y_min, self.y_max)


def parent(key):
    l, ix, iy = key
    return (l - 1, ix >> 1, iy >> 1)


def children(key):
    l, ix, iy = key
    return ((l + 1, 2 * ix, 2 * iy), (l + 1, 2 * ix + 1, 2 * iy),
            (l + 1, 2 * ix, 2 * iy + 1), (l + 1, 2 * ix + 1, 2 * iy + 1))


class Mesh:
    """Immutable quadtree mesh over a rectangle, from a trusted leaf list.

    Nothing here enforces 1-irregularity; see the module docstring.
    """

    def __init__(self, rect, leaves):
        self.rect = rect
        self.leaves = tuple(sorted(leaves))
        self.leafset = frozenset(self.leaves)
        if len(self.leafset) != len(self.leaves):
            raise ValueError("duplicate leaf keys")
        self._index = {k: i for i, k in enumerate(self.leaves)}
        self._geometry()
        self._faces = None
        # fespace.transfer's, by source mesh; an entry goes with its source
        self._transfers = weakref.WeakKeyDictionary()

    @classmethod
    def uniform(cls, rect, level):
        """Uniformly refined mesh with 4**level congruent cells."""
        n = 1 << level
        return cls(rect, [(level, i, j) for j in range(n) for i in range(n)])

    def _geometry(self):
        lv = np.array([k[0] for k in self.leaves], dtype=np.int64)
        ix = np.array([k[1] for k in self.leaves], dtype=np.int64)
        iy = np.array([k[2] for k in self.leaves], dtype=np.int64)
        w, h = self.rect.width, self.rect.height
        scale = np.ldexp(1.0, -lv.astype(np.int32))
        self.levels = lv
        self.hx = w * scale
        self.hy = h * scale
        self.x0 = self.rect.x_min + ix * self.hx
        self.y0 = self.rect.y_min + iy * self.hy
        self.ix = ix
        self.iy = iy
        self.h = np.hypot(self.hx, self.hy)
        # Per-level tables for `_find`.  A level-l cell is keyed (rank of
        # its ix among the level's columns) << l | iy, exact in int64 for
        # fewer than 2**(63 - l) columns, where (ix << l) | iy itself
        # would overflow past level 31.
        self._level_keys = {}
        for l in np.unique(lv):
            sel = np.flatnonzero(lv == l)
            cols = np.unique(ix[sel])
            enc = (np.searchsorted(cols, ix[sel]) << l) | iy[sel]
            order = np.argsort(enc)
            self._level_keys[int(l)] = (cols, enc[order], sel[order])

    def __len__(self):
        return len(self.leaves)

    def _find(self, X, Y):
        """Indices of the leaves covering integer points, vectorized.

        (X, Y) lie on the grid [0, 2**LMAX)**2, where cell (l, ix, iy) has
        its low corner at (ix << (LMAX - l), iy << (LMAX - l)); points
        outside the grid give -1.
        """
        out = np.full(X.shape, -1, dtype=np.int64)
        big = 1 << LMAX
        todo = np.flatnonzero((X >= 0) & (X < big) & (Y >= 0) & (Y < big))
        for l, (cols, enc_sorted, idx) in self._level_keys.items():
            if todo.size == 0:
                break
            qx, qy = X[todo] >> (LMAX - l), Y[todo] >> (LMAX - l)
            col = np.minimum(np.searchsorted(cols, qx), len(cols) - 1)
            enc = (col << l) | qy
            pos = np.searchsorted(enc_sorted, enc)
            pos = np.minimum(pos, len(enc_sorted) - 1)
            hit = (cols[col] == qx) & (enc_sorted[pos] == enc)
            out[todo[hit]] = idx[pos[hit]]
            todo = todo[~hit]
        return out

    def release(self):
        """Drop the cached FaceSet and transfers; both are rebuilt on use."""
        self._faces = None
        self._transfers.clear()

    def drop_groupings(self, meshes):
        """Drop the face-class groupings its face set holds on `meshes`
        (`fespace._face_classes`)."""
        if self._faces is not None:
            for mesh in meshes:
                self._faces._classes.pop(mesh, None)

    def index_of(self, key):
        """Row of leaf `key`; kept as the tests' public key-to-row map."""
        return self._index[key]

    def cell_box(self, i):
        """(x0, y0, hx, hy) of leaf i."""
        return self.x0[i], self.y0[i], self.hx[i], self.hy[i]

    def min_diameter(self):
        """Smallest cell diagonal over all leaves."""
        return float(self.h.min())

    # -- refinement / coarsening ------------------------------------------

    def refine(self, marked):
        """Split every marked leaf into 4 children.

        Coarser edge neighbours of split leaves are split too, until no
        split leaf has one.  So a 1-irregular mesh stays 1-irregular; the
        result of refining any other mesh need not be 1-irregular.
        """
        marked = [self._index[k] for k in marked if k in self.leafset]
        if not marked:
            return self
        split = np.zeros(len(self), dtype=bool)
        split[marked] = True
        # A split leaf's coarser edge neighbours must split too: iterate
        # over the faces between unequal levels to a fixed point.
        fs = face_set(self)
        lv = self.levels
        finer = lv[fs.left] > lv[fs.right]
        coarser = lv[fs.left] < lv[fs.right]
        fine = np.concatenate([fs.left[finer], fs.right[coarser]])
        coarse = np.concatenate([fs.right[finer], fs.left[coarser]])
        while True:
            grow = coarse[split[fine] & ~split[coarse]]
            if not grow.size:
                break
            split[grow] = True
        if (lv[split] + 1 >= LMAX).any():
            raise ValueError("refinement exceeds maximum level")
        leaves = [k for k, cut in zip(self.leaves, split) if not cut]
        for i in np.flatnonzero(split):
            leaves.extend(children(self.leaves[i]))
        return Mesh(self.rect, leaves)

    def coarsen(self, marked):
        """Merge sibling quadruples whose 4 members are all marked.

        A merge is skipped when it would break 1-irregularity; surviving
        leaves are left unchanged.
        """
        marked = set(k for k in marked if k in self.leafset)
        groups = {}
        for k in marked:
            if k[0] == 0:
                continue
            groups.setdefault(parent(k), []).append(k)
        families = [par for par, kids in groups.items() if len(kids) == 4]
        if not families:
            return self
        # Level of the leaf covering each original leaf after the merges
        # so far.  Merges run from the finest families down; families at
        # one level are independent, since a merge there only lowers
        # leaves to one level below theirs.
        level = self.levels.copy()
        parents = []
        for l in sorted({par[0] + 1 for par in families}, reverse=True):
            pars = [par for par in families if par[0] + 1 == l]
            kids = np.array([[self._index[c] for c in children(par)]
                             for par in pars], dtype=np.int64)
            # A merged parent at level l-1 must not touch a leaf finer than
            # l: look up the leaf now covering each kid's neighbour cells.
            ix, iy = self.ix[kids].ravel(), self.iy[kids].ravel()
            finer = np.zeros(kids.size, dtype=bool)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                j = self._find((ix + dx) << (LMAX - l),
                               (iy + dy) << (LMAX - l))
                finer |= (j >= 0) & (level[j] > l)
            bad = finer.reshape(kids.shape).any(axis=1)
            kids = kids[~bad]
            level[kids] = l - 1
            parents.extend(par for par, b in zip(pars, bad) if not b)
        if not parents:
            return self
        kept = level == self.levels
        leaves = [k for k, keep in zip(self.leaves, kept) if keep]
        return Mesh(self.rect, leaves + parents)

    # -- overlays -----------------------------------------------------------

    def _check_same_domain(self, other):
        if self.rect != other.rect:
            raise DomainMismatchError("meshes live on different rectangles")

    def _input_or_new(self, other, leaves):
        """The input mesh with these leaves, else a new Mesh.

        An overlay refines (or coarsens) both inputs, so one with an
        input's leaf count has exactly that input's leaves.
        """
        for mesh in (other, self):
            if len(leaves) == len(mesh):
                return mesh
        return Mesh(self.rect, leaves)

    def _levels_at_centres(self, other):
        """Level of the leaf of `other` holding each leaf centre of self.

        A leaf centre is the integer point ((2*ix+1), (2*iy+1)) << (LMAX-l-1),
        exact for every level below LMAX.
        """
        shift = LMAX - 1 - self.levels
        j = other._find((2 * self.ix + 1) << shift, (2 * self.iy + 1) << shift)
        return other.levels[j]

    def _overlay(self, other, sign):
        """Overlay from the two meshes' levels at each other's leaf centres.

        With sign 1 (finest) a leaf is kept where the other mesh is no
        finer at its centre, with sign -1 (coarsest) where it is no
        coarser; a leaf of both meshes is taken from self only.
        """
        self._check_same_domain(other)
        if other is self:
            return self
        gap = sign * (self.levels - self._levels_at_centres(other))
        gap_other = sign * (other.levels - other._levels_at_centres(self))
        leaves = [self.leaves[i] for i in np.flatnonzero(gap >= 0)]
        leaves += [other.leaves[i] for i in np.flatnonzero(gap_other > 0)]
        return self._input_or_new(other, leaves)

    def overlay_finest(self, other):
        """Coarsest common refinement; the finer input itself if nested."""
        return self._overlay(other, 1)

    def overlay_coarsest(self, other):
        """Finest common coarsening; the coarser input itself if nested."""
        return self._overlay(other, -1)

    # -- point location -------------------------------------------------------

    def locate(self, x, y):
        """Leaf indices containing the points (vectorized).

        Points on shared cell boundaries resolve to one covering leaf;
        points outside the closed rectangle raise ValueError.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        u = (x - self.rect.x_min) / self.rect.width
        v = (y - self.rect.y_min) / self.rect.height
        eps = 1e-12
        if (u < -eps).any() or (u > 1 + eps).any() or \
           (v < -eps).any() or (v > 1 + eps).any():
            raise ValueError("point outside the mesh rectangle")
        big = 1 << LMAX
        iu = np.clip((u * big).astype(np.int64), 0, big - 1)
        iv = np.clip((v * big).astype(np.int64), 0, big - 1)
        out = self._find(iu, iv)
        if (out < 0).any():
            raise RuntimeError("point location failed; mesh does not tile?")
        return out

    # -- diagnostics ----------------------------------------------------------

    def is_one_irregular(self):
        """True when every edge-adjacent leaf pair differs by <= 1 level."""
        fs = face_set(self)
        return bool((np.abs(self.levels[fs.left] - self.levels[fs.right])
                     <= 1).all())

    def total_area(self):
        """Leaf area sum; kept for the tests' tiling invariant checks."""
        return float((self.hx * self.hy).sum())

    # -- output ---------------------------------------------------------------

    def dump_vtk(self, path, cell_data=None, title="semiheat mesh"):
        """Write a legacy-VTK ASCII unstructured grid of the leaves.

        Points are written per cell (4 per quad, duplicates allowed) in the
        order SW, SE, NE, NW; cells are VTK_QUAD (type 9) in leaf order;
        optional per-cell scalar arrays follow as CELL_DATA in the order of
        the `cell_data` dict.
        """
        n = len(self.leaves)
        lines = ["# vtk DataFile Version 3.0", title, "ASCII",
                 "DATASET UNSTRUCTURED_GRID", "POINTS %d double" % (4 * n)]
        for i in range(n):
            x0, y0, hx, hy = self.cell_box(i)
            lines.append("%.17g %.17g 0" % (x0, y0))
            lines.append("%.17g %.17g 0" % (x0 + hx, y0))
            lines.append("%.17g %.17g 0" % (x0 + hx, y0 + hy))
            lines.append("%.17g %.17g 0" % (x0, y0 + hy))
        lines.append("CELLS %d %d" % (n, 5 * n))
        for i in range(n):
            b = 4 * i
            lines.append("4 %d %d %d %d" % (b, b + 1, b + 2, b + 3))
        lines.append("CELL_TYPES %d" % n)
        lines.extend(["9"] * n)
        if cell_data:
            lines.append("CELL_DATA %d" % n)
            for name, values in cell_data.items():
                values = np.asarray(values, dtype=float)
                if values.shape != (n,):
                    raise ValueError("cell data %r has wrong length" % name)
                lines.append("SCALARS %s double 1" % name)
                lines.append("LOOKUP_TABLE default")
                lines.extend("%.17g" % v for v in values)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class FaceSet:
    """Interior faces of a mesh, each face listed once.

    Arrays (length nfaces): cell index on the low-coordinate side (`left`),
    on the high side (`right`), orientation (0 = normal along x, 1 = normal
    along y), the face coordinate and the segment [lo, hi] in the transverse
    direction.  Hanging faces appear piecewise: one face per fine-side edge,
    found from that finer side.  Faces are ordered by left cell, then
    orientation, then descending lo.  A face set holds no reference to
    its mesh, which caches it.
    """

    def __init__(self, mesh):
        lv = mesh.levels
        shift = LMAX - lv
        cells = np.arange(len(mesh))
        left, right, orient = [], [], []
        for o, dx, dy in ((0, 1, 0), (1, 0, 1)):
            for sign in (1, -1):
                # The leaf covering each leaf's same-level neighbour cell
                # on the high (sign 1) or low side; -1 at the boundary.
                j = mesh._find((mesh.ix + sign * dx) << shift,
                               (mesh.iy + sign * dy) << shift)
                # Keep coarser neighbours on both sides and equal ones on
                # the high side; a finer neighbour finds the face itself.
                nb = lv[j]
                hit = (j >= 0) & ((nb < lv) | (nb == lv) & (sign == 1))
                a, b = cells[hit], j[hit]
                left.append(a if sign == 1 else b)
                right.append(b if sign == 1 else a)
                orient.append(np.full(len(a), o))
        left = np.concatenate(left)
        right = np.concatenate(right)
        orient = np.concatenate(orient)
        pos = np.stack([mesh.x0, mesh.y0])
        size = np.stack([mesh.hx, mesh.hy])
        t = 1 - orient
        coord = pos[orient, left] + size[orient, left]
        lo = np.maximum(pos[t, left], pos[t, right])
        hi = np.minimum(pos[t, left] + size[t, left],
                        pos[t, right] + size[t, right])
        order = np.lexsort((-lo, orient, left))
        self.left = left[order]
        self.right = right[order]
        self.orient = orient[order]
        self.coord = coord[order]
        self.lo = lo[order]
        self.hi = hi[order]
        self.nfaces = len(left)
        # fespace._face_classes', by the field's mesh, then by degree
        self._classes = weakref.WeakKeyDictionary()


def face_set(mesh):
    """Cached FaceSet of a mesh."""
    if mesh._faces is None:
        mesh._faces = FaceSet(mesh)
    return mesh._faces
