"""Quadtree meshes of an axis-aligned rectangle.

Cells are identified by integer root paths (level, ix, iy) with
ix, iy in [0, 2**level), so containment, adjacency and the two mesh
overlays reduce to integer arithmetic and set lookups.  Meshes are
immutable: refine/coarsen return new Mesh objects when something changes,
and an overlay of two nested meshes (identical ones included) is one of
its inputs, so it shares that input's cached FaceSet.  refine and
coarsen keep meshes 1-irregular (edge-adjacent leaves differ by at most
one level); `is_one_irregular` checks a mesh built from a leaf list.
"""

import numpy as np

# Integer grid resolution used for exact corner/edge coordinates.
LMAX = 40

_DIRS = ("E", "W", "N", "S")


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


class Mesh:
    """Immutable 1-irregular quadtree mesh over a rectangle."""

    def __init__(self, rect, leaves):
        self.rect = rect
        self.leaves = tuple(sorted(leaves))
        self.leafset = frozenset(self.leaves)
        if len(self.leafset) != len(self.leaves):
            raise ValueError("duplicate leaf keys")
        self._index = {k: i for i, k in enumerate(self.leaves)}
        self._geometry()
        self._faces = None

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
        self.max_level = int(lv.max()) if len(lv) else 0
        # Per-level tables for vectorized point location.  A level-l cell
        # is keyed (rank of its ix among the level's columns) << l | iy,
        # exact in int64 for fewer than 2**(63 - l) columns, where
        # (ix << l) | iy itself would overflow past level 31.
        self._level_keys = {}
        for l in np.unique(lv):
            sel = np.flatnonzero(lv == l)
            cols = np.unique(ix[sel])
            enc = (np.searchsorted(cols, ix[sel]) << l) | iy[sel]
            order = np.argsort(enc)
            self._level_keys[int(l)] = (cols, enc[order], sel[order])

    def __len__(self):
        return len(self.leaves)

    def index_of(self, key):
        return self._index[key]

    def cell_box(self, i):
        """(x0, y0, hx, hy) of leaf i."""
        return self.x0[i], self.y0[i], self.hx[i], self.hy[i]

    def min_diameter(self):
        """Smallest cell diagonal over all leaves."""
        return float(self.h.min())

    # -- refinement / coarsening ------------------------------------------

    def refine(self, marked):
        """Split every marked leaf into 4 children, restoring 1-irregularity."""
        marked = [k for k in marked if k in self.leafset]
        if not marked:
            return self
        ls = set(self.leaves)

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
        return Mesh(self.rect, ls)

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
        candidates = [(par, kids) for par, kids in groups.items()
                      if len(kids) == 4]
        if not candidates:
            return self
        ls = set(self.leaves)
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
            return self
        return Mesh(self.rect, ls)

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

    def overlay_finest(self, other):
        """Coarsest common refinement; the finer input itself if nested."""
        self._check_same_domain(other)
        if other is self:
            return self
        ls1, ls2 = self.leafset, other.leafset
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
        return self._input_or_new(other, out)

    def overlay_coarsest(self, other):
        """Finest common coarsening; the coarser input itself if nested."""
        self._check_same_domain(other)
        if other is self:
            return self
        ls1, ls2 = self.leafset, other.leafset
        out = []
        stack = [(0, 0, 0)]
        while stack:
            key = stack.pop()
            if key in ls1 or key in ls2:
                out.append(key)
            else:
                stack.extend(children(key))
        return self._input_or_new(other, out)

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
        out = np.full(x.shape, -1, dtype=np.int64)
        todo = np.arange(x.size)
        for l in range(self.max_level + 1):
            if todo.size == 0:
                break
            if l not in self._level_keys:
                continue
            cols, enc_sorted, idx = self._level_keys[l]
            shift = LMAX - l
            qx = iu[todo] >> shift
            col = np.minimum(np.searchsorted(cols, qx), len(cols) - 1)
            enc = (col << l) | (iv[todo] >> shift)
            pos = np.searchsorted(enc_sorted, enc)
            pos_c = np.minimum(pos, len(enc_sorted) - 1)
            hit = (cols[col] == qx) & (enc_sorted[pos_c] == enc)
            out[todo[hit]] = idx[pos_c[hit]]
            todo = todo[~hit]
            if todo.size == 0:
                break
        if todo.size:
            raise RuntimeError("point location failed; mesh does not tile?")
        return out

    # -- diagnostics ----------------------------------------------------------

    def is_one_irregular(self):
        """True when every edge-adjacent leaf pair differs by <= 1 level."""
        fs = face_set(self)
        return bool((np.abs(self.levels[fs.left] - self.levels[fs.right])
                     <= 1).all())

    def total_area(self):
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
    direction.  Hanging faces appear piecewise: one face per fine-side edge.
    """

    def __init__(self, mesh):
        self.mesh = mesh
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
        self.left = np.array(left, dtype=np.int64)
        self.right = np.array(right, dtype=np.int64)
        self.orient = np.array(orient, dtype=np.int64)
        self.coord = np.array(coord, dtype=float)
        self.lo = np.array(lo, dtype=float)
        self.hi = np.array(hi, dtype=float)
        self.nfaces = len(left)


def face_set(mesh):
    """Cached FaceSet of a mesh."""
    if mesh._faces is None:
        mesh._faces = FaceSet(mesh)
    return mesh._faces
