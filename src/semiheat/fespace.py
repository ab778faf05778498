"""Continuous tensor-product Lagrange elements on quadtree meshes.

Degree-p spaces use Gauss-Lobatto nodes per direction, hanging-node
constraints keep functions H1-conforming across level jumps, and the
boundary trace is fixed to zero.  The constraints need a 1-irregular mesh
(edge neighbours at most one level apart); `Space` rejects any other.
Pointwise maxima (the working replacement for true sup-norms) are taken
over a per-cell tensor grid of Gauss-Lobatto points of order p+3;
integrals use tensor Gauss quadrature of order p+2, exact for polynomials
of degree 2p+3 per direction.
"""

from collections import namedtuple

import numpy as np
from numpy.polynomial import legendre as npleg

from .mesh import LMAX, face_set


def gauss_lobatto(n):
    """n Gauss-Lobatto points on [0, 1] with exact endpoints."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if n == 2:
        return np.array([0.0, 1.0])
    c = np.zeros(n)
    c[n - 1] = 1.0
    interior = npleg.Legendre(c).deriv().roots().real
    pts = 0.5 * (np.sort(interior) + 1.0)
    return np.concatenate(([0.0], pts, [1.0]))


def gauss_legendre(n):
    """n-point Gauss rule on [0, 1]: (points, weights)."""
    x, w = npleg.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


class _Ref1D:
    """Cardinal Lagrange basis on the degree-p Gauss-Lobatto nodes.

    Basis polynomials are stored as Legendre series for stable evaluation
    of values and derivatives at arbitrary points of [0, 1].
    """

    def __init__(self, p):
        self.p = p
        self.nodes = gauss_lobatto(p + 1)
        V = npleg.legvander(2.0 * self.nodes - 1.0, p)
        self.coeffs = np.linalg.inv(V)  # column k: series of cardinal k
        self._dcoeffs = {0: self.coeffs}
        self.sample1d = gauss_lobatto(p + 3)
        self.quad1d, self.quadw1d = gauss_legendre(p + 2)
        gB0 = self.eval(self.quad1d, 0)
        gB1 = self.eval(self.quad1d, 1)
        W = self.quadw1d[:, None]
        self.mass1 = gB0.T @ (W * gB0)
        self.stiff1 = gB1.T @ (W * gB1)
        # Coarse-edge trace weights at the two dyadic half-edges.
        self.half_trace = np.stack(
            [self.eval((off + self.nodes) / 2.0, 0) for off in (0, 1)])

    def eval(self, pts, deriv=0):
        """(npts, p+1) matrix of cardinal values/derivatives at pts."""
        pts = np.asarray(pts, dtype=float).ravel()
        if deriv not in self._dcoeffs:
            self._dcoeffs[deriv] = npleg.legder(self.coeffs, deriv)
        vals = npleg.legval(2.0 * pts - 1.0, self._dcoeffs[deriv],
                            tensor=True)
        return vals.T * (2.0 ** deriv)

    def eval_sub(self, pts, dl, off, deriv=0):
        """eval at (off + pts) / 2**dl.

        pts are reference coordinates of a descendant cell dl levels down
        at integer offset `off` inside the cell, so this is the cell's
        basis (derivatives in the cell's own coordinate) seen from there.
        """
        return self.eval((off + pts) / float(1 << dl), deriv)

    def points(self, kind):
        """1-D points of the "sample", "quad" or "nodes" tensor grid."""
        return {"sample": self.sample1d, "quad": self.quad1d,
                "nodes": self.nodes}[kind]


_REF_CACHE = {}


def _ref(p):
    if p not in _REF_CACHE:
        _REF_CACHE[p] = _Ref1D(p)
    return _REF_CACHE[p]


class Space:
    """Degree-p conforming space on a quadtree mesh with zero boundary trace."""

    def __init__(self, mesh, degree):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.mesh = mesh
        self.degree = int(degree)
        self.ref = _ref(self.degree)
        self._build_dofs()
        self._build_constraints()
        self._tensor_cache = {}
        self._grid_cache = {}
        self._condensation = None     # linalg's maps; one space holds them

    # -- enumeration --------------------------------------------------------

    def _build_dofs(self):
        """Number each node shared by neighbouring cells once.

        A local node's entity is a mesh vertex (X, Y), node i of the
        horizontal edge (X0, Y, size s), node j of the vertical edge
        (X, Y0, s), or interior node (i, j) of the cell (X0, Y0, s), in
        integer coordinates of the level-LMAX grid.  Equal entity keys are
        one global dof; dofs are numbered in order of first occurrence
        over (cell, local node), and take their coordinates and boundary
        flag from that occurrence.
        """
        p = self.degree
        mesh = self.mesh
        n1 = p + 1
        nloc = n1 * n1
        SB = 1 << LMAX
        s = (np.int64(1) << (LMAX - mesh.levels))[:, None]
        X0 = mesh.ix[:, None] * s
        Y0 = mesh.iy[:, None] * s
        i = np.tile(np.arange(n1), n1)       # local node j * (p+1) + i
        j = np.repeat(np.arange(n1), n1)
        xe = (i == 0) | (i == p)              # on a vertical edge
        ye = (j == 0) | (j == p)              # on a horizontal edge
        X = np.where(xe, X0 + s * (i == p), X0)
        Y = np.where(ye, Y0 + s * (j == p), Y0)
        kind = np.where(xe, np.where(ye, 0, 2), np.where(ye, 1, 3))
        size = np.where(kind == 0, 0, s)
        along = np.choose(kind, (0, i, j, j * n1 + i))
        boundary = (xe & ((X == 0) | (X == SB))) \
            | (ye & ((Y == 0) | (Y == SB)))

        n = X.size
        cols = [np.broadcast_to(c, X.shape).ravel()
                for c in (kind, X, Y, size, along)]
        order = np.lexsort(cols[::-1])          # stable: equal keys in flat order
        starts = np.zeros(n, dtype=bool)
        starts[0] = True
        for c in cols:
            c = c[order]
            starts[1:] |= c[1:] != c[:-1]
        first = order[starts]                 # first occurrence per entity
        rank = np.argsort(first)
        gid = np.empty(len(first), dtype=np.int64)
        gid[rank] = np.arange(len(first))
        dofmap = np.empty(n, dtype=np.int64)
        dofmap[order] = gid[np.cumsum(starts) - 1]

        firsts = first[rank]
        cell, loc = np.divmod(firsts, nloc)
        nodes = self.ref.nodes
        self.dofmap = dofmap.reshape(len(mesh), nloc)
        self.n_global = len(firsts)
        self.node_coords = np.stack(
            [mesh.x0[cell] + mesh.hx[cell] * nodes[loc % n1],
             mesh.y0[cell] + mesh.hy[cell] * nodes[loc // n1]], axis=1)
        self.is_boundary = boundary.ravel()[firsts]

    def _build_constraints(self):
        """Hanging-node constraints from the hanging faces of the mesh.

        On a face whose two cells differ by one level, the fine cell's edge
        nodes (slaves) take the trace of the coarse cell's opposite edge
        (masters) at their positions: `ref.half_trace[parity]`, the parity
        of the fine cell's index along the face picking the half of the
        coarse edge.  The vertex shared with the coarse edge is no slave;
        the midpoint, on both fine cells' edges, is kept once.  On a
        1-irregular mesh no master is a slave, so Q (identity rows for the
        other dofs) maps nodal values to conforming ones in one product.
        """
        mesh = self.mesh
        if not mesh.is_one_irregular():
            raise ValueError("hanging-node constraints need a 1-irregular "
                             "mesh (edge neighbours at most one level apart)")
        p = self.degree
        n1 = p + 1
        fs = face_set(mesh)
        jump = mesh.levels[fs.left] - mesh.levels[fs.right]
        hang = np.flatnonzero(jump != 0)
        fine_left = jump[hang] > 0
        fine = np.where(fine_left, fs.left[hang], fs.right[hang])
        coarse = np.where(fine_left, fs.right[hang], fs.left[hang])
        orient = fs.orient[hang]
        # edge[o, side]: local nodes of the cell's high (E/N, side 0) or
        # low (W/S, side 1) edge across a face of orientation o.
        base = np.arange(n1)
        edge = np.array([[base * n1 + p, base * n1],
                         [p * n1 + base, base]])
        side = np.where(fine_left, 0, 1)
        slaves = self.dofmap[fine[:, None], edge[orient, side]]
        masters = self.dofmap[coarse[:, None], edge[orient, 1 - side]]
        off = np.where(orient == 0, mesh.iy[fine], mesh.ix[fine]) & 1
        h, j = np.nonzero(base[None, :] != p * off[:, None])
        gids, first = np.unique(slaves[h, j], return_index=True)
        h, j = h[first], j[first]
        w = self.ref.half_trace[off[h], j]        # (slaves, masters)
        si, k = np.nonzero(w != 0.0)
        rows, cols, vals = gids[si], masters[h[si], k], w[si, k]

        is_slave = np.zeros(self.n_global, dtype=bool)
        is_slave[gids] = True
        if self.is_boundary[gids].any():
            raise RuntimeError("constrained dof on the boundary")
        if is_slave[cols].any():
            raise RuntimeError("a hanging-node master is itself constrained")
        self.is_slave = is_slave
        self.free_gids = np.flatnonzero(~(self.is_boundary | is_slave))
        self.n_free = len(self.free_gids)
        self.free_index = np.full(self.n_global, -1, dtype=np.int64)
        self.free_index[self.free_gids] = np.arange(self.n_free)

        plain = np.flatnonzero(~is_slave)
        from scipy.sparse import csr_matrix
        self.Q = csr_matrix(
            (np.concatenate([np.ones(len(plain)), vals]),
             (np.concatenate([plain, rows]), np.concatenate([plain, cols]))),
            shape=(self.n_global, self.n_global))
        self.P = self.Q[:, self.free_gids]

    # -- coefficient maps -----------------------------------------------------

    def resolve(self, raw_values):
        """Nodal values -> continuous coefficients, boundary values kept.

        Only the hanging entries change: each is recomputed as the trace of
        the coarse neighbor at its node position.
        """
        return self.Q @ np.asarray(raw_values, dtype=float)

    # -- tensor bases -----------------------------------------------------------

    def tensor_basis(self, kind, dx, dy, sub=(0, 0, 0)):
        """Basis matrix on the reference tensor grid.

        Rows run over grid points (y-major), columns over local dofs
        (y-major), entries l_i^(dx)(xi) * l_j^(dy)(eta).  With
        sub = (dl, ox, oy) the grid is that of the descendant cell dl
        levels down at offset (ox, oy) (see `_Ref1D.eval_sub`).
        """
        key = (kind, dx, dy) + tuple(sub)
        if key not in self._tensor_cache:
            t = self.ref.points(kind)
            dl, ox, oy = sub
            self._tensor_cache[key] = np.kron(self.ref.eval_sub(t, dl, oy, dy),
                                              self.ref.eval_sub(t, dl, ox, dx))
        return self._tensor_cache[key]

    def _grid(self, kind):
        """Physical coordinates of the per-cell tensor grid (ncells, npts)."""
        if kind not in self._grid_cache:
            self._grid_cache[kind] = tensor_grid(
                self.mesh, slice(None), self.ref.points(kind))
        return self._grid_cache[kind]

    def sample_points(self):
        return self._grid("sample")

    def quadrature_points(self):
        """(X, Y, W) with W the physical quadrature weights per cell."""
        X, Y = self._grid("quad")
        w = self.ref.quadw1d
        wflat = np.kron(w, w)
        W = (self.mesh.hx * self.mesh.hy)[:, None] * wflat[None, :]
        return X, Y, W


class Field:
    """Finite element function: a Space plus one coefficient per global dof."""

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.n_global,):
            raise ValueError("coefficient vector has wrong length")
        self.space = space
        self.coeffs = coeffs
        self._jump_cache = None

    @classmethod
    def zeros(cls, space):
        return cls(space, np.zeros(space.n_global))

    @classmethod
    def from_free(cls, space, free_values):
        free_values = np.asarray(free_values, dtype=float)
        if free_values.shape != (space.n_free,):
            raise ValueError("free vector has wrong length")
        return cls(space, space.P @ free_values)

    @classmethod
    def from_callable(cls, space, fn):
        """Nodal interpolant of fn with hanging constraints resolved.

        Boundary node values are kept as sampled; use from_free for fields
        of the homogeneous solution space.
        """
        xy = space.node_coords
        vals = np.asarray(fn(xy[:, 0], xy[:, 1]), dtype=float)
        return cls(space, space.resolve(vals))

    @property
    def free_values(self):
        return self.coeffs[self.space.free_gids]

    # -- structured evaluation on the cell sample grid -----------------------

    def sample_values(self, deriv="val"):
        """Per-cell sample-grid values, "val" or "lap" (ncells, npts).

        Not cached: a run keeps the fields it certifies, and reads each
        grid once.
        """
        return sample_grid_values(self, slice(None), deriv)

    def linf_norm(self):
        """Sampled max of |u| over all cells (approximate sup norm)."""
        return float(np.abs(self.sample_values("val")).max())

    # -- pointwise evaluation ---------------------------------------------------

    def eval(self, x, y, deriv=(0, 0)):
        """Evaluate at arbitrary points inside the closed rectangle."""
        out = evaluate_multi([self], np.asarray(x, dtype=float),
                             np.asarray(y, dtype=float), [deriv])[0]
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out[0])
        return out

    def __call__(self, x, y):
        return self.eval(x, y)

    def jump_max_per_cell(self, derivs=None):
        """Per-cell max of |[[grad u]] . n| over interior faces.

        `derivs` may pass in this field's `face_normal_derivs` on its own
        mesh's faces when the caller already has them.
        """
        if self._jump_cache is None:
            fs = face_set(self.space.mesh)
            if derivs is None:
                derivs = face_normal_derivs(self, fs)
            self._jump_cache = faces_to_cells(
                fs, len(self.space.mesh),
                [(sel, np.abs(gl - gr).max(axis=1)) for sel, gl, gr in derivs])
        return self._jump_cache


def tensor_grid(mesh, cells, t):
    """Physical points of the tensor grid of 1-D points t on mesh cells.

    One row per cell in `cells` (index array or slice), points y-major:
    returns (X, Y), each (ncells, len(t)**2).
    """
    n = len(t)
    tx = np.tile(t, n)
    ty = np.repeat(t, n)
    X = mesh.x0[cells, None] + mesh.hx[cells, None] * tx[None, :]
    Y = mesh.y0[cells, None] + mesh.hy[cells, None] * ty[None, :]
    return X, Y


def sample_grid_values(field, cells, deriv, sub=(0, 0, 0), kind="sample"):
    """Values ("val") or Laplacian ("lap") of a field on tensor grids.

    One row per cell in `cells` (index array or slice) over its `kind`
    grid ("sample", "quad" or "nodes"), or over the grid of its
    descendant `sub` (see `Space.tensor_basis`).
    """
    sp = field.space
    C = field.coeffs[sp.dofmap[cells]]
    if deriv == "val":
        return C @ sp.tensor_basis(kind, 0, 0, sub).T
    if deriv == "lap":
        return (C @ sp.tensor_basis(kind, 2, 0, sub).T) \
            / (sp.mesh.hx[cells] ** 2)[:, None] \
            + (C @ sp.tensor_basis(kind, 0, 2, sub).T) \
            / (sp.mesh.hy[cells] ** 2)[:, None]
    raise ValueError("unknown derivative kind %r" % deriv)


# -- scattered evaluation -------------------------------------------------------


def evaluate_in_cells(fields, cells, x, y, derivs):
    """Evaluate fields of one space at points with known containing cells.

    fields: list of Field on the same space; cells, x, y: flat arrays;
    derivs: list of (dx, dy) or 'lap' matching fields.  Returns one value
    array per field.  Fully vectorized: one 1-D basis evaluation per
    derivative order over all points, then per-point contractions.
    """
    space = fields[0].space
    mesh = space.mesh
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    cells = np.asarray(cells, dtype=np.int64).ravel()
    p = space.degree
    ref = space.ref
    hx = mesh.hx[cells]
    hy = mesh.hy[cells]
    xi = np.clip((x - mesh.x0[cells]) / hx, 0.0, 1.0)
    eta = np.clip((y - mesh.y0[cells]) / hy, 0.0, 1.0)
    orders = set()
    for d in derivs:
        if d == "lap":
            orders.update((0, 2))
        else:
            orders.update(d)
    BX = {o: ref.eval(xi, o) for o in orders}
    BY = {o: ref.eval(eta, o) for o in orders}
    local = space.dofmap[cells]
    outs = []
    cached = {}
    for fld, dv in zip(fields, derivs):
        C = cached.get(id(fld))
        if C is None:
            C = fld.coeffs[local].reshape(len(x), p + 1, p + 1)
            cached[id(fld)] = C
        if dv == "lap":
            v = np.einsum("pji,pj,pi->p", C, BY[0], BX[2]) / (hx * hx) \
                + np.einsum("pji,pj,pi->p", C, BY[2], BX[0]) / (hy * hy)
        else:
            dx, dy = dv
            v = np.einsum("pji,pj,pi->p", C, BY[dy], BX[dx])
            if dx:
                v = v / hx ** dx
            if dy:
                v = v / hy ** dy
        outs.append(v)
    return outs


def evaluate_multi(fields, x, y, derivs):
    """Evaluate fields of one space at arbitrary points (with location)."""
    space = fields[0].space
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    cells = space.mesh.locate(x, y)
    return evaluate_in_cells(fields, cells, x, y, derivs)


def face_normal_derivs(field, fs):
    """Normal derivative of a field on both sides of every face of a FaceSet.

    Each face is sampled at the field's 1-D sample points, and each side in
    the host cell of its face-set cell (`transfer(fs.mesh, field's mesh)`),
    so the face set's mesh must be the field's mesh or refine it.  Returns
    one (face indices, left values, right values) triple per face
    orientation present, values shaped (faces, samples).
    """
    host = transfer(fs.mesh, field.space.mesh).host
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
            vals = evaluate_in_cells([field], np.repeat(host[side], ns),
                                     x, y, [dv])[0]
            sides.append(vals.reshape(len(sel), ns))
        out.append((sel, sides[0], sides[1]))
    return out


def faces_to_cells(fs, ncells, per_face):
    """Per-cell max over a cell's faces of per-face values.

    per_face is a list of (face indices, values); cells without a listed
    face get 0.
    """
    out = np.zeros(ncells)
    for sel, vals in per_face:
        np.maximum.at(out, fs.left[sel], vals)
        np.maximum.at(out, fs.right[sel], vals)
    return out


# -- inter-mesh transfer ------------------------------------------------------


# Class key of the cells coarser than their host cell.
COARSER = (-1, 0, 0)

Transfer = namedtuple("Transfer", "mesh src_mesh host classes")


def transfer(mesh, src_mesh):
    """Where each cell of `mesh` sits in the cells of `src_mesh`.

    Returns a Transfer: `host[i]` is the cell of `src_mesh` holding the
    centre of cell i (one `locate` of the centres; the identity when
    `mesh is src_mesh`), and `classes` maps (dl, ox, oy) to the cells that
    are the descendant dl levels below their host at integer offset
    (ox, oy) from its lower-left corner, in cells of their own level.
    Cells coarser than their host share the key COARSER.  Meshes are
    immutable, so each pair is built once and cached on `mesh`.
    """
    if mesh.rect != src_mesh.rect:
        raise ValueError("meshes live on different rectangles")
    tr = mesh._transfers.get(src_mesh)
    if tr is None:
        tr = mesh._transfers[src_mesh] = _build_transfer(mesh, src_mesh)
    return tr


def _build_transfer(mesh, src_mesh):
    if mesh is src_mesh:
        host = np.arange(len(mesh))
        return Transfer(mesh, src_mesh, host, {(0, 0, 0): host})
    host = src_mesh.locate(mesh.x0 + 0.5 * mesh.hx, mesh.y0 + 0.5 * mesh.hy)
    dl = mesh.levels - src_mesh.levels[host]
    up = np.maximum(dl, 0)
    keys = np.stack([dl, mesh.ix - (src_mesh.ix[host] << up),
                     mesh.iy - (src_mesh.iy[host] << up)], axis=1)
    keys[dl < 0] = COARSER
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.ravel()
    classes = {tuple(ck): np.flatnonzero(inv == j)
               for j, ck in enumerate(uniq.tolist())}
    return Transfer(mesh, src_mesh, host, classes)


def grid_values(field, tr, kind, deriv="val"):
    """A field of `tr.src_mesh` on the `kind` grids of `tr.mesh`'s cells.

    kind is "sample", "quad" or "nodes" (of the field's degree), deriv
    "val" or "lap"; returns (ncells, npts) like `Space.tensor_basis`.
    Each class of cells is one product with its host's sub-cell basis;
    only cells coarser than their host locate their grid points.
    """
    if field.space.mesh is not tr.src_mesh:
        raise ValueError("field does not live on the transfer's source mesh")
    t = field.space.ref.points(kind)
    out = np.empty((len(tr.mesh), len(t) ** 2))
    for ck, cells in tr.classes.items():
        if ck != COARSER:
            out[cells] = sample_grid_values(field, tr.host[cells], deriv, ck,
                                            kind)
        else:
            X, Y = tensor_grid(tr.mesh, cells, t)
            x, y = X.ravel(), Y.ravel()
            dv = "lap" if deriv == "lap" else (0, 0)
            vals = evaluate_in_cells([field], tr.src_mesh.locate(x, y),
                                     x, y, [dv])[0]
            out[cells] = vals.reshape(X.shape)
    return out


def interpolate(field, target_space):
    """Nodal interpolation onto a space of the same degree and rectangle.

    Exact (pointwise) when the target mesh refines the source mesh; on
    coarsened regions only nodal values are preserved.
    """
    src = field.space
    tgt = target_space
    if src.degree != tgt.degree:
        raise ValueError("spaces have different degrees")
    if tgt is src:
        return Field(tgt, field.coeffs.copy())
    raw = np.empty(tgt.n_global)
    raw[tgt.dofmap] = grid_values(field, transfer(tgt.mesh, src.mesh),
                                  "nodes")
    return Field(tgt, tgt.resolve(raw))
