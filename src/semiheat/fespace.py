"""Continuous tensor-product Lagrange elements on quadtree meshes.

Degree-p spaces use Gauss-Lobatto nodes per direction, hanging-node
constraints keep functions H1-conforming across level jumps, and the
boundary trace is fixed to zero.  The constraints need a 1-irregular mesh
(edge neighbours at most one level apart); `Space` rejects any other.
Pointwise maxima (the working replacement for true sup-norms) are taken
over a per-cell tensor grid of Gauss-Lobatto points of order p+3;
integrals use tensor Gauss quadrature of order p+2, exact for polynomials
of degree 2p+3 per direction.

What a space or mesh derives is cached on it until its `release`, which
the driver calls on what a run has moved past.  A released space keeps
what defines it: its mesh, degree, dof numbering, free-dof count,
boundary and slave flags and hanging-constraint triplets; a released
mesh keeps its leaves, geometry and lookup tables, without its face set
(and the face-class groupings on it) or the `transfer`s cached on it.
Everything dropped is rebuilt, bit for bit, on use.  What is built for a
pair of meshes, a `Transfer` or a face-class grouping, holds neither
mesh: it is cached on the target mesh or its face set, weakly keyed by
the source mesh, and what reads it takes the target mesh as an argument.
"""

import functools
from typing import NamedTuple

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


@functools.cache
def gauss_legendre(n):
    """n-point Gauss rule on [0, 1]: (points, weights).

    Built once per n and shared, so both arrays are read-only.
    """
    x, w = npleg.leggauss(n)
    rule = (0.5 * (x + 1.0), 0.5 * w)
    for a in rule:
        a.flags.writeable = False
    return rule


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

    def _series(self, deriv):
        """Legendre series of the cardinals' deriv-th derivatives."""
        if deriv not in self._dcoeffs:
            self._dcoeffs[deriv] = npleg.legder(self.coeffs, deriv)
        return self._dcoeffs[deriv]

    def eval(self, pts, deriv=0):
        """(npts, p+1) matrix of cardinal values/derivatives at pts."""
        pts = np.asarray(pts, dtype=float).ravel()
        vals = npleg.legval(2.0 * pts - 1.0, self._series(deriv), tensor=True)
        return vals.T * (2.0 ** deriv)

    def eval_orders(self, pts, orders):
        """{deriv: eval(pts, deriv)} for each deriv in orders.

        One Legendre-Vandermonde matrix of the points serves every
        order, one small product each; equal to `eval` up to rounding.
        """
        pts = np.asarray(pts, dtype=float).ravel()
        V = npleg.legvander(2.0 * pts - 1.0, self.p)
        out = {}
        for d in orders:
            series = self._series(d)      # one zero term when d > p
            out[d] = (V[:, :len(series)] @ series) * (2.0 ** d)
        return out

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


@functools.cache
def _ref(p):
    return _Ref1D(p)


def _derived_attr(build):
    """Read-only attribute `build(space)`, built on first use and held in
    the space's `_derived` under the attribute's name."""
    key = build.__name__

    def get(self):
        return self.cached(key, lambda: build(self))
    return property(get, doc=build.__doc__)


class Space:
    """Degree-p conforming space on a quadtree mesh with zero boundary trace.

    A space keeps what defines it: its mesh and degree, the dof
    numbering (`dofmap`, `n_global`), `n_free`, the `is_boundary` and
    `is_slave` flags and the hanging-node constraint triplets.  What is
    derived from these has one holder, `_derived`, and is built on first
    use: `Q`, `P`, `node_coords`, `free_index`, `free_gids`, the tensor
    bases, the grids and what other modules build on the space through
    `cached` (`linalg`'s condensation).  `release` drops all of it; the
    driver calls it on the spaces a run has moved past, and what was
    built from the dropped data keeps its own references and keeps
    working.  A released space rebuilds, bit for bit, what it is asked
    for again.
    """

    def __init__(self, mesh, degree):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.mesh = mesh
        self.degree = int(degree)
        self.ref = _ref(self.degree)
        self._derived = {}
        self._build_dofs()
        self._build_constraints()

    # -- enumeration --------------------------------------------------------

    def _build_dofs(self):
        """Number each node shared by neighbouring cells once.

        A local node's entity is a mesh vertex (X, Y), node i of the
        horizontal edge (X0, Y, size s), node j of the vertical edge
        (X, Y0, s), or interior node (i, j) of the cell (X0, Y0, s), in
        integer coordinates of the level-LMAX grid.  Equal entity keys are
        one global dof; dofs are numbered in order of first occurrence
        over (cell, local node), and take their boundary flag, and their
        coordinates (`node_coords`), from that occurrence.
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

        self.dofmap = dofmap.reshape(len(mesh), nloc)
        self.n_global = len(first)
        self.is_boundary = boundary.ravel()[first[rank]]

    @_derived_attr
    def node_coords(self):
        """(n_global, 2) coordinates of the dofs, taken from the first
        occurrence of each in `dofmap` (see `_build_dofs`)."""
        _, firsts = np.unique(self.dofmap, return_index=True)
        cell, loc = np.divmod(firsts, self.dofmap.shape[1])
        n1 = self.degree + 1
        mesh, nodes = self.mesh, self.ref.nodes
        return np.stack(
            [mesh.x0[cell] + mesh.hx[cell] * nodes[loc % n1],
             mesh.y0[cell] + mesh.hy[cell] * nodes[loc // n1]], axis=1)

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
        The constraints are kept as (slave, master, weight) triplets, from
        which `Q` is built.
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
        self.n_free = int(np.count_nonzero(~(self.is_boundary | is_slave)))
        self._hanging = (rows, cols, vals)

    @_derived_attr
    def free_gids(self):
        """Global ids of the free dofs (neither boundary nor slave), in
        order."""
        return np.flatnonzero(~(self.is_boundary | self.is_slave))

    @_derived_attr
    def free_index(self):
        """Free index of each global dof, -1 for the constrained ones."""
        index = np.full(self.n_global, -1, dtype=np.int64)
        index[self.free_gids] = np.arange(self.n_free)
        return index

    @_derived_attr
    def Q(self):
        """(n_global, n_global) CSR map of nodal values to conforming
        ones: identity rows, and the hanging triplets on the slaves."""
        from scipy.sparse import csr_matrix
        rows, cols, vals = self._hanging
        plain = np.flatnonzero(~self.is_slave)
        return csr_matrix(
            (np.concatenate([np.ones(len(plain)), vals]),
             (np.concatenate([plain, rows]), np.concatenate([plain, cols]))),
            shape=(self.n_global, self.n_global))

    @_derived_attr
    def P(self):
        """(n_global, n_free) CSR map of free values to coefficients: the
        free columns of `Q`."""
        return self.Q[:, self.free_gids]

    # -- derived data ----------------------------------------------------------

    def cached(self, key, build):
        """Derived data `key` of this space, `build()` on first use and
        held until `release`."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def release(self):
        """Drop everything derived, keeping what defines the space."""
        self._derived.clear()

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
        def build():
            t = self.ref.points(kind)
            dl, ox, oy = sub
            return np.kron(self.ref.eval_sub(t, dl, oy, dy),
                           self.ref.eval_sub(t, dl, ox, dx))

        return self.cached(("basis", kind, dx, dy) + tuple(sub), build)

    def _grid(self, kind):
        """Physical coordinates of the per-cell tensor grid (ncells, npts)."""
        return self.cached(("grid", kind), lambda: tensor_grid(
            self.mesh, slice(None), self.ref.points(kind)))

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
        of the homogeneous solution space.  Kept for the tests' exact fields.
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

        Not cached: a run reads each grid once.
        """
        return grid_values(self, self.space.mesh, "sample", deriv)

    def linf_norm(self):
        """Sampled max of |u| over all cells (approximate sup norm)."""
        return float(np.abs(self.sample_values("val")).max())

    # -- pointwise evaluation ---------------------------------------------------

    def eval(self, x, y, deriv=(0, 0)):
        """Evaluate at arbitrary points inside the closed rectangle."""
        out = evaluate_multi(self, np.asarray(x, dtype=float),
                             np.asarray(y, dtype=float), deriv)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out[0])
        return out

    def __call__(self, x, y):
        return self.eval(x, y)

    def jump_max_per_cell(self, derivs=None):
        """Per-cell max of |[[grad u]] . n| over interior faces.

        `derivs` may pass in this field's `face_normal_derivs` on its own
        mesh when the caller already has them.
        """
        mesh = self.space.mesh
        if derivs is None:
            derivs = face_normal_derivs(self, mesh)
        return faces_to_cells(mesh, [(sel, np.abs(gl - gr).max(axis=1))
                                     for sel, gl, gr in derivs])


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


# -- scattered evaluation -------------------------------------------------------


def evaluate_in_cells(field, cells, x, y, deriv, grid=None):
    """Evaluate a field at points with known containing cells.

    deriv: (dx, dy) or 'lap'.  Returns one value array.  The 1-D bases of
    the derivative orders it needs come from one Vandermonde matrix per
    direction (`_Ref1D.eval_orders`).

    Scattered points (the default): cells, x, y are flat arrays, one
    physical point per cell entry, and the value array is flat: per-point
    contractions over x, then y.

    Shared grids: x (grids, nx) and y (grids, ny) hold the 1-D reference
    coordinates in [0, 1] of tensor grids, and `grid` gives each cell
    the row of its grid.  The value array is (cells, ny * nx), y-major:
    one gather of the cells' coefficients and two contractions per cell,
    first over the direction with fewer points, with no basis evaluated
    per point.
    """
    space = field.space
    mesh = space.mesh
    cells = np.asarray(cells, dtype=np.int64).ravel()
    p = space.degree
    ref = space.ref
    hx = mesh.hx[cells]
    hy = mesh.hy[cells]
    orders = {0, 2} if deriv == "lap" else set(deriv)
    if grid is not None:
        nx, ny = np.shape(x)[1], np.shape(y)[1]
        BX = ref.eval_orders(x, orders)
        BY = ref.eval_orders(y, orders)
        hx, hy = hx[:, None], hy[:, None]

        def contract(C, dx, dy):
            bx = BX[dx].reshape(-1, nx, p + 1)[grid]
            by = BY[dy].reshape(-1, ny, p + 1)[grid]
            if nx <= ny:
                V = np.einsum("nbj,nja->nba", by,
                              np.einsum("nji,nai->nja", C, bx))
            else:
                V = np.einsum("nbi,nai->nba",
                              np.einsum("nbj,nji->nbi", by, C), bx)
            return V.reshape(len(C), -1)
    else:
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        xi = np.clip((x - mesh.x0[cells]) / hx, 0.0, 1.0)
        eta = np.clip((y - mesh.y0[cells]) / hy, 0.0, 1.0)
        BX = ref.eval_orders(xi, orders)
        BY = ref.eval_orders(eta, orders)

        def contract(C, dx, dy):
            return np.einsum("pj,pj->p",
                             np.einsum("pji,pi->pj", C, BX[dx]), BY[dy])

    C = field.coeffs[space.dofmap[cells]].reshape(len(cells), p + 1, p + 1)
    if deriv == "lap":
        return contract(C, 2, 0) / (hx * hx) + contract(C, 0, 2) / (hy * hy)
    dx, dy = deriv
    v = contract(C, dx, dy)
    if dx:
        v = v / hx ** dx
    if dy:
        v = v / hy ** dy
    return v


def evaluate_multi(field, x, y, deriv):
    """Evaluate a field at arbitrary points (with location)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    cells = field.space.mesh.locate(x, y)
    return evaluate_in_cells(field, cells, x, y, deriv)


def face_normal_derivs(field, mesh):
    """Normal derivative of a field on both sides of every face of `mesh`.

    Each face is sampled at the field's 1-D sample points, and each side in
    the host cell of its cell of `mesh` (`transfer(mesh, field's mesh)`),
    so `mesh` must be the field's mesh or refine it.  Returns one (face
    indices, left values, right values) triple per face orientation
    present, values shaped (faces, samples), faces indexed as in
    `face_set(mesh)`.

    The face sides are grouped into classes, each one reference grid of
    its host cells (`_face_classes`), and each orientation is one
    `evaluate_in_cells` call over its classes' grids.
    """
    fs = face_set(mesh)
    host = transfer(mesh, field.space.mesh).host
    out = []
    for o, dv, grid, xi, eta in _face_classes(mesh, field.space):
        sel, hosts = _face_sides(fs, host, o)
        vals = evaluate_in_cells(field, hosts, xi, eta, dv, grid=grid)
        out.append((sel, vals[:len(sel)], vals[len(sel):]))
    return out


def _face_sides(fs, host, o):
    """The faces of orientation o, and the host cells of their left
    then their right sides."""
    sel = np.flatnonzero(fs.orient == o)
    return sel, host[np.concatenate([fs.left[sel], fs.right[sel]])]


def _face_classes(mesh, space):
    """The face sides of `mesh`'s FaceSet grouped by their place in host
    cells.

    A face is an edge of its finer cell, dl >= 0 levels below a side's
    host cell in `space`'s mesh, so the side sees the face at a dyadic
    position of the host: across it at num / 2**dl, along it at
    (off + samples) / 2**dl, with integers num in [0, 2**dl] and off in
    [0, 2**dl).  Face sides are grouped by their class (orientation, dl,
    num, off), exact in int64 integers at every level below LMAX.

    Returns one (orientation, derivative, grid, xi, eta) tuple per
    orientation present: the class row of each side in `grid`, in the
    order of `_face_sides`, and the classes' reference grids, across
    point by the space's sample points.  The grouping depends only on
    the two meshes and the degree, so it is cached, read-only, on the
    face set, weakly keyed by the space's mesh and then by degree: an
    entry goes with that mesh, with the face set (`Mesh.release`), or
    when `Mesh.drop_groupings` drops it.  `grid` takes the smallest
    integer type that holds it.
    """
    src = space.mesh
    fs = face_set(mesh)
    by_degree = fs._classes.setdefault(src, {})
    classes = by_degree.get(space.degree)
    if classes is not None:
        return classes
    host = transfer(mesh, src).host
    t = space.ref.sample1d
    lv = mesh.levels
    fine_left = lv[fs.left] >= lv[fs.right]
    fine = np.where(fine_left, fs.left, fs.right)
    out = []
    for o, dv in ((0, (1, 0)), (1, (0, 1))):
        sel, hosts = _face_sides(fs, host, o)
        if len(sel) == 0:
            continue
        f = fine[sel]
        pos = (mesh.ix, mesh.iy) if o == 0 else (mesh.iy, mesh.ix)
        across = pos[0][f] + fine_left[sel]     # on the level of cell f
        along = pos[1][f]
        hpos = (src.ix, src.iy) if o == 0 else (src.iy, src.ix)
        dl = np.tile(lv[f], 2) - src.levels[hosts]
        keys = np.stack([dl, np.tile(across, 2) - (hpos[0][hosts] << dl),
                         np.tile(along, 2) - (hpos[1][hosts] << dl)], axis=1)
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        first = np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))
        grid = np.empty(len(order), dtype=np.min_scalar_type(len(order)))
        grid[order] = np.cumsum(first) - 1
        d, num, off = keys[first].T
        scale = np.ldexp(1.0, d)[:, None]
        a = num[:, None] / scale
        b = (off[:, None] + t) / scale
        xi, eta = (a, b) if o == 0 else (b, a)
        for arr in (grid, xi, eta):
            arr.setflags(write=False)
        out.append((o, dv, grid, xi, eta))
    by_degree[space.degree] = out
    return out


def faces_to_cells(mesh, per_face):
    """Per-cell max over a cell of `mesh` of per-face values.

    per_face is a list of (face indices, values), faces indexed as in
    `face_set(mesh)`; cells without a listed face get 0.
    """
    fs = face_set(mesh)
    out = np.zeros(len(mesh))
    for sel, vals in per_face:
        np.maximum.at(out, fs.left[sel], vals)
        np.maximum.at(out, fs.right[sel], vals)
    return out


# -- inter-mesh transfer ------------------------------------------------------


# Class key of the cells coarser than their host cell.
COARSER = (-1, 0, 0)


class Transfer(NamedTuple):
    """Where the cells of a mesh sit in the cells of a source mesh
    (`transfer`)."""

    host: np.ndarray
    classes: dict


def transfer(mesh, src_mesh):
    """Where each cell of `mesh` sits in the cells of `src_mesh`.

    Returns a Transfer: `host[i]` is the cell of `src_mesh` holding the
    centre of cell i (one `locate` of the centres), and `classes` maps
    (dl, ox, oy) to the cells that are the descendant dl levels below
    their host at integer offset (ox, oy) from its lower-left corner, in
    cells of their own level.  Cells coarser than their host share the key
    COARSER.  Meshes are immutable, so each pair of distinct meshes is
    built once and cached on `mesh`, weakly keyed by `src_mesh` (until it
    goes or `mesh.release()`); the identity, for `mesh is src_mesh`, is
    built on each call and not cached.
    """
    mesh._check_same_domain(src_mesh)
    if mesh is src_mesh:
        host = np.arange(len(mesh))
        return Transfer(host, {(0, 0, 0): host})
    tr = mesh._transfers.get(src_mesh)
    if tr is None:
        tr = mesh._transfers[src_mesh] = _build_transfer(mesh, src_mesh)
    return tr


def _build_transfer(mesh, src_mesh):
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
    return Transfer(host, classes)


def grid_values(field, mesh, kind, deriv="val"):
    """A field on the `kind` grids of the cells of `mesh`, a mesh of the
    field's rectangle.

    kind is "sample", "quad" or "nodes" (of the field's degree), deriv
    "val" or "lap"; returns (ncells, npts) like `Space.tensor_basis`.
    Each class of cells of `transfer(mesh, field's mesh)` is one product
    with its host's sub-cell basis; only cells coarser than their host
    locate their grid points.
    """
    sp = field.space
    if deriv not in ("val", "lap"):
        raise ValueError("unknown derivative kind %r" % deriv)
    tr = transfer(mesh, sp.mesh)
    t = sp.ref.points(kind)
    out = np.empty((len(mesh), len(t) ** 2))
    for ck, cells in tr.classes.items():
        if ck != COARSER:
            host = tr.host[cells]
            C = field.coeffs[sp.dofmap[host]]
            if deriv == "val":
                out[cells] = C @ sp.tensor_basis(kind, 0, 0, ck).T
            else:
                out[cells] = (C @ sp.tensor_basis(kind, 2, 0, ck).T) \
                    / (sp.mesh.hx[host] ** 2)[:, None] \
                    + (C @ sp.tensor_basis(kind, 0, 2, ck).T) \
                    / (sp.mesh.hy[host] ** 2)[:, None]
        else:
            X, Y = tensor_grid(mesh, cells, t)
            x, y = X.ravel(), Y.ravel()
            dv = "lap" if deriv == "lap" else (0, 0)
            vals = evaluate_in_cells(field, sp.mesh.locate(x, y), x, y, dv)
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
    raw[tgt.dofmap] = grid_values(field, tgt.mesh, "nodes")
    return Field(tgt, tgt.resolve(raw))
