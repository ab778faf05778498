"""The condensed systems as cell-block operators, and SPD solves.

Hanging-node and boundary constraints are condensed onto the free dofs,
so the solved systems stay symmetric positive definite.  On a quadtree
over a rectangle the cells of one level share their local matrices, so
each level gets one dense matrix, with `blocks` the block diagonal of
them over the cells.  With G = P[dofmap], which maps the free values to
each cell's constrained nodal values, the condensed mass * M + stiff * S
is G^T (blocks G), and no such matrix is assembled on a run's path:
`BlockOperator` applies it as G^T (blocks (G x)).  The time step's
M/k + aS (`step_operator`), the M of its right-hand side and the S of
the initial projection's residual check are its cases.
`assemble_mass` and `assemble_stiffness` keep their names, which the
benchmark's tracer wraps (`perfbench/spans.py`), and return operators.
What depends only on the space is built on first use (`_Condensation`):
P^T, the cells sorted by level, G with G^T, the diagonals of M and S
and the buffers of the products.  The space holds it
(`fespace.Space.cached`) until the driver releases the space, and a
space used again rebuilds it.  The tests keep their own oracles (every
cell's matrix scattered onto the unconstrained dofs, G^T (blocks G)
assembled, scipy's `spsolve`).

The time-step systems are solved with diagonally preconditioned
conjugate gradients (`solve_spd`, which takes a sparse matrix or any
linear operator with a `diagonal()`); an operator's diagonal is bitwise
that of the assembled matrices, formed without them (`_diagonal`).  The
one Poisson system of the initial projection is solved by static
condensation (`factor_skeleton`): each level's cell interiors are
eliminated through a dense Schur complement and only the matrix on the
cell edges, the skeleton, is assembled, as scipy's product of the three
sparse factors, and factored by sparse LU.  `solve_skeleton` applies
S as an operator for one refinement step and the residual check.  Both
solvers accept a solution only through one shared residual check,
||Ax - b|| <= 1e-10 ||b||.

glibc keeps freed heap resident, so a run's RSS would stay near the
size of its largest arrays after they are gone.  `trim_heap` hands the
free pages back (`malloc_trim`); the projection calls it on entry,
between the skeleton product and its LU (`factor_skeleton`), between
the factor and the solve, and at its end (`scheme.project_initial`).

The products and the LU solves run on the OpenBLAS that numpy and scipy
ship, whose default pools spin a second thread on these vector sizes
and make CG's last bits depend on the thread count.  `one_blas_thread`
caps both pools at one thread for its duration and restores them; the
driver's runs wrap themselves in it.
"""

import contextlib
import ctypes
import functools
import glob
import os
import threading
from typing import Callable, NamedTuple

import numpy as np
import scipy
from scipy.sparse import csr_matrix
# the kernels behind scipy's sparse `@`, called on arrays it writes into
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import cg, splu, LinearOperator


class SolverFailure(RuntimeError):
    """A solver missed the requested tolerance; carries the final residual."""

    def __init__(self, solver, residual, tol):
        super().__init__("%s stalled: residual %.3e > tol %.3e"
                         % (solver, residual, tol))
        self.solver = solver
        self.residual = residual
        self.tol = tol


def _cell_matrices(ref, hx, hy, mass, stiff):
    """mass * (phi_j, phi_i) + stiff * (grad phi_j, grad phi_i) per cell.

    hx, hy are arrays of cell sizes; returns shape (len(hx), nloc, nloc).
    Local dof j * (p+1) + i is 1D basis i in x times basis j in y, so
    kron(m, s) is the d/dx part.  A zero coefficient drops its terms.
    """
    hx = np.asarray(hx, dtype=float)[:, None, None]
    hy = np.asarray(hy, dtype=float)[:, None, None]
    m, s = ref.mass1, ref.stiff1
    terms = []
    if mass:
        terms.append((mass * hx * hy) * np.kron(m, m))
    if stiff:
        terms.append((stiff * hy / hx) * np.kron(m, s)
                     + (stiff * hx / hy) * np.kron(s, m))
    return sum(terms[1:], terms[0])


class _Condensation:
    """What the operators reuse on one Space.

    Built on first use and held by the space (`_condensation`):
    - `PT`, P^T as CSR, which condenses load vectors.  scipy's `P.T` is
      a new CSC object on every access.
    - The cells sorted stably by level (`order`): `level_cells` holds
      one cell of each level and `bounds` the start of each level's
      block, then the end.  `level_matrices` gives the local matrices of
      the level_cells.
    - The gather G = P[dofmap[order]] and its transpose, both CSR.  Row
      (c, i) of G maps free values to cell c's constrained value at
      local node i, in level order, so G^T sums cellwise values back
      onto the free dofs.
    - What `gather` needs to compute G @ x without scipy's zero-filled
      result: the column of each unit row of G (a plain free dof), or
      the zero appended after x for an empty row (a boundary dof); the
      hanging rows (constrained dofs) as their own CSR matrix; and the
      buffers that x plus that zero, G @ x and the level products of an
      operator's product are written into.  They serve one product at a
      time (`lock`), so threads stepping on one space stay correct.
    The diagonals of M and the unit S are filled in the first time they
    are asked for (`BlockOperator.diagonal`).
    """

    def __init__(self, space):
        P = space.P
        levels = space.mesh.levels
        order = np.argsort(levels, kind="stable")
        _, starts = np.unique(levels[order], return_index=True)
        self.order = order
        self.level_cells = order[starts]
        self.bounds = np.append(starts, len(order))
        self.ref = space.ref
        self.hx = space.mesh.hx[self.level_cells]
        self.hy = space.mesh.hy[self.level_cells]
        self.PT = P.T.tocsr()
        rows = space.dofmap[order].ravel()
        self.G = P[rows]
        self.GT = self.G.T.tocsr()
        self.diagonals = None
        self.unit = space.free_index[rows]     # -1 for boundary and slaves
        self.unit[self.unit < 0] = space.n_free
        self.hanging = np.flatnonzero(space.is_slave[rows])
        self.G_hanging = self.G[self.hanging]
        self._x = np.zeros(space.n_free + 1)
        self.u = np.empty(space.dofmap.shape)
        self.v = np.empty_like(self.u)
        self.lock = threading.Lock()

    def gather(self, x):
        """G @ x, bitwise scipy's product, into the buffer `u`.

        scipy sums each row from 0.0, so a unit row gives 0.0 + x[c],
        which is x[c] but for -0.0, and an empty row gives 0.0: x + 0.0
        is copied before the zero slot and the unit and empty rows are
        read from it.  The hanging rows are scipy's own kernel.  The
        indices are in range by construction, and `take` copies through
        a temporary under its default mode="raise".
        """
        np.add(x, 0.0, out=self._x[:-1])
        u = self.u.reshape(-1)
        np.take(self._x, self.unit, out=u, mode="clip")
        u[self.hanging] = _csr_matvec(self.G_hanging, x)
        return self.u

    def level_matrices(self, mass, stiff):
        """mass * M + stiff * S on one cell of each level, in level order."""
        return _cell_matrices(self.ref, self.hx, self.hy, mass, stiff)


def _condensation(space):
    """The space's `_Condensation`, built on first use.

    The space holds it with the rest of its derived data, so it goes
    when the driver releases a space a run has moved past (a
    `Trajectory` keeps the spaces themselves).  Operators built earlier
    keep their own reference and keep working; a space used again builds
    its condensation again.
    """
    return space.cached("condensation", lambda: _Condensation(space))


def _csr_matvec(A, x):
    """A @ x for CSR A, bitwise scipy's: its kernel summing each row into
    a zeroed result, without the checks and dispatch of scipy's `@`."""
    y = np.zeros(A.shape[0])
    _sparsetools.csr_matvec(*A.shape, A.indptr, A.indices, A.data, x, y)
    return y


class BlockOperator(LinearOperator):
    """mass * M + stiff * S on the free dofs, applied cell by cell.

    An operator builds only one dense local matrix per level; the rest
    is the space's `_Condensation`, shared by every operator on it.  A
    product, G^T @ blocks(G @ x), gathers each cell's constrained nodal
    values (`_Condensation.gather`), multiplies each level's block of
    cells by its local matrix and sums back onto the free dofs, through
    the condensation's buffers, so only the result is a new vector.
    `nnz` counts the local-matrix entries one product touches.  The
    coefficients must be finite, non-negative and not both zero.
    """

    def __init__(self, space, mass, stiff):
        if not (0 <= mass < np.inf and 0 <= stiff < np.inf) \
                or mass == stiff == 0:
            raise ValueError("coefficients must be finite, non-negative and "
                             "not both zero: mass %r, stiff %r"
                             % (mass, stiff))
        n = space.n_free
        super().__init__(np.float64, (n, n))
        self.mass = mass
        self.stiff = stiff
        self._cond = cond = _condensation(space)
        self._blocks = list(zip(cond.bounds[:-1], cond.bounds[1:],
                                cond.level_matrices(mass, stiff)))
        self.nnz = space.dofmap.size * space.dofmap.shape[1]

    def _matvec(self, x):
        cond = self._cond
        with cond.lock:
            u, v = cond.gather(np.ravel(x)), cond.v
            for start, end, local in self._blocks:
                np.matmul(u[start:end], local, out=v[start:end])
            return _csr_matvec(cond.GT, v.reshape(-1))

    def diagonal(self):
        """mass diag(M) + stiff diag(S), bitwise from the assembled M and
        unit S (`_diagonal`): for a step, (1/k, a), the diagonal of the
        assembled M/k + aS, which scipy divides by k as a product with 1/k.
        """
        cond = self._cond
        if cond.diagonals is None:
            cond.diagonals = (_diagonal(cond, 1.0, 0.0),
                              _diagonal(cond, 0.0, 1.0))
        dM, dS = cond.diagonals
        return dM * self.mass + self.stiff * dS


def step_operator(space, k, a):
    """The IMEX step matrix M/k + aS, a `BlockOperator`; k, a > 0."""
    if not k > 0:
        raise ValueError("time step must be positive")
    if not a > 0:
        raise ValueError("diffusion coefficient must be positive")
    return BlockOperator(space, 1.0 / k, a)


def assemble_mass(space):
    """The mass matrix (phi_j, phi_i) on the free dofs, as an operator."""
    return BlockOperator(space, 1.0, 0.0)


def assemble_stiffness(space, a):
    """The stiffness matrix a (grad phi_j, grad phi_i) on the free dofs,
    as an operator; a must be positive and finite."""
    return BlockOperator(space, 0.0, a)


def _diagonal(cond, mass, stiff):
    """Bitwise the diagonal of the condensed mass * M + stiff * S as
    scipy's product G^T @ (B @ G) assembles it.

    B is the level blocks of the local matrices.  The sparse product
    G^T (B G) adds G[r, c] (B G)[r, c] over the rows r of G in order,
    and B G adds B[r, s] G[s, c] over the rows s of r's cell in order.
    Only the entries of B G on G's pattern are formed here, in the same
    order: a stable sort groups G's entries by (cell, column), each
    group holding its rows s in order, and `np.bincount` sums the
    products down each column.
    """
    G = cond.G
    local = cond.level_matrices(mass, stiff)
    n = local.shape[-1]
    col = G.indices
    cell, i = np.divmod(np.repeat(np.arange(G.shape[0]), np.diff(G.indptr)),
                        n)
    # (cell, column) as one int64 key: both are far below 2**31
    key = cell * np.int64(G.shape[1]) + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    size = np.diff(np.append(starts, len(order)))
    group = np.cumsum(first) - 1
    start, size_of = starts[group], size[group]
    i, g = i[order], G.data[order]
    block = np.repeat(np.arange(len(local)), np.diff(cond.bounds))[
        cell[order]]
    BG = local[block, i, i[start]] * g[start]
    for t in range(1, size.max(initial=1)):    # the group's t-th row s
        sel = np.flatnonzero(size_of > t)
        s = start[sel] + t
        BG[sel] = BG[sel] + local[block[sel], i[sel], i[s]] * g[s]
    weights = np.empty_like(BG)
    weights[order] = g * BG
    return np.bincount(col, weights=weights, minlength=G.shape[1])


def load_vector(space, quad_values):
    """Functional (g, phi_i) on the free dofs from pointwise values.

    quad_values are at the quadrature grid, shape (ncells, n_quad) matching
    space.quadrature_points().
    The cellwise sums are added in flat order, as np.add.at does, in one
    bincount pass.
    """
    _, _, W = space.quadrature_points()
    B = space.tensor_basis("quad", 0, 0)
    cellwise = (np.asarray(quad_values) * W) @ B
    b = np.bincount(space.dofmap.ravel(), weights=cellwise.ravel(),
                    minlength=space.n_global)
    return _condensation(space).PT @ b


# Every solver here guarantees ||Ax - b||_2 <= _RTOL * ||b||_2.
_RTOL = 1e-10


def _checked(solver, x, res, tol):
    """x if its residual ||Ax - b||_2, `res`, is <= tol, else a
    SolverFailure naming `solver`.

    A non-finite residual fails.
    """
    if not res <= tol:
        raise SolverFailure(solver, res, tol)
    return x


def solve_spd(A, b, x0=None):
    """Solve SPD system with diagonally preconditioned CG.

    A is a sparse matrix or any linear operator with a `diagonal()`.

    Guarantees ||Ax - b||_2 <= _RTOL * ||b||_2 or raises SolverFailure.
    CG's own stopping test watches its recursive residual, which can
    drift above the true one; an iterate that misses the bound restarts
    CG once from itself.
    """
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros(A.shape[0])
    d = A.diagonal()
    if (d <= 0).any():
        raise ValueError("matrix has non-positive diagonal entries")
    dinv = 1.0 / d
    n = A.shape[0]
    prec = LinearOperator((n, n), matvec=lambda v: dinv * v)

    def run(start):
        with np.errstate(divide="ignore", invalid="ignore"):
            return cg(A, b, x0=start, rtol=_RTOL, atol=0.0, maxiter=10 * n,
                      M=prec)[0]

    tol = _RTOL * nb
    x = run(x0)
    res = np.linalg.norm(A @ x - b)
    if not res <= tol:
        x = run(x)
        res = np.linalg.norm(A @ x - b)
    return _checked("conjugate gradients", x, res, tol)


def factor_skeleton(space):
    """S^-1 as a function of r, S the condensed unit stiffness.

    Static condensation: cell-interior nodes are never constrained, so
    each interior dof belongs to one cell.  Per level, the interior
    block K_ii of the local stiffness is inverted and the Schur
    complement K_ee - K_ei K_ii^-1 K_ie formed on the 4p edge nodes.
    The skeleton matrix, scipy's G_b^T @ (blocks @ G_b) with G_b the
    edge rows of G on the non-interior free dofs and `blocks` the block
    diagonal of the Schur complements in full dense rows, is factored
    by sparse LU, ordered by multiple minimum degree on A + A^T, which
    fills far less than column orderings on these symmetric systems.
    The heap is trimmed (`trim_heap`) just before, so the product's
    freed temporaries are not resident under the factor.  The interiors
    are recovered cell by cell.  Nothing is kept on the space; a space
    without free dofs has nothing to factor.
    """
    if space.n_free == 0:
        return np.zeros_like
    cond = _condensation(space)
    p = space.degree
    nloc = (p + 1) ** 2
    i, j = np.divmod(np.arange(nloc), p + 1)
    inside = (i % p != 0) & (j % p != 0)
    inner, edge = np.flatnonzero(inside), np.flatnonzero(~inside)
    K = cond.level_matrices(0.0, 1.0)
    Kii_inv = np.linalg.inv(K[:, inner[:, None], inner])
    Kei = K[:, edge[:, None], inner]
    schur = K[:, edge[:, None], edge] - Kei @ Kii_inv @ Kei.transpose(0, 2, 1)
    interior = space.free_index[space.dofmap[cond.order][:, inner]]
    on_skeleton = np.ones(space.n_free, dtype=bool)
    on_skeleton[interior] = False
    skeleton = np.flatnonzero(on_skeleton)
    ncells, n = len(cond.order), len(edge)
    edge_rows = (np.arange(ncells)[:, None] * nloc + edge).ravel()
    Gb = cond.G[edge_rows][:, skeleton]
    GbT = Gb.T.tocsr()
    # row c * n + i of the block diagonal is row i of cell c's block,
    # on columns c * n .. c * n + n - 1
    cols = np.arange(ncells * n).reshape(ncells, 1, n)
    B = csr_matrix((np.repeat(schur, np.diff(cond.bounds), axis=0).ravel(),
                    np.broadcast_to(cols, (ncells, n, n)).ravel(),
                    np.arange(0, ncells * n * n + 1, n)),
                   shape=(ncells * n, ncells * n))
    A = (GbT @ (B @ Gb)).tocsc()
    del B
    trim_heap()
    lu = splu(A, permc_spec="MMD_AT_PLUS_A")
    blocks = list(zip(cond.bounds[:-1], cond.bounds[1:], Kei, Kii_inv))

    def solve(r):
        rI = r[interior]
        moved = np.empty((len(rI), len(edge)))     # K_ei K_ii^-1 r_I
        for start, end, kei, inv in blocks:
            moved[start:end] = rI[start:end] @ inv @ kei.T
        xB = lu.solve(r[skeleton] - GbT @ moved.ravel())
        uE = (Gb @ xB).reshape(len(rI), len(edge))
        x = np.empty_like(r)
        x[skeleton] = xB
        for start, end, kei, inv in blocks:
            x[interior[start:end]] = (rI[start:end]
                                      - uE[start:end] @ kei) @ inv
        return x

    return solve


def solve_skeleton(solve, S, b):
    """Solve S x = b with `solve`, the `factor_skeleton` of S's space.

    S, a matrix or an operator (`assemble_stiffness`), serves one step
    of iterative refinement and the residual check.
    Guarantees ||Sx - b||_2 <= _RTOL * ||b||_2 or raises SolverFailure.
    """
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros(S.shape[0])
    x = solve(b)
    x = x + solve(b - S @ x)
    return _checked("skeleton LU", x, np.linalg.norm(S @ x - b), _RTOL * nb)


class _BlasPool(NamedTuple):
    """One bundled OpenBLAS library and its thread-count functions."""
    path: str
    get: Callable[[], int]
    set: Callable[[int], None]


def _pool(path):
    """The _BlasPool of the OpenBLAS library at `path`, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):   # 64-bit and 32-bit integer builds
            get = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            put = getattr(lib, prefix + "_set_num_threads" + suffix, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return _BlasPool(path, get, put)
    return None


@functools.cache
def _blas_pools():
    """The OpenBLAS pools numpy and scipy ship, looked up once.

    numpy's (numpy.libs) serves its vector products; scipy's (scipy.libs)
    is a separate library with its own pool and serves SuperLU.  Empty
    where neither ships one, e.g. a build against a system BLAS.
    """
    paths = []
    for package in (np, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            package.__name__ + ".libs")
        paths += glob.glob(os.path.join(libs, "*openblas*"))
    return [p for p in map(_pool, paths) if p is not None]


# Scopes of one_blas_thread open in this process, and the counts the
# outermost one found.  The pools are process-wide, so scopes in
# different threads share one cap.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = []


@contextlib.contextmanager
def one_blas_thread():
    """Cap every bundled OpenBLAS pool at one thread for the duration.

    Usable as `with one_blas_thread():` or as `@one_blas_thread()`.  The
    first scope to open saves the counts it finds and the last to close
    restores them, also when a body raises, so nested scopes and scopes
    overlapping in several threads leave the caller's counts as they
    were.  The counts are per process: other threads of the caller also
    see one BLAS thread meanwhile.  Does nothing where no pool is found.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [(pool, pool.get()) for pool in _blas_pools()]
            for pool, _ in _blas_saved:
                pool.set(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for pool, count in _blas_saved:
                    pool.set(count)


@functools.cache
def _malloc_trim():
    """glibc's `malloc_trim`, or None where the C library has none."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):     # no handle on the process's symbols
        return None
    trim = getattr(libc, "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return trim


def trim_heap():
    """Hand the free pages of every heap arena back to the system.

    glibc's `malloc_trim(0)`; does nothing where the C library has no
    such function.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
