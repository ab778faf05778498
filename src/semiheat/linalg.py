"""Sparse assembly, the cell-by-cell step operator and SPD solves.

Matrices are scipy CSR; hanging-node and boundary constraints are
condensed through the space's constraint matrix P (A_free = P^T A P, a
CSR product throughout), so the solved systems stay symmetric positive
definite.  What depends only on the space is built on first use
(`_Condensation`): P^T, the cells sorted by level, the gather map
G = P[dofmap] with G^T, the condensed M and S and their diagonals.  One
space holds one at a time: building it for a new space frees the
previous space's, which is rebuilt if that space is used again.
The time-step matrix P^T (M/k + aS) P is never assembled:
`StepOperator` applies it as G^T (blocks (G x)), one dense local matrix
per mesh level.  The time-step systems are solved with diagonally
preconditioned conjugate gradients (`solve_spd`, which takes a sparse
matrix or any linear operator with a `diagonal()`); the one Poisson
system of the initial projection is factored by sparse LU
(`solve_direct`).  Both accept a solution only through one shared
residual check, ||Ax - b|| <= 1e-10 ||b||.
"""

import weakref

import numpy as np
from scipy.sparse import coo_matrix
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
    """What assembly and the step products reuse on one Space.

    Built on first use and held by one space at a time
    (`_condensation`):
    - `PT`, P^T as CSR.  scipy's `P.T` is a new CSC object on every
      access, and a CSC left factor makes `P^T A P` convert A to CSC.
    - The cells sorted stably by level: `level_cells` holds one cell of
      each level and `bounds` the start of each level's block, then the
      end.
    - The gather G = P[dofmap[order]] and its transpose, both CSR.  Row
      (c, i) of G maps free values to cell c's constrained value at
      local node i, in level order, so G^T sums cellwise values back
      onto the free dofs.
    The condensed M and S (a = 1) and their diagonals are filled in the
    first time they are asked for.
    """

    def __init__(self, space):
        P = space.P
        levels = space.mesh.levels
        order = np.argsort(levels, kind="stable")
        _, starts = np.unique(levels[order], return_index=True)
        self.level_cells = order[starts]
        self.bounds = np.append(starts, len(order))
        self.PT = P.T.tocsr()
        self.G = P[space.dofmap[order].ravel()]
        self.GT = self.G.T.tocsr()
        self.M = self.S_unit = self.diagonals = None


# The one space that holds a _Condensation, by weak reference so that it
# is not kept alive here.
_live = None


def _condensation(space):
    """The space's `_Condensation`, built on first use.

    Before building one, the previous holder's is dropped, so the
    condensed matrices of spaces a run has moved past are freed (a
    `Trajectory` keeps the spaces themselves).  Operators built earlier
    keep their own reference and keep working; a space used again
    builds its condensation again.
    """
    global _live
    cond = space._condensation
    if cond is None:
        previous = _live() if _live is not None else None
        if previous is not None:
            previous._condensation = None
        cond = space._condensation = _Condensation(space)
        _live = weakref.ref(space)
    return cond


def _assemble_full(space, local):
    """Scatter per-cell local matrices into a global CSR matrix.

    The COO indices are int32 when the dofs fit, so scipy does not keep
    an int32 copy of int64 index arrays alongside them.
    """
    index = np.int32 if space.n_global <= np.iinfo(np.int32).max \
        else np.int64
    dofmap = space.dofmap.astype(index, copy=False)
    ncells, nloc = dofmap.shape
    rows = np.repeat(dofmap, nloc, axis=1).ravel()
    cols = np.tile(dofmap, (1, nloc)).ravel()
    data = local.reshape(ncells, nloc * nloc).ravel()
    A = coo_matrix((data, (rows, cols)),
                   shape=(space.n_global, space.n_global))
    return A.tocsr()


def _assembled(space, mass, stiff, condensed):
    """mass * M + stiff * S, as P^T A P (all CSR) if condensed."""
    mesh = space.mesh
    A = _assemble_full(
        space, _cell_matrices(space.ref, mesh.hx, mesh.hy, mass, stiff))
    return _condensation(space).PT @ A @ space.P if condensed else A


def assemble_mass(space, condensed=True):
    """Mass matrix (phi_j, phi_i); condensed onto free dofs by default."""
    if not condensed:
        return _assembled(space, 1.0, 0.0, False)
    cond = _condensation(space)
    if cond.M is None:
        cond.M = _assembled(space, 1.0, 0.0, True)
    return cond.M


def assemble_stiffness(space, a, condensed=True):
    """Stiffness matrix a*(grad phi_j, grad phi_i), condensed by default."""
    if a <= 0:
        raise ValueError("diffusion coefficient must be positive")
    if not condensed:
        S = _assembled(space, 0.0, 1.0, False)
    else:
        cond = _condensation(space)
        if cond.S_unit is None:
            cond.S_unit = _assembled(space, 0.0, 1.0, True)
        S = cond.S_unit
    return a * S if a != 1.0 else S


class StepOperator(LinearOperator):
    """The IMEX step matrix P^T (M/k + aS) P, applied cell by cell.

    On a quadtree over a rectangle all cells of one level have the same
    size, so each level gets one dense local matrix; these are all an
    operator builds for its (k, a).  Everything else is the space's
    `_Condensation`, shared by every operator on the space.  A product is
    G^T @ blocks(G @ x): gather each cell's constrained nodal values,
    multiply each level's block of cells by its local matrix, and sum
    back onto the free dofs.  `nnz` counts the local-matrix entries one
    product touches.
    """

    def __init__(self, space, k, a):
        if k <= 0:
            raise ValueError("time step must be positive")
        if a <= 0:
            raise ValueError("diffusion coefficient must be positive")
        n = space.n_free
        super().__init__(np.float64, (n, n))
        self.space = space
        self.k = k
        self.a = a
        self._cond = cond = _condensation(space)
        cells = cond.level_cells
        local = _cell_matrices(space.ref, space.mesh.hx[cells],
                               space.mesh.hy[cells], 1.0 / k, a)
        self._blocks = list(zip(cond.bounds[:-1], cond.bounds[1:], local))
        self._nloc = space.dofmap.shape[1]
        self.nnz = space.dofmap.size * self._nloc

    def _matvec(self, x):
        cond = self._cond
        u = (cond.G @ np.ravel(x)).reshape(-1, self._nloc)
        v = np.empty_like(u)
        for start, end, local in self._blocks:
            np.matmul(u[start:end], local, out=v[start:end])
        return cond.GT @ v.ravel()

    def diagonal(self):
        """Bitwise the diagonal of the assembled M/k + aS.

        scipy divides a sparse matrix by k as a product with 1/k.
        """
        cond = self._cond
        if cond.diagonals is None:
            cond.diagonals = (assemble_mass(self.space).diagonal(),
                              assemble_stiffness(self.space, 1.0).diagonal())
        dM, dS = cond.diagonals
        return dM * (1.0 / self.k) + self.a * dS


def load_vector(space, quad_values, condensed=True):
    """Functional (g, phi_i) from pointwise values at the quadrature grid.

    quad_values has shape (ncells, n_quad) matching space.quadrature_points().
    The cellwise sums are added in flat order, as np.add.at does, in one
    bincount pass.
    """
    _, _, W = space.quadrature_points()
    B = space.tensor_basis("quad", 0, 0)
    cellwise = (np.asarray(quad_values) * W) @ B
    b = np.bincount(space.dofmap.ravel(), weights=cellwise.ravel(),
                    minlength=space.n_global)
    return _condensation(space).PT @ b if condensed else b


# Both solvers guarantee ||Ax - b||_2 <= _RTOL * ||b||_2.
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


def solve_direct(A, b):
    """Solve SPD system by sparse LU plus one step of iterative refinement.

    The factorization orders A + A^T by multiple minimum degree, which
    fills far less than column orderings on these symmetric systems.
    Guarantees ||Ax - b||_2 <= _RTOL * ||b||_2 or raises SolverFailure.
    """
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros(A.shape[0])
    lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    x = lu.solve(b)
    x = x + lu.solve(b - A @ x)
    return _checked("sparse LU", x, np.linalg.norm(A @ x - b), _RTOL * nb)
