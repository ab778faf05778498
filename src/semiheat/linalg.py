"""Sparse assembly, the cell-by-cell step operator and SPD solves.

Matrices are scipy CSR; hanging-node and boundary constraints are
condensed through the space's constraint matrix P (A_free = P^T A P), so
the solved systems stay symmetric positive definite.  The time-step
matrix P^T (M/k + aS) P is never assembled: `StepOperator` applies it
cell by cell, one dense local matrix per mesh level.  The time-step
systems are solved with diagonally preconditioned conjugate gradients
(`solve_spd`, which takes a sparse matrix or any linear operator with a
`diagonal()`); the one Poisson system of the initial projection is
factored by sparse LU (`solve_direct`).  Both accept a solution only
through one shared residual check, ||Ax - b|| <= 1e-10 ||b||.
"""

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


def _scatter(dofmap, cellwise, n):
    """Global vector summing cellwise[c, i] into entry dofmap[c, i].

    Adds in flat order, as np.add.at does, in one bincount pass.
    """
    return np.bincount(dofmap.ravel(), weights=cellwise.ravel(), minlength=n)


def _assemble_full(space, local):
    """Scatter per-cell local matrices into a global CSR matrix."""
    dofmap = space.dofmap
    ncells, nloc = dofmap.shape
    rows = np.repeat(dofmap, nloc, axis=1).ravel()
    cols = np.tile(dofmap, (1, nloc)).ravel()
    data = local.reshape(ncells, nloc * nloc).ravel()
    A = coo_matrix((data, (rows, cols)),
                   shape=(space.n_global, space.n_global))
    return A.tocsr()


def assemble_mass(space, condensed=True):
    """Mass matrix (phi_j, phi_i); condensed onto free dofs by default."""
    if condensed and space._mass_free is not None:
        return space._mass_free
    mesh = space.mesh
    M_full = _assemble_full(
        space, _cell_matrices(space.ref, mesh.hx, mesh.hy, 1.0, 0.0))
    if not condensed:
        return M_full
    M = (space.P.T @ M_full @ space.P).tocsr()
    space._mass_free = M
    return M

def assemble_stiffness(space, a, condensed=True):
    """Stiffness matrix a*(grad phi_j, grad phi_i), condensed by default."""
    if a <= 0:
        raise ValueError("diffusion coefficient must be positive")
    if condensed and space._stiff_free_unit is not None:
        return (a * space._stiff_free_unit).tocsr() if a != 1.0 \
            else space._stiff_free_unit
    mesh = space.mesh
    S_full = _assemble_full(
        space, _cell_matrices(space.ref, mesh.hx, mesh.hy, 0.0, 1.0))
    if not condensed:
        return (a * S_full).tocsr() if a != 1.0 else S_full
    S_unit = (space.P.T @ S_full @ space.P).tocsr()
    space._stiff_free_unit = S_unit
    return (a * S_unit).tocsr() if a != 1.0 else S_unit


class StepOperator(LinearOperator):
    """The IMEX step matrix P^T (M/k + aS) P, applied cell by cell.

    On a quadtree over a rectangle all cells of one level have the same
    size, so each level gets one dense local matrix.  A product gathers
    the constrained nodal values per cell, multiplies each level's block
    of cells by its local matrix and scatters the sums back.  `nnz`
    counts the local-matrix entries one product touches.
    """

    def __init__(self, space, k, a):
        n = space.n_free
        super().__init__(np.float64, (n, n))
        self.space = space
        self.k = k
        self.a = a
        levels = space.mesh.levels
        order = np.argsort(levels, kind="stable")
        _, starts = np.unique(levels[order], return_index=True)
        first = order[starts]
        local = _cell_matrices(space.ref, space.mesh.hx[first],
                               space.mesh.hy[first], 1.0 / k, a)
        bounds = np.append(starts, len(order))
        self._blocks = list(zip(bounds[:-1], bounds[1:], local))
        self._dofmap = space.dofmap[order]
        self.nnz = self._dofmap.size * self._dofmap.shape[1]

    def _matvec(self, x):
        sp = self.space
        u = (sp.P @ np.ravel(x))[self._dofmap]
        v = np.empty_like(u)
        for start, end, local in self._blocks:
            np.matmul(u[start:end], local, out=v[start:end])
        return sp.P.T @ _scatter(self._dofmap, v, sp.n_global)

    def diagonal(self):
        """Bitwise the diagonal of the assembled M/k + aS.

        scipy divides a sparse matrix by k as a product with 1/k.
        """
        M = assemble_mass(self.space)
        S_unit = assemble_stiffness(self.space, 1.0)
        return M.diagonal() * (1.0 / self.k) + self.a * S_unit.diagonal()


def load_vector(space, quad_values, condensed=True):
    """Functional (g, phi_i) from pointwise values at the quadrature grid.

    quad_values has shape (ncells, n_quad) matching space.quadrature_points().
    """
    _, _, W = space.quadrature_points()
    B = space.tensor_basis("quad", 0, 0)
    cellwise = (np.asarray(quad_values) * W) @ B
    b = _scatter(space.dofmap, cellwise, space.n_global)
    if condensed:
        return space.P.T @ b
    return b


# Both solvers guarantee ||Ax - b||_2 <= _RTOL * ||b||_2.
_RTOL = 1e-10


def _checked(solver, A, b, x, tol):
    """x if ||Ax - b||_2 <= tol, else SolverFailure naming `solver`.

    A non-finite residual fails.
    """
    res = np.linalg.norm(A @ x - b)
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

    x = run(x0)
    if not np.linalg.norm(A @ x - b) <= _RTOL * nb:
        x = run(x)
    return _checked("conjugate gradients", A, b, x, _RTOL * nb)


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
    return _checked("sparse LU", A, b, x, _RTOL * nb)
