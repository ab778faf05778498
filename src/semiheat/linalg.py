"""Sparse assembly and SPD solves for the mass/stiffness systems.

Matrices are scipy CSR; hanging-node and boundary constraints are
condensed through the space's constraint matrix P (A_free = P^T A P), so
the solved systems stay symmetric positive definite.  The time-step
systems are solved with diagonally preconditioned conjugate gradients
(`solve_spd`); the one Poisson system of the initial projection is
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


def _assemble_full(space, local):
    """Scatter one reference local matrix, scaled per cell, into global COO."""
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
    ref = space.ref
    Mloc = np.kron(ref.mass1, ref.mass1)
    scale = space.mesh.hx * space.mesh.hy
    local = scale[:, None, None] * Mloc[None, :, :]
    M_full = _assemble_full(space, local)
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
    ref = space.ref
    KM = np.kron(ref.mass1, ref.stiff1)   # d/dx part: rows (j, i)
    MK = np.kron(ref.stiff1, ref.mass1)   # d/dy part
    sx = space.mesh.hy / space.mesh.hx
    sy = space.mesh.hx / space.mesh.hy
    local = sx[:, None, None] * KM[None, :, :] + sy[:, None, None] * MK[None, :, :]
    S_full = _assemble_full(space, local)
    if not condensed:
        return (a * S_full).tocsr() if a != 1.0 else S_full
    S_unit = (space.P.T @ S_full @ space.P).tocsr()
    space._stiff_free_unit = S_unit
    return (a * S_unit).tocsr() if a != 1.0 else S_unit


def load_vector(space, quad_values, condensed=True):
    """Functional (g, phi_i) from pointwise values at the quadrature grid.

    quad_values has shape (ncells, n_quad) matching space.quadrature_points().
    """
    _, _, W = space.quadrature_points()
    B = space.tensor_basis("quad", 0, 0)
    cellwise = (np.asarray(quad_values) * W) @ B
    b = np.zeros(space.n_global)
    np.add.at(b, space.dofmap, cellwise)
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
