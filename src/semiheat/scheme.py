"""First-order IMEX evolution: implicit diffusion, explicit reaction.

The initial field solves the discrete elliptic problem
(grad U0, grad V) = (-lap u0, V), by static condensation onto the cell
skeleton (`linalg.factor_skeleton`); each step then solves
(M/k + S) U_next = M(U_hat/k) + (f(., t_prev, U_prev), .) on the new
space, where U_hat is the nodal transfer of U_prev.  No global matrix
is assembled: M/k + S, the M of the right-hand side and the projection's
S are applied cell by cell (`linalg.BlockOperator`).  The reaction
functional takes the untransferred previous field, which is also what
the discrete-Laplacian closures use, at the quadrature points of the new
mesh: each new cell evaluates it with its host cell's sub-cell basis
(`fespace.grid_values`), so only the quadrature points of cells coarser
than their host are point-located.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from . import fespace as fe
from .linalg import (assemble_mass, assemble_stiffness, factor_skeleton,
                     load_vector, solve_skeleton, solve_spd, step_operator,
                     trim_heap)


class InitialLaplacian:
    """Pointwise -a * lap(u0); the slab-zero driving term."""

    def __init__(self, a, lap_u0):
        self.a = a
        self.lap_u0 = lap_u0

    def __call__(self, x, y):
        return -self.a * np.asarray(self.lap_u0(x, y), dtype=float)


class DiscreteLaplacian:
    """Pointwise f(x, t_prev, U_prev(x)) - (U_next(x) - U_hat(x)) / k.

    U_prev is the untransferred endpoint field of the previous mesh;
    U_hat its nodal transfer onto the next mesh.  Stored as a closure
    over the three fields, which the estimators evaluate on an overlay's
    sample grid (`estimators.SlabEnd.A_values`) and pass to `values`, so
    it carries no projection error.
    """

    def __init__(self, f, t_prev, k, u_prev, u_next, u_hat):
        self.f = f
        self.t_prev = t_prev
        self.k = k
        self.u_prev = u_prev
        self.u_next = u_next
        self.u_hat = u_hat

    def values(self, x, y, up, un, uh):
        """The closure at points (x, y) from the three fields' values there."""
        return np.asarray(self.f(x, y, self.t_prev, up), dtype=float) \
            - (un - uh) / self.k


@dataclass
class TimeSlab:
    """One certified interval (t_prev, t_next]: its endpoint spaces, the
    field it ends at, and the free dofs of the degree-p space on the
    overlay of its two meshes."""

    m: int
    t_prev: float
    t_next: float
    k: float
    space_prev: object
    space_next: object
    u_next: object
    overlay_dofs: int


@dataclass
class Trajectory:
    """Initial field plus the ordered time slabs of a run."""

    u0: object
    slabs: list = dfield(default_factory=list)

    @property
    def final_time(self):
        return self.slabs[-1].t_next if self.slabs else 0.0


def project_initial(problem, space):
    """Elliptic projection of the initial data onto the space.

    Solved once per space, by static condensation onto the cell
    skeleton (`linalg.factor_skeleton`) rather than by CG from zero.
    The factor comes first, so the quadrature points, -lap u0 and the
    load vector are not resident under the LU.  The LU is single
    precision; the stiffness operator S serves the residuals of
    `linalg.solve_skeleton`'s refinement in double precision, which
    brings U0 to the same residual bound as a double-precision factor,
    and its residual check; no S is assembled.  Freed heap goes back to
    the system here three times (`linalg.trim_heap`), besides the trim
    inside the factor before its LU: on entry, which returns what the
    superseded first-interval passes freed; between the factor and the
    load vector, which returns SuperLU's work arrays; and once the
    factor is dropped, which returns its pages before the caller's steps
    run.
    """
    trim_heap()
    solve = factor_skeleton(space)
    trim_heap()
    Xq, Yq, _ = space.quadrature_points()
    rhs = -np.asarray(problem.lap_u0(Xq, Yq), dtype=float)
    b = load_vector(space, rhs)
    S = assemble_stiffness(space, 1.0)
    u0 = fe.Field.from_free(space, solve_skeleton(solve, S, b))
    del S, solve
    trim_heap()
    return u0


def imex_step(problem, u_prev, space_next, k, t_prev):
    """One IMEX step; returns (U_next, U_hat).

    U_hat is the nodal transfer of u_prev onto space_next (identical to
    u_prev when the space is unchanged).
    """
    A = step_operator(space_next, k, problem.a)    # checks k > 0 and a > 0
    u_hat = u_prev if u_prev.space is space_next \
        else fe.interpolate(u_prev, space_next)
    M = assemble_mass(space_next)
    Xq, Yq, _ = space_next.quadrature_points()
    upq = fe.grid_values(u_prev, space_next.mesh, "quad")
    fq = np.asarray(problem.f(Xq, Yq, t_prev, upq), dtype=float)
    b = (M @ u_hat.free_values) / k + load_vector(space_next, fq)
    x = solve_spd(A, b, x0=u_hat.free_values)
    return fe.Field.from_free(space_next, x), u_hat
