"""A posteriori error machinery for the IMEX discretization.

Per slab the pieces are: a per-cell space estimator (interior residual of
the discrete Laplacian plus gradient jumps), its logged two-endpoint
maximum, a space-derivative estimator evaluated on the overlay meshes, a
time estimator integrating the temporal residual, the recursively
accumulated parabolic bound psi, the fixed-point parameter delta (whose
nonexistence is the runs' stop signal), and the per-slab Gronwall
amplification factor r.  The ledger collects the per-step values and the
total conditional bound.
"""

import inspect
import math
from typing import NamedTuple

import numpy as np

from . import fespace as fe
from .fespace import gauss_legendre
from .scheme import DiscreteLaplacian, InitialLaplacian


class EstimatorError(RuntimeError):
    """Internal inconsistency in an estimator computation."""


class BoundUnavailableError(RuntimeError):
    """The bound was requested through a step the ledger does not hold."""


def log_factor(hmin):
    """max(1, log(1/h_min)): the logarithmic weight of the space terms.

    Clamped below at 1 so the bound stays monotone on coarse meshes where
    log(1/h) would dip below one or go negative.
    """
    return max(1.0, math.log(1.0 / hmin))


class LipschitzModulus:
    """Known increment bound L(t, |v|, |w|) of the reaction term.

    `kind` is "zero" (reaction independent of u), "additive" (L = a + b,
    which admits a closed-form quadratic for delta) or "generic".  The
    wrapped callable may take (t, a, b) or just (a, b); the time argument
    is ignored for the latter.  Only the required positional parameters
    count, so `(a, b, scale=2.0)` takes (a, b); a callable whose
    signature cannot be read is called with (t, a, b).
    """

    def __init__(self, fn=None, kind="generic"):
        if kind not in ("zero", "additive", "generic"):
            raise ValueError("unknown modulus kind %r" % kind)
        self.kind = kind
        self.is_zero = kind == "zero"
        if kind == "zero":
            self._fn = None
        elif kind == "additive":
            self._fn = lambda t, a, b: a + b
        else:
            if fn is None:
                raise ValueError("generic modulus needs a callable")
            try:
                params = inspect.signature(fn).parameters.values()
            except (TypeError, ValueError):
                params = ()
            positional = (inspect.Parameter.POSITIONAL_ONLY,
                          inspect.Parameter.POSITIONAL_OR_KEYWORD)
            nargs = sum(p.kind in positional and p.default is p.empty
                        for p in params)
            if nargs == 2:
                self._fn = lambda t, a, b: fn(a, b)
            else:
                self._fn = fn

    @classmethod
    def zero(cls):
        return cls(kind="zero")

    @classmethod
    def additive(cls):
        return cls(kind="additive")

    def __call__(self, t, a, b):
        if self.is_zero:
            return 0.0 * (np.asarray(a) + np.asarray(b))
        return self._fn(t, a, b)


def _time_rule(t_prev, k, q):
    """(nodes, weights) of the q-point Gauss rule on [t_prev, t_prev + k]."""
    pts, wts = gauss_legendre(q)
    return tuple(t_prev + k * pts), tuple(k * wts)


def _time_sum(wts, values):
    """Gauss-in-time sum of the values at the nodes of `_time_rule`.

    Each w * value is added in node order, starting from 0.0; every
    time integral here goes through this one order of additions.
    """
    acc = 0.0
    for w, value in zip(wts, values):
        acc += w * value
    return acc


class TimeNodes(NamedTuple):
    """One slab candidate's time nodes, as `SlabWorkspace.eta_time`
    integrated over them.

    `nodes` and `wts` are the Gauss rule on the slab of step `k`
    (`_time_rule`) and `norms` the sampled sup norm max|U(s)| of the time
    interpolant at each node s.  psi, alpha, delta and r integrate the
    Lipschitz modulus at these norms.
    """

    k: float
    nodes: tuple
    wts: tuple
    norms: tuple

    def integral(self, modulus, a, b):
        """Integral over the slab of L(s, a(n), b(n)), n the norm at node
        s, summed in node order (`_time_sum`)."""
        return _time_sum(self.wts, (float(modulus(s, a(n), b(n)))
                                    for s, n in zip(self.nodes, self.norms)))


# -- single-mesh space estimator (slab zero) ------------------------------------


def initial_end(problem, u0):
    """Slab zero's end: the projected initial field U0 with the analytic
    driving term -a*lap(u0) (`InitialLaplacian`) as its closure.

    What is evaluated through it on U0's own mesh is evaluated once:
    slab 1's overlay is that mesh.
    """
    return SlabEnd(u0, InitialLaplacian(problem.a, problem.lap_u0))


def initial_space_estimator(problem, end):
    """Per-cell space estimator of the projected initial field U0.

    Volume residual uses the analytic driving term -a*lap(u0).  `end` is
    U0's `initial_end`, whose arrays the evaluation reads and fills.
    """
    mesh = end.u.space.mesh
    X, Y = end.u.space.sample_points()
    return _space_map(problem.a, end, mesh, end.A_values(mesh, X, Y),
                      fe.transfer(mesh, mesh).host)


def initial_error_map(problem, end):
    """Per-cell sampled max of |u0 - U0|; `end` is U0's `initial_end`."""
    mesh = end.u.space.mesh
    X, Y = end.u.space.sample_points()
    diff = np.asarray(problem.u0(X, Y), dtype=float) - end.values(mesh)
    return np.abs(diff).max(axis=1)


def _space_map(a, end, vee, A_values, host):
    """Per-cell space estimator of `end`'s field on its own mesh.

    The volume residual |A + a lap U| is sampled on the finest overlay
    vee (A_values: the closure there) and each cell takes the maximum
    over the overlay cells it hosts (`host`: vee cell -> cell); the jump
    part is the field's gradient jumps on its mesh's faces.
    """
    mesh = end.u.space.mesh
    vol_vee = np.abs(A_values + a * end.laplacian(vee)).max(axis=1)
    vol = _scatter_max(len(mesh), host, vol_vee)
    jump = end.u.jump_max_per_cell(end.normal_derivs(mesh))
    h = mesh.h
    return h * h / a * vol + h * jump


def _scatter_max(ncells, host, per_vee):
    """Per-cell max of overlay-cell values, 0 where a cell hosts none."""
    out = np.zeros(ncells)
    np.maximum.at(out, host, per_vee)
    return out


def xi_value(prev_map, hmin_prev, next_map, hmin_next):
    """Logged maximum of the space estimator over the two slab endpoints."""
    left = log_factor(hmin_prev) * (float(np.max(prev_map)) if len(prev_map) else 0.0)
    right = log_factor(hmin_next) * (float(np.max(next_map)) if len(next_map) else 0.0)
    return max(left, right)


# -- slab workspace ----------------------------------------------------------------


class SlabEnd:
    """A slab end: field `u`, its closure `A`, and what the estimators
    evaluate of them.  Slab n's end is slab n+1's start.

    `A` is the `DiscreteLaplacian` of the step that ended at u (which must
    end at u), or an analytic term such as slab 1's `InitialLaplacian`.
    The values, Laplacian and A values are kept on the sample grid of one
    finest overlay at a time, keyed by that mesh's identity; asking for
    another overlay drops them.  Face normal derivatives are kept per
    mesh in the memo `face_derivs`.  `release` drops both where they
    were evaluated on meshes a run has left.
    """

    def __init__(self, u, A):
        if isinstance(A, DiscreteLaplacian) and A.u_next is not u:
            raise ValueError("a discrete closure must end at its field")
        self.u = u
        self.A = A
        self.face_derivs = {}
        self._vee = None
        self._grids = {}

    def _on(self, vee, key, compute):
        if vee is not self._vee:
            self._vee, self._grids = vee, {}
        if key not in self._grids:
            self._grids[key] = compute()
        return self._grids[key]

    def values(self, vee):
        return self._on(vee, "val",
                        lambda: fe.grid_values(self.u, vee, "sample"))

    def laplacian(self, vee):
        return self._on(vee, "lap",
                        lambda: fe.grid_values(self.u, vee, "sample", "lap"))

    def A_values(self, vee, Xs, Ys, start=None):
        """A on vee's sample grid (Xs, Ys); a discrete A reads its start
        field's values there from `start`, that field's SlabEnd, if given."""
        def closure():
            A = self.A
            if not isinstance(A, DiscreteLaplacian):
                return A(Xs, Ys)  # analytic, e.g. the InitialLaplacian
            up = fe.grid_values(A.u_prev, vee, "sample") if start is None \
                else start.values(vee)
            un = self.values(vee)
            uh = un if A.u_hat is A.u_next \
                else fe.grid_values(A.u_hat, vee, "sample")
            return A.values(Xs, Ys, up, un, uh)
        return self._on(vee, "A", closure)

    def normal_derivs(self, mesh):
        """fe.face_normal_derivs of u on mesh's faces, computed once."""
        if mesh not in self.face_derivs:
            self.face_derivs[mesh] = fe.face_normal_derivs(self.u, mesh)
        return self.face_derivs[mesh]

    def release(self, meshes):
        """Drop the grids and face derivatives evaluated on `meshes`."""
        if self._vee in meshes:
            self._vee, self._grids = None, {}
        for mesh in meshes:
            self.face_derivs.pop(mesh, None)

    def spaces(self):
        """The spaces evaluating this end on an overlay reads: u's and,
        for a step's closure, its previous field's."""
        if isinstance(self.A, DiscreteLaplacian):
            return {self.u.space, self.A.u_prev.space}
        return {self.u.space}


class SlabWorkspace:
    """Evaluates all slab estimators on the overlay of the two meshes.

    Built once per mesh configuration of a slab from `start`, the
    `SlabEnd` at t_prev.  `set_state` swaps in a candidate (U_next,
    U_hat, k) as `self.end`, with the closure it defines, so time-step
    adjustment loops only pay for value re-evaluation.  Both ends are
    evaluated lazily; a certified end starts the next slab, which reads
    its arrays as they stand when its finest overlay is this one.

    Fields are evaluated on the finest overlay's sample grid through the
    `fespace.transfer` of (overlay, field's mesh), which each mesh pair
    builds once: each overlay cell applies its host cell's sub-cell basis.
    The same transfers place the overlay's face samples in the endpoint
    fields' cells and weight each overlay cell by its coarsest-overlay
    cell's size.

    `eta_time` samples the sup norm of the time interpolant at its Gauss
    nodes and records them with the norms as `time_nodes`, one
    `TimeNodes` per state, which the psi, alpha, delta and r integrals
    read.
    """

    def __init__(self, problem, start, space_next, t_prev, q=3):
        self.space_prev = start.u.space
        if self.space_prev.degree != space_next.degree:
            raise ValueError("slab endpoint spaces must share the degree")
        self.problem = problem
        self.start = start
        self.space_next = space_next
        self.t_prev = t_prev
        self.q = q
        mesh_prev = self.space_prev.mesh
        mesh_next = space_next.mesh
        self.mesh_prev = mesh_prev
        self.mesh_next = mesh_next
        # Nested meshes overlay to one of themselves; a mesh that is the
        # finest overlay maps onto it by the identity.
        self.vee = mesh_prev.overlay_finest(mesh_next)
        self.wedge = mesh_prev.overlay_coarsest(mesh_next)
        self.src_next = fe.transfer(self.vee, mesh_next).host
        self.h_wedge = self.wedge.h[fe.transfer(self.vee, self.wedge).host]
        self.hmin_prev = mesh_prev.min_diameter()
        self.hmin_next = mesh_next.min_diameter()
        self.Xs, self.Ys = fe.tensor_grid(self.vee, slice(None),
                                          space_next.ref.sample1d)
        self.end = self.k = self.time_nodes = None  # per state (set_state)

    # -- state ----------------------------------------------------------------

    def set_state(self, u_next, u_hat, k):
        if u_next.space is not self.space_next:
            raise ValueError("u_next does not live on the slab's next space")
        self.k = float(k)
        self.end = SlabEnd(u_next, DiscreteLaplacian(
            self.problem.f, self.t_prev, self.k, self.start.u, u_next, u_hat))
        self.time_nodes = None

    # -- driving terms ---------------------------------------------------------

    def A_prev_values(self):
        return self.start.A_values(self.vee, self.Xs, self.Ys)

    def A_next_values(self):
        return self.end.A_values(self.vee, self.Xs, self.Ys, self.start)

    # -- time estimator ----------------------------------------------------------

    def eta_time(self):
        """Gauss-in-time integral of the sampled sup norm of the residual.

        Integrates the sampled sup norm of
        f(x, s, U(s)) - l_a(s) A_prev - l_b(s) A_next - (U_next - U_prev)/k
        with the q-node Gauss rule over the slab, recording the rule and
        max |U(s)| at each node s as `time_nodes`.
        """
        f, t_prev, k = self.problem.f, self.t_prev, self.k
        U_prev, U_next = self.start.values(self.vee), self.end.values(self.vee)
        A_prev, A_next = self.A_prev_values(), self.A_next_values()
        Ut = (U_next - U_prev) / k
        norms = []

        def sup_residual(s):
            lb = (s - t_prev) / k
            la = 1.0 - lb
            U = la * U_prev + lb * U_next
            norms.append(float(np.abs(U).max()))
            R = np.asarray(f(self.Xs, self.Ys, s, U), dtype=float) \
                - la * A_prev - lb * A_next - Ut
            return float(np.abs(R).max())

        nodes, wts = _time_rule(t_prev, k, self.q)
        eta_T = _time_sum(wts, map(sup_residual, nodes))
        self.time_nodes = TimeNodes(k, nodes, wts, tuple(norms))
        return eta_T

    # -- space estimators --------------------------------------------------------

    def eta_space_map(self):
        """Per-cell space estimator of the slab's end field on its mesh."""
        return _space_map(self.problem.a, self.end, self.vee,
                          self.A_next_values(), self.src_next)

    def eta_dot_maps(self):
        """Space-derivative estimator: (per-cell map on the end mesh, xi').

        Volume and jump parts of the field difference are evaluated on the
        finest-overlay cells, weighted by the size of the containing
        coarsest-overlay cell.
        """
        a = self.problem.a
        k = self.k
        start, end, vee = self.start, self.end, self.vee
        vol_vee = np.abs(self.A_next_values() - self.A_prev_values()
                         + a * (end.laplacian(vee) - start.laplacian(vee))
                         ).max(axis=1)
        jump_vee = fe.faces_to_cells(vee, [
            (sel, np.abs((gnl - gpl) - (gnr - gpr)).max(axis=1))
            for (sel, gpl, gpr), (_, gnl, gnr) in zip(
                start.normal_derivs(vee), end.normal_derivs(vee))])
        hw = self.h_wedge
        etadot_vee = hw * hw / (k * a) * vol_vee + hw / k * jump_vee
        xi_prime = log_factor(min(self.hmin_prev, self.hmin_next)) * k \
            * (float(etadot_vee.max()) if len(etadot_vee) else 0.0)
        return (_scatter_max(len(self.mesh_next), self.src_next, etadot_vee),
                xi_prime)

    def overlay_free_dofs(self):
        """Free dofs of the degree-p space on the finest overlay mesh."""
        for space in (self.space_next, self.space_prev):
            if self.vee is space.mesh:
                return space.n_free
        return fe.Space(self.vee, self.space_next.degree).n_free


# -- psi / delta / r -------------------------------------------------------------


def psi_update(ledger, m, eta_T, xi, xi_prime, modulus, time_nodes):
    """Accumulated parabolic bound for slab m.

    Slab 1 starts from the initial-condition estimator; later slabs start
    from the Gronwall-amplified previous value, which every recorded step
    has (`EstimatorLedger.add_step`).  The reaction term integrates
    L(s, n, n + C xi) over the slab's `TimeNodes`.
    """
    c = ledger.c_inf
    if modulus.is_zero:
        lip = 0.0
    else:
        lip = c * xi * time_nodes.integral(modulus, lambda n: n,
                                           lambda n: n + c * xi)
    if m == 1:
        if ledger.eta_I is None:
            raise EstimatorError("initial estimator missing from the ledger")
        base = ledger.eta_I
    else:
        base = ledger.r[-1] * ledger.psi[-1]
    return base + lip + eta_T + c * xi_prime


def fixed_point_delta(psi, xi, time_nodes, modulus, c_inf=1.0, ceiling=1e8):
    """Smallest root in [1, ceiling] of the slab's fixed-point function.

    The function integrates L(s, delta psi + n + C xi, same) over the
    slab's `TimeNodes`.  Returns None when no root exists (the adaptive
    stop signal).  For the additive modulus the root solves a quadratic in
    closed form; otherwise the scan steps through a geometric grid to the
    first sign change, which is bisected (when there is none, a
    convexity-based minimum probe finds a narrow dip the grid stepped
    over) and polished by a secant step.  Every returned root is checked
    against the contraction inequality int L <= 1 - 1/delta.
    """
    k = time_nodes.k
    if modulus.is_zero or k <= 0.0:
        return 1.0

    def integral(delta):
        def arg(n):
            return delta * psi + n + c_inf * xi
        return float(time_nodes.integral(modulus, arg, arg))

    def phi(delta):
        return 1.0 + delta * (integral(delta) - 1.0)

    delta = None
    if modulus.kind == "additive":
        int_u = float(np.dot(time_nodes.wts, time_nodes.norms))
        a2 = 2.0 * k * psi
        b = 2.0 * c_inf * k * xi + 2.0 * int_u - 1.0
        if a2 == 0.0:
            if b >= 0.0:
                return None
            delta = max(-1.0 / b, 1.0)
            if delta > ceiling:
                return None
        else:
            disc = b * b - 4.0 * a2
            if disc < 0.0 or b >= 0.0:
                return None
            sq = math.sqrt(disc)
            small = 2.0 / (-b + sq)
            large = (-b + sq) / (2.0 * a2)
            for root in (small, large):
                if root >= 1.0 - 1e-9:
                    delta = max(root, 1.0)
                    break
            if delta is None or delta > ceiling:
                return None
    else:
        p1 = phi(1.0)
        if p1 <= 1e-14:
            delta = 1.0
        else:
            # Geometric scan for the leftmost sign change.  The scan alone
            # can step over a narrow dip, so when it finds none we also
            # probe the minimum (phi is convex for the monotone moduli in
            # use) before declaring nonexistence.
            grid, vals = [1.0], [p1]
            d = 1.0
            factor = 2.0 ** 0.25
            hi = None
            while grid[-1] < ceiling:
                d *= factor
                grid.append(min(d, ceiling))
                vals.append(phi(grid[-1]))
                if vals[-1] <= 0.0:
                    lo, flo = grid[-2], vals[-2]
                    hi, fhi = grid[-1], vals[-1]
                    break
            if hi is None:
                imin = int(np.argmin(vals))
                a = grid[max(imin - 1, 0)]
                b = grid[min(imin + 1, len(grid) - 1)]
                for _ in range(200):
                    if b - a <= 1e-13 * b:
                        break
                    m1 = a + (b - a) / 3.0
                    m2 = b - (b - a) / 3.0
                    if phi(m1) <= phi(m2):
                        b = m2
                    else:
                        a = m1
                dstar = 0.5 * (a + b)
                if phi(dstar) <= 0.0:
                    lo, flo = 1.0, p1
                    hi, fhi = dstar, phi(dstar)
                else:
                    return None
            for _ in range(200):
                if hi - lo <= 1e-12 * hi:
                    break
                mid = 0.5 * (lo + hi)
                fm = phi(mid)
                if fm <= 0.0:
                    hi, fhi = mid, fm
                else:
                    lo, flo = mid, fm
            # secant polish inside the bracket
            if fhi != flo:
                cand = hi - fhi * (hi - lo) / (fhi - flo)
                if lo <= cand <= hi:
                    hi = cand
            delta = hi
    margin = integral(delta) - (1.0 - 1.0 / delta)
    if margin > 1e-10:
        raise EstimatorError(
            "contraction check failed at delta=%g (margin %.3e)"
            % (delta, margin))
    return float(delta)


def gronwall_factor(delta, psi, xi, time_nodes, modulus, c_inf=1.0):
    """Per-slab amplification factor exp(int L(s, delta psi + n + C xi,
    n + C xi) ds) over the slab's `TimeNodes`."""
    if modulus.is_zero or time_nodes.k <= 0.0:
        return 1.0
    return math.exp(time_nodes.integral(
        modulus, lambda n: delta * psi + n + c_inf * xi,
        lambda n: n + c_inf * xi))


# -- ledger -------------------------------------------------------------------------


class EstimatorLedger:
    """Per-step record of the estimator values and the running bound.

    Every step carries its fixed-point parameter delta, so the
    conditional bound holds through each recorded step.  The space
    estimator is kept by its maximum over the cells, the one value of it
    the bound reads.
    """

    def __init__(self, c_inf=1.0, modulus_is_zero=False):
        self.c_inf = c_inf
        self.modulus_is_zero = modulus_is_zero
        self.e0 = None
        self.eta_I = None
        self.log_eta_S0 = None
        self.eta_S0_max = None
        self.m = []
        self.t = []
        self.k = []
        self.dofs = []
        self.linf_u = []
        self.eta_T = []
        self.xi = []
        self.xi_prime = []
        self.psi = []
        self.delta = []
        self.r = []
        self.r_tilde = []
        self.log_eta_S = []
        self.hmin = []
        self.eta_S_max = []
        self.bound = []

    def set_initial(self, u0_field, eta0_map, e0_map):
        """Record slab zero: U0, its `initial_space_estimator` and its
        `initial_error_map`."""
        self.eta_S0_max = float(np.max(eta0_map))
        self.e0 = float(e0_map.max())
        hmin = u0_field.space.mesh.min_diameter()
        self.log_eta_S0 = log_factor(hmin) * self.eta_S0_max
        self.eta_I = self.e0 + self.c_inf * self.log_eta_S0

    def add_step(self, m, t, k, dofs, linf_u, eta_T, xi, xi_prime, psi,
                 delta, r, eta_S_map, hmin):
        if self.eta_I is None:
            raise EstimatorError("set_initial must run before add_step")
        if delta is None:
            raise EstimatorError("step %d has no delta; it is not recorded"
                                 % m)
        self.m.append(m)
        self.t.append(t)
        self.k.append(k)
        self.dofs.append(dofs)
        self.linf_u.append(linf_u)
        self.eta_T.append(eta_T)
        self.xi.append(xi)
        self.xi_prime.append(xi_prime)
        self.psi.append(psi)
        self.delta.append(delta)
        self.r.append(r)
        self.r_tilde.append((self.r_tilde[-1] if self.r_tilde else 1.0) * r)
        self.eta_S_max.append(float(np.max(eta_S_map)))
        self.hmin.append(hmin)
        self.log_eta_S.append(log_factor(hmin) * self.eta_S_max[-1])
        self.bound.append(self.bound_through(len(self.m)))

    def _log_max(self, upto):
        return max([self.log_eta_S0] + self.log_eta_S[:upto])

    def space_bound_term(self, upto=None):
        """The bound's standalone elliptic part: C * max_m log(1/h) max eta_S."""
        if upto is None:
            upto = len(self.m)
        return self.c_inf * self._log_max(upto)

    def space_estimator_max(self, upto=None):
        """max over recorded steps (slab zero included) of max_K eta_S^m.

        The h-dependent content of the bound's elliptic part, without the
        global logarithmic weight.
        """
        if upto is None:
            upto = len(self.m)
        return max([self.eta_S0_max] + self.eta_S_max[:upto])

    def bound_through(self, upto=None):
        """Total error bound through step `upto` (default: all steps).

        Zero-modulus data telescopes to
        ||e(0)|| + sum eta_T + C sum xi' + C max log * max eta_S; otherwise
        the conditional form r_M psi_M + C max log * max eta_S.
        """
        if upto is None:
            upto = len(self.m)
        if upto < 1:
            raise BoundUnavailableError("no steps recorded")
        space_term = self.space_bound_term(upto)
        if self.modulus_is_zero:
            return self.e0 + sum(self.eta_T[:upto]) \
                + self.c_inf * sum(self.xi_prime[:upto]) + space_term
        return self.r[upto - 1] * self.psi[upto - 1] + space_term

    def to_csv(self, path):
        """Write the bit-specified per-step table.

        Columns: m,t_m,k_m,dofs_m,linf_U_m,eta_T,xi,xi_prime,psi,delta,
        r,r_tilde,bound, every field written: each recorded step has a
        delta, and so its r, r_tilde and bound.
        """
        def fmt(v):
            return "%.17g" % v

        lines = ["m,t_m,k_m,dofs_m,linf_U_m,eta_T,xi,xi_prime,psi,delta,"
                 "r,r_tilde,bound"]
        for i in range(len(self.m)):
            lines.append(",".join([
                "%d" % self.m[i], fmt(self.t[i]), fmt(self.k[i]),
                "%d" % self.dofs[i], fmt(self.linf_u[i]), fmt(self.eta_T[i]),
                fmt(self.xi[i]), fmt(self.xi_prime[i]), fmt(self.psi[i]),
                fmt(self.delta[i]), fmt(self.r[i]), fmt(self.r_tilde[i]),
                fmt(self.bound[i])]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
