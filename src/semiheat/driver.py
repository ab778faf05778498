"""Space-time adaptive evolution loop with blow-up detection.

Both runners consume one stream of certified slabs (`_certified`): each
slab (`_Slab`) solves a candidate step, cut to end at the final time T
if it reaches T, and certifies it.  The adaptive loop controls the step
with a scaled time indicator, marks cells against a scaled space
indicator, multiplies all four tolerances by the previous slab's
fixed-point parameter, and stops at T or when that parameter stops
existing (the blow-up signal); the fixed-mesh runner keeps k and mesh.

The driver owns a run's working set: spaces and meshes keep what they
derive until it releases them where the run moves past them.  A slab
stepping onto another space releases its start's (`_Slab.solve`), a
certified slab what the next does not read (`_release_left`), the first
interval the caller's mesh and the cached starts it leaves, and every
run, on return, the spaces it ended on unless a `FirstIntervalCache`
start holds them (`_result`).  What a returned run keeps is its result:
the ledger's per-step scalars and a `Trajectory` of `scheme.TimeSlab`s,
each its endpoint spaces, its end field and its overlay dofs.
"""

import os
from dataclasses import dataclass, field as dfield, replace
from math import inf
from typing import NamedTuple

import numpy as np

from . import fespace as fe
from . import scheme as sc
from . import estimators as est
from .linalg import one_blas_thread


class ExtrapolationError(ValueError):
    """Blow-up time extrapolation needs strictly increasing positive norms."""


@dataclass(frozen=True)
class Tolerances:
    """The four adaptivity tolerances.

    Refinement and coarsening thresholds must sit at least a factor 8
    apart, otherwise halving/doubling the time step (which moves the time
    indicator by about 4x) can oscillate across the band forever.
    """

    stol_plus: float
    stol_minus: float
    ttol_plus: float
    ttol_minus: float

    def __post_init__(self):
        for name in ("stol_plus", "stol_minus", "ttol_plus", "ttol_minus"):
            if not 0 < getattr(self, name) < inf:
                raise ValueError("%s must be finite and positive" % name)
        if self.stol_minus >= self.stol_plus or self.ttol_minus >= self.ttol_plus:
            raise ValueError("coarsening tolerances must sit below refinement ones")
        if self.stol_plus / self.stol_minus < 8 or self.ttol_plus / self.ttol_minus < 8:
            raise ValueError("refine/coarsen tolerance ratio must be >= 8")

    @classmethod
    def from_plus(cls, stol_plus, ttol_plus, ratio=16.0):
        """Minus = plus / ratio; kept so the tests write the ratio once."""
        return cls(stol_plus, stol_plus / ratio, ttol_plus, ttol_plus / ratio)


# Most first-interval passes, and most step-size adjustments per step.
FIRST_INTERVAL_CAP = 40
STEP_ADJUST_CAP = 30


@dataclass
class DriverOptions:
    c_inf: float = 1.0
    time_quadrature: int = 3
    scale_tolerances: bool = True
    max_steps: int = 100000
    dump_every: int = 0
    out_dir: str = "."

    def __post_init__(self):
        if not 0 < self.c_inf < inf:
            raise ValueError("c_inf must be finite and positive")
        for name, low in (("time_quadrature", 1), ("max_steps", 1),
                          ("dump_every", 0)):
            if not getattr(self, name) >= low:
                raise ValueError("%s must be >= %d" % (name, low))


@dataclass
class RunResult:
    trajectory: object
    ledger: object
    stop_reason: str
    steps: int
    final_time: float
    final_norm: float
    tinf_estimate: object = None
    avg_dofs: float = 0.0
    caps_hit: list = dfield(default_factory=list)
    final_tolerances: object = None

    def summary(self):
        tinf = "%.6g" % self.tinf_estimate if self.tinf_estimate else "n/a"
        return ("steps=%d final_time=%.6g linf_U=%.6g tinf=%s "
                "avg_dofs=%.1f stop=%s"
                % (self.steps, self.final_time, self.final_norm, tinf,
                   self.avg_dofs, self.stop_reason))


def time_indicator(eta_T, r_tilde_prev):
    """Scaled temporal refinement indicator."""
    if r_tilde_prev < 1.0:
        raise ValueError("accumulated factor must be >= 1")
    return eta_T / r_tilde_prev


def alpha_value(modulus, time_nodes, xi, r_tilde_prev):
    """Weight of the space estimator inside the space indicator: the
    slab's mean of L(s, n, n + xi) over its `est.TimeNodes`, scaled by
    1 / r_tilde_prev, and at least 1."""
    if modulus.is_zero:
        return 1.0
    integral = time_nodes.integral(modulus, lambda n: n, lambda n: n + xi)
    return max(1.0, integral / (r_tilde_prev * time_nodes.k))


def space_indicator(eta_S_map, eta_dot_map, alpha, r_tilde_prev):
    """Per-cell space refinement indicator (slabs after the first)."""
    return np.maximum(alpha * np.asarray(eta_S_map),
                      np.asarray(eta_dot_map) / r_tilde_prev)


def first_space_indicator(e0_map, eta_S0_map, eta_S1_map, eta_dot_map, alpha):
    """Per-cell space indicator for the first interval (includes ||e(0)||)."""
    return np.maximum.reduce([
        np.asarray(e0_map), alpha * np.asarray(eta_S0_map),
        alpha * np.asarray(eta_S1_map), np.asarray(eta_dot_map)])


def extrapolate_blowup(t_prev, norm_prev, t_last, norm_last):
    """Blow-up time from two consecutive (time, sup-norm) samples.

    Exact for norms growing like a first-order pole 1/(T_inf - t).
    """
    if not (norm_last > norm_prev > 0.0):
        raise ExtrapolationError("norms must be positive and increasing")
    return (t_last * norm_last - t_prev * norm_prev) / (norm_last - norm_prev)


def weighted_average_dofs(trajectory):
    """Time-step weighted mean of the overlay-space dofs of each slab."""
    if not trajectory.slabs:
        raise ValueError("empty trajectory")
    return sum(s.k * s.overlay_dofs
               for s in trajectory.slabs) / trajectory.final_time


def _modify_mesh(mesh, indicator, stol_plus, stol_minus):
    """One refine/coarsen pass against the per-cell indicator."""
    indicator = np.asarray(indicator)
    refine_keys = [mesh.leaves[i] for i in np.flatnonzero(indicator > stol_plus)]
    coarsen_keys = [mesh.leaves[i] for i in np.flatnonzero(indicator < stol_minus)]
    out = mesh
    if refine_keys:
        out = out.refine(refine_keys)
    if coarsen_keys:
        out = out.coarsen(coarsen_keys)
    return out


def _maybe_dump(opts, step, mesh, field):
    if opts.dump_every <= 0 or step % opts.dump_every != 0:
        return
    os.makedirs(opts.out_dir, exist_ok=True)
    cx = mesh.x0 + 0.5 * mesh.hx
    cy = mesh.y0 + 0.5 * mesh.hy
    data = {"u_center": field.eval(cx, cy),
            "u_maxabs": np.abs(field.sample_values("val")).max(axis=1)}
    mesh.dump_vtk(os.path.join(opts.out_dir, "step_%05d.vtk" % step), data)


def _clip(t, k, T):
    """(step, end) of a step k from t; a step that reaches T ends at T."""
    if T is not None and t + k >= T * (1.0 - 1e-12):
        return T - t, T
    return k, t + k


class _Slab:
    """Certification of one slab (t, t_next] from the certified state at t.

    `start` is the `est.SlabEnd` at t (the field and its closure) and
    `eta_S` its per-cell space estimator.  `solve` tries a candidate
    (space, k), cut to end at the problem's T if it reaches T (`_clip`):
    the IMEX step and the time estimator, which records the candidate's
    time nodes (`est.TimeNodes`).  `space_estimates` evaluates the
    candidate's space side once.  `certify` computes psi, delta and r
    on those nodes, records the slab and returns the slab that follows
    it, whose start is this slab's certified end.
    """

    def __init__(self, problem, opts, m, t, start, eta_S):
        self.problem = problem
        self.opts = opts
        self.m = m
        self.t = t
        self.start = start
        self.eta_S = eta_S
        self.ws = None

    def solve(self, space, k):
        """IMEX step of size k, or up to T, onto `space`; returns eta_T.

        A workspace of another space is dropped before the step, so its
        candidate and arrays are freed before the new space's are built.
        A step off the start's space releases it, as the slab then only
        evaluates it, so one condensation is alive per step.
        """
        if self.ws is not None and self.ws.space_next is not space:
            self.ws = self._space_estimates = None
        if space is not self.start.u.space:
            self.start.u.space.release()
        k, self.t_next = _clip(self.t, k, self.problem.T)
        u_next, u_hat = sc.imex_step(self.problem, self.start.u, space, k,
                                     self.t)
        if self.ws is None:
            self.ws = est.SlabWorkspace(self.problem, self.start, space,
                                        self.t, q=self.opts.time_quadrature)
        self.ws.set_state(u_next, u_hat, k)
        self.k = k
        self.eta_T = self.ws.eta_time()
        self._space_estimates = None
        return self.eta_T

    def space_estimates(self):
        """(eta_S map, eta_dot map, xi', xi) of the current candidate."""
        if self._space_estimates is None:
            ws = self.ws
            eta_S = ws.eta_space_map()
            dot_map, xi_prime = ws.eta_dot_maps()
            xi = est.xi_value(self.eta_S, ws.hmin_prev, eta_S, ws.hmin_next)
            self._space_estimates = (eta_S, dot_map, xi_prime, xi)
        return self._space_estimates

    def certify(self, ledger, traj, keep_uncertified=False):
        """Close the current candidate as the slab ending at its t_next.

        Records it in the ledger and trajectory and returns the next
        slab.  Without a delta it records nothing and returns None, unless
        keep_uncertified is set.
        """
        problem, opts, ws, k, t = (self.problem, self.opts, self.ws, self.k,
                                   self.t)
        modulus, c_inf, nodes = problem.modulus, opts.c_inf, ws.time_nodes
        eta_S, _, xi_prime, xi = self.space_estimates()
        psi = est.psi_update(ledger, self.m, self.eta_T, xi, xi_prime,
                             modulus, nodes)
        delta = est.fixed_point_delta(psi, xi, nodes, modulus, c_inf)
        if delta is None and not keep_uncertified:
            return None
        r = None if delta is None else est.gronwall_factor(
            delta, psi, xi, nodes, modulus, c_inf)
        end = ws.end
        traj.slabs.append(sc.TimeSlab(
            m=self.m, t_prev=t, t_next=self.t_next, k=k,
            space_prev=ws.space_prev, space_next=ws.space_next, u_next=end.u,
            overlay_dofs=ws.overlay_free_dofs()))
        ledger.add_step(self.m, self.t_next, k, ws.space_next.n_free,
                        end.u.linf_norm(), self.eta_T, xi, xi_prime, psi,
                        delta, r, eta_S, ws.hmin_next)
        _maybe_dump(opts, self.m, ws.mesh_next, end.u)
        _release_left(self.start, ws, end)
        return _Slab(problem, opts, self.m + 1, self.t_next, end, eta_S)


def _release_left(start, ws, end):
    """Release what a certified slab read and the slab after it does not.

    The slab ran from `start` to `end` through workspace `ws`.  The next
    slab starts from `end`: it reads the spaces of `end`
    (`est.SlabEnd.spaces`), the face set of `end`'s mesh (its overlay
    when it keeps or coarsens that mesh) and the transfers cached there,
    and builds the rest on meshes of its own.  So the other spaces of
    `start` drop their derived data, and the slab's other meshes, its
    start mesh and overlays, their face sets and transfers, as does
    `end` what it evaluated on them and the kept face set what it
    grouped on them.
    """
    for space in start.spaces() - end.spaces():
        space.release()
    left = {ws.mesh_prev, ws.vee, ws.wedge} - {ws.mesh_next}
    for mesh in left:
        mesh.release()
    end.release(left)
    ws.mesh_next.drop_groupings(left)


class _Start(NamedTuple):
    """Slab 1's start state on one space.

    U0's `SlabEnd` (`est.initial_end`: U0, the elliptic projection of u0,
    with the InitialLaplacian, and what the estimators evaluated of them
    on U0's own mesh, which is slab 1's overlay), its per-cell space
    estimator and its per-cell error map.
    """

    end: object
    eta_S: object
    e0_map: object

    def slab(self, problem, opts):
        """Slab 1, which starts from U0's end."""
        return _Slab(problem, opts, 1, 0.0, self.end, self.eta_S)


def _start(problem, space):
    """Project u0 onto `space` and evaluate U0's start-state estimators."""
    end = est.initial_end(problem, sc.project_initial(problem, space))
    return _Start(end, est.initial_space_estimator(problem, end),
                  est.initial_error_map(problem, end))


class FirstIntervalCache:
    """First-interval work shared by runs that differ only in tolerances.

    A first-interval pass on a mesh with step k yields eta_T and the
    per-cell space indicator; both depend on the mesh's leaves, k, the
    degree, the time quadrature and the problem, and not on the
    tolerances, which only decide what the run does next.  `passes` maps
    (leafset, k) to that (eta_T, indicator) pair; `starts` maps each
    leafset on which a returned run's first interval ended to slab 1's
    `_Start`, whose U0 that run's result holds anyway.  One cache serves
    runs of one problem, degree and time quadrature, such as the rows of
    a sweep.
    """

    def __init__(self):
        self.passes = {}
        self.starts = {}


def _open_ledger(problem, opts, start):
    """Empty ledger and trajectory starting from slab 1's start state."""
    ledger = est.EstimatorLedger(c_inf=opts.c_inf,
                                 modulus_is_zero=problem.modulus.is_zero)
    ledger.set_initial(start.end.u, start.eta_S, start.e0_map)
    return ledger, sc.Trajectory(start.end.u)


def _certified(slab, ledger, traj, keep_uncertified=False):
    """Certify the candidate `slab` holds, then yield each following slab.

    The caller solves the next candidate on each slab it is given.  The
    stream ends at the first candidate without a delta, unless
    keep_uncertified is set.
    """
    while (slab := slab.certify(ledger, traj, keep_uncertified)) is not None:
        yield slab


def _stop(slab, ledger, opts, caps):
    """Why a run ends at `slab`'s start (`_clip` ends it at T exactly)."""
    if slab.t == slab.problem.T:
        return "final_time"
    if len(ledger.m) >= opts.max_steps:
        caps.append(("max_steps", len(ledger.m)))
        return "max_steps"


def _result(traj, ledger, stop, slab, cache=None, **extra):
    """The run's result.  The spaces the run ended on (those of `slab`'s
    start, `est.SlabEnd.spaces`) are released once the final norm is
    taken, except those the starts of the `FirstIntervalCache` `cache`
    hold."""
    try:
        tinf = extrapolate_blowup(ledger.t[-2], ledger.linf_u[-2],
                                  ledger.t[-1], ledger.linf_u[-1])
    except (IndexError, ExtrapolationError):
        tinf = None
    final_norm = slab.start.u.linf_norm()
    shared = {start.end.u.space for start in cache.starts.values()} \
        if cache is not None else set()
    for space in slab.start.spaces() - shared:
        space.release()
    return RunResult(
        trajectory=traj, ledger=ledger, stop_reason=stop,
        steps=len(ledger.m), final_time=slab.t, final_norm=final_norm,
        tinf_estimate=tinf,
        avg_dofs=weighted_average_dofs(traj) if traj.slabs else 0.0, **extra)


@one_blas_thread()
def run_adaptive(problem, tolerances, degree, initial_mesh, k1, options=None,
                 first_interval=None):
    """Adaptive run; returns a RunResult with trajectory and ledger.

    Stops at t = T for fixed-time problems, or on nonexistence of the
    slab's fixed-point parameter (expected near blow-up).  Uncertified
    trailing steps are discarded: every recorded step carries a delta.
    `first_interval` is a FirstIntervalCache shared with other runs of
    the same problem, degree and options; the result does not depend on
    what it holds.
    """
    opts = options or DriverOptions()
    cache = first_interval or FirstIntervalCache()
    if not 0 < k1 < inf:
        raise ValueError("k1 must be finite and positive")
    k = _clip(0.0, k1, problem.T)[0]
    caps = []
    ttol_p, ttol_m = tolerances.ttol_plus, tolerances.ttol_minus
    stol_p, stol_m = tolerances.stol_plus, tolerances.stol_minus

    def accepted(eta_T, ref_S):
        return eta_T <= ttol_p and ref_S.max() <= stol_p

    # First interval: refine mesh and halve k concurrently until both
    # indicators sit below their refinement tolerances.  A pass that keeps
    # its mesh keeps its space and U0 (with U0's estimators) and only
    # re-solves slab 1 with the halved k; a pass on another mesh lets the
    # previous pass's slab and start go, and releases the spaces of the
    # cache's starts on other meshes, before it takes or projects the
    # next start.  A pass the cache knows stands in for the solve unless
    # it may end the loop: the pass that ends it leaves its solved slab 1
    # to the run.
    mesh = initial_mesh
    passes = 0
    slab = None
    while True:
        key = (mesh.leafset, k)
        known = cache.passes.get(key)
        if known is None or accepted(*known) or passes >= FIRST_INTERVAL_CAP:
            if slab is None or mesh.leafset != slab.start.u.space.mesh.leafset:
                slab = start = None
                for leafset, shared in cache.starts.items():
                    if leafset != mesh.leafset:
                        shared.end.u.space.release()
                start = cache.starts.get(mesh.leafset) \
                    or _start(problem, fe.Space(mesh, degree))
                slab = start.slab(problem, opts)
            eta_T = slab.solve(slab.start.u.space, k)
            eta_S1, dot1, _, xi = slab.space_estimates()
            alpha = alpha_value(problem.modulus, slab.ws.time_nodes, xi, 1.0)
            ref_S = first_space_indicator(start.e0_map, slab.eta_S, eta_S1,
                                          dot1, alpha)
            cache.passes[key] = (eta_T, ref_S)
        else:
            eta_T, ref_S = known
        if accepted(eta_T, ref_S):
            break
        if passes >= FIRST_INTERVAL_CAP:
            caps.append(("first_interval", passes))
            break
        mesh = _modify_mesh(mesh, ref_S, stol_p, stol_m)
        if eta_T > ttol_p:
            k *= 0.5
        passes += 1

    ledger, traj = _open_ledger(problem, opts, start)
    if initial_mesh is not start.end.u.space.mesh:
        initial_mesh.release()   # the caller's mesh, which no slab reads
    if first_interval is None:
        start = None     # no other run reads it; slab 1 holds it meanwhile
    for slab in _certified(slab, ledger, traj):
        stop = _stop(slab, ledger, opts, caps)
        if stop:
            break
        if opts.scale_tolerances:
            delta = ledger.delta[-1]
            ttol_p *= delta
            ttol_m *= delta
            stol_p *= delta
            stol_m *= delta

        # Time-step control on the current mesh.
        r_tilde_prev = ledger.r_tilde[-1]
        space = slab.start.u.space
        ref_T = time_indicator(slab.solve(space, k), r_tilde_prev)
        adjusts = 0
        while not (ttol_m <= ref_T <= ttol_p):
            if adjusts >= STEP_ADJUST_CAP:
                caps.append(("step_adjust", slab.m))
                break
            if ref_T < ttol_m and slab.t_next == problem.T:
                break       # a step cut to end at T is not doubled
            k = slab.k * (0.5 if ref_T > ttol_p else 2.0)
            ref_T = time_indicator(slab.solve(space, k), r_tilde_prev)
            adjusts += 1
        k = slab.k

        # One spatial refine/coarsen pass, then re-solve if the mesh moved.
        eta_S, dot_map, _, xi = slab.space_estimates()
        alpha = alpha_value(problem.modulus, slab.ws.time_nodes, xi,
                            r_tilde_prev)
        ref_S = space_indicator(eta_S, dot_map, alpha, r_tilde_prev)
        new_mesh = _modify_mesh(space.mesh, ref_S, stol_p, stol_m)
        if new_mesh.leafset != space.mesh.leafset:
            slab.solve(fe.Space(new_mesh, degree), k)
    else:       # the stream ended on a candidate without a delta
        stop = "delta_nonexistent at step %d" % slab.m

    # Only a run that returns shares its start: its result holds its U0.
    # The next run of the cache may step on that start's space.
    if start is not None:
        cache.starts.setdefault(start.end.u.space.mesh.leafset, start)
    return _result(traj, ledger, stop, slab, cache, caps_hit=caps,
                   final_tolerances=(stol_p, stol_m, ttol_p, ttol_m))


@one_blas_thread()
def run_fixed(problem, mesh, degree, k, T=None, options=None):
    """Uniform-step run on a fixed mesh with full estimator bookkeeping.

    No adaptivity: the mesh never changes and k is constant up to the
    last step, cut to end at T.  Stops at T or at `max_steps`.  Steps keep
    running even if some delta does not exist (its ledger column is then
    empty and the conditional bound unavailable from that step on).
    """
    opts = options or DriverOptions()
    problem = replace(problem, T=problem.T if T is None else T)
    if problem.T is None or not 0 < problem.T < inf:
        raise ValueError("run_fixed needs a finite positive final time")
    if not 0 < k < inf:
        raise ValueError("k must be finite and positive")
    start = _start(problem, fe.Space(mesh, degree))
    slab = start.slab(problem, opts)
    ledger, traj = _open_ledger(problem, opts, start)
    caps = []
    slab.solve(slab.start.u.space, k)
    for slab in _certified(slab, ledger, traj, keep_uncertified=True):
        stop = _stop(slab, ledger, opts, caps)
        if stop:
            break
        slab.solve(slab.start.u.space, k)
    return _result(traj, ledger, stop, slab, caps_hit=caps)
