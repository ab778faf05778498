"""Span tracing of the semiheat modules from outside the package.

`install` replaces the public calls of each module with wrappers that
record a span (id, parent id, name, start, end) and return the wrapped
call's result unchanged.  Names are patched where callers look them up:
`scheme` imports the linalg functions by name, so those are replaced in
both modules; methods are replaced on their classes.  Spans stay in
memory until `Tracer.spans` is written out after the run.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.  The root span's own self
time is the unattributed remainder, so the layer self times plus that
remainder add up to the root span exactly.
"""

import functools
import time
from collections import Counter, defaultdict

import numpy as np

ROOT = "bench.run"


class MissingSpan(RuntimeError):
    """A span the workload must exercise recorded zero calls."""


# Per-layer time metric -> span names whose self time it sums.  Spans
# that some workload never calls (interpolation, overlays, point location
# when the mesh never moves) share a metric with spans every workload
# calls, so that no reported time is 0 by construction; their own self
# times are in the per-span table (`span_table`).
LAYER_SPANS = {
    "linalg.solve_s": ["linalg.solve_spd"],
    "linalg.assemble_s": ["linalg.assemble_mass", "linalg.assemble_stiffness",
                          "linalg.load_vector"],
    "fespace.space_build_s": ["fespace.Space.__init__"],
    "fespace.eval_s": ["fespace.evaluate_in_cells", "fespace.evaluate_multi",
                       "fespace.interpolate"],
    "fespace.jump_s": ["fespace.Field.jump_max_per_cell"],
    "mesh.self_s": ["mesh.Mesh.uniform", "mesh.Mesh.overlay_finest",
                    "mesh.Mesh.overlay_coarsest", "mesh.Mesh.refine",
                    "mesh.Mesh.coarsen", "mesh.Mesh.locate"],
    "scheme.project_s": ["scheme.project_initial"],
    "scheme.step_s": ["scheme.imex_step"],
    "estimators.workspace_s": ["estimators.SlabWorkspace.__init__",
                               "estimators.SlabWorkspace.set_state",
                               "estimators.SlabWorkspace.overlay_free_dofs"],
    "estimators.eta_time_s": ["estimators.SlabWorkspace.eta_time"],
    "estimators.eta_space_s": ["estimators.SlabWorkspace.eta_space_map",
                               "estimators.initial_space_estimator",
                               "estimators.initial_error_map"],
    "estimators.eta_dot_s": ["estimators.SlabWorkspace.eta_dot_maps"],
    "estimators.delta_s": ["estimators.psi_update",
                           "estimators.fixed_point_delta",
                           "estimators.gronwall_factor"],
    "driver.self_s": ["driver.run_adaptive"],
    "cli.self_s": ["cli.run_sweep", "cli._run_one"],
}
SPAN_LAYER = {s: layer for layer, names in LAYER_SPANS.items() for s in names}

# Spans every workload must record at least once.  A rename in the
# package then fails the traced run instead of reporting 0.
REQUIRED_ALWAYS = [
    "linalg.solve_spd", "linalg.assemble_mass", "linalg.assemble_stiffness",
    "linalg.load_vector", "fespace.Space.__init__",
    "fespace.evaluate_in_cells", "fespace.Field.jump_max_per_cell",
    "mesh.Mesh.uniform", "scheme.project_initial", "scheme.imex_step",
    "estimators.SlabWorkspace.__init__", "estimators.SlabWorkspace.set_state",
    "estimators.SlabWorkspace.eta_time",
    "estimators.SlabWorkspace.eta_space_map",
    "estimators.SlabWorkspace.eta_dot_maps", "estimators.psi_update",
    "estimators.fixed_point_delta", "estimators.gronwall_factor",
    "driver.run_adaptive", "cli._run_one",
]
REQUIRED_BY_WORKLOAD = {
    "ex1_blowup_p4": ["mesh.Mesh.overlay_finest", "mesh.Mesh.locate",
                      "fespace.interpolate"],
    "ex3_fixed_p3": ["mesh.Mesh.overlay_finest", "mesh.Mesh.overlay_coarsest",
                     "mesh.Mesh.refine", "mesh.Mesh.locate",
                     "fespace.interpolate"],
    "ex1_sweep_p9": ["cli.run_sweep"],
}


class Tracer:
    """In-memory span recorder plus the counters taken at the same calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (id, parent id, name, start, end)
        self.counts = Counter()  # calls per span name and extra counters
        self._stack = []
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = self.clock()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def wrap(self, name, fn, points=None):
        """Wrapper of fn recording span `name`.

        points=(key, i) also adds the size of positional argument i to
        counts[key].
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            if points is not None:
                tracer.counts[points[0]] += np.size(args[points[1]])
            sid, parent = tracer._open()
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
        return wrapper

    def root(self, fn, *args):
        """Call fn(*args) inside the root span and return its result."""
        return self.wrap(ROOT, fn)(*args)

    def cg_callback(self, user_cb):
        """cg callback counting iterations, then calling user_cb if any."""
        counts = self.counts

        def callback(xk):
            counts["cg_iters"] += 1
            if user_cb is not None:
                user_cb(xk)
        return callback


def per_call_overhead(calls=10000, batches=5):
    """(s a wrapped call adds to a bare one, s one counting cg callback costs).

    Measured on no-ops in the calling process, best of `batches`, so that
    spans and cg iterations times these give the time tracing added.
    """
    def noop(_):
        return None

    def best(make):
        times = []
        for _ in range(batches):
            fn = make()
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(None)
            times.append(time.perf_counter() - t0)
        return min(times) / calls

    bare = best(lambda: noop)
    wrapped = best(lambda: Tracer().wrap("noop", noop))
    return wrapped - bare, best(lambda: Tracer().cg_callback(None))


def self_times(spans):
    """span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: (end - start) - child[sid]
            for sid, _, _, start, end in spans}


def layer_times(spans):
    """Per-layer self times, the unattributed remainder and the root span.

    Returns (layers, unattributed, wall).  Raises if a span belongs to no
    layer, so nothing recorded can drop out of the sum.
    """
    own = self_times(spans)
    layers = dict.fromkeys(LAYER_SPANS, 0.0)
    roots = [s for s in spans if s[2] == ROOT]
    if len(roots) != 1 or roots[0][1] is not None:
        raise ValueError("expected exactly one top-level %r span" % ROOT)
    for sid, _, name, _, _ in spans:
        if name == ROOT:
            continue
        if name not in SPAN_LAYER:
            raise ValueError("span %r belongs to no layer" % name)
        layers[SPAN_LAYER[name]] += own[sid]
    root_id, _, _, start, end = roots[0]
    return layers, own[root_id], end - start


def _counted_cg(tracer, cg):
    """scipy's cg, also counting calls, iterations and the matrix nnz."""
    @functools.wraps(cg)
    def wrapper(A, b, *args, **kwargs):
        kwargs["callback"] = tracer.cg_callback(kwargs.get("callback"))
        tracer.counts["cg_calls"] += 1
        tracer.counts["cg_nnz"] += A.nnz
        return cg(A, b, *args, **kwargs)
    return wrapper


def install(tracer):
    """Patch the package's modules; returns a restore() callable.

    Each target is (span name, owner where it is defined, attribute, other
    owners that hold the same object under the same attribute).  A missing
    attribute raises AttributeError here, before the run.
    """
    from semiheat import cli, driver, estimators, fespace, linalg, mesh, scheme

    ws = estimators.SlabWorkspace
    targets = [
        ("linalg.solve_spd", linalg, "solve_spd", [scheme]),
        ("linalg.assemble_mass", linalg, "assemble_mass", [scheme]),
        ("linalg.assemble_stiffness", linalg, "assemble_stiffness", [scheme]),
        ("linalg.load_vector", linalg, "load_vector", [scheme]),
        ("fespace.Space.__init__", fespace.Space, "__init__", []),
        ("fespace.evaluate_in_cells", fespace, "evaluate_in_cells", []),
        ("fespace.evaluate_multi", fespace, "evaluate_multi", []),
        ("fespace.Field.jump_max_per_cell", fespace.Field,
         "jump_max_per_cell", []),
        ("fespace.interpolate", fespace, "interpolate", []),
        ("mesh.Mesh.uniform", mesh.Mesh, "uniform", []),
        ("mesh.Mesh.overlay_finest", mesh.Mesh, "overlay_finest", []),
        ("mesh.Mesh.overlay_coarsest", mesh.Mesh, "overlay_coarsest", []),
        ("mesh.Mesh.refine", mesh.Mesh, "refine", []),
        ("mesh.Mesh.coarsen", mesh.Mesh, "coarsen", []),
        ("mesh.Mesh.locate", mesh.Mesh, "locate", []),
        ("scheme.project_initial", scheme, "project_initial", []),
        ("scheme.imex_step", scheme, "imex_step", []),
        ("estimators.SlabWorkspace.__init__", ws, "__init__", []),
        ("estimators.SlabWorkspace.set_state", ws, "set_state", []),
        ("estimators.SlabWorkspace.overlay_free_dofs", ws,
         "overlay_free_dofs", []),
        ("estimators.SlabWorkspace.eta_time", ws, "eta_time", []),
        ("estimators.SlabWorkspace.eta_space_map", ws, "eta_space_map", []),
        ("estimators.SlabWorkspace.eta_dot_maps", ws, "eta_dot_maps", []),
        ("estimators.initial_space_estimator", estimators,
         "initial_space_estimator", []),
        ("estimators.initial_error_map", estimators, "initial_error_map", []),
        ("estimators.psi_update", estimators, "psi_update", []),
        ("estimators.fixed_point_delta", estimators, "fixed_point_delta", []),
        ("estimators.gronwall_factor", estimators, "gronwall_factor", []),
        ("driver.run_adaptive", driver, "run_adaptive", [cli]),
        ("cli._run_one", cli, "_run_one", []),
        ("cli.run_sweep", cli, "run_sweep", []),
    ]
    points = {"fespace.evaluate_in_cells": ("eval_points", 2),
              "mesh.Mesh.locate": ("locate_points", 1)}
    saved = []
    for name, owner, attr, others in targets:
        original = getattr(owner, attr)
        for other in others:
            if getattr(other, attr) is not original:
                raise AttributeError("%s.%s is not %s"
                                     % (other.__name__, attr, name))
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__))
        else:
            wrapped = tracer.wrap(name, original, points.get(name))
        for o in [owner] + others:
            # A class keeps its raw descriptor (e.g. a classmethod).
            saved.append((o, attr, vars(o)[attr]))
            setattr(o, attr, wrapped)
    saved.append((linalg, "cg", linalg.cg))
    linalg.cg = _counted_cg(tracer, linalg.cg)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def span_table(spans):
    """span name -> [calls, summed self time]."""
    own = self_times(spans)
    table = defaultdict(lambda: [0, 0.0])
    for sid, _, name, _, _ in spans:
        table[name][0] += 1
        table[name][1] += own[sid]
    return dict(table)


def layer_metrics(tracer, workload):
    """(per-layer metrics, root span duration) of one traced run.

    Raises MissingSpan if a span the workload must exercise has 0 calls.
    """
    c = tracer.counts
    missing = [s for s in REQUIRED_ALWAYS + REQUIRED_BY_WORKLOAD[workload]
               if c[s] == 0]
    if missing or c["cg_calls"] == 0:
        raise MissingSpan("traced run recorded zero calls of: %s"
                           % ", ".join(missing or ["scipy cg"]))
    layers, unattributed, wall = layer_times(tracer.spans)
    row_total = sum(end - start for _, _, name, start, end in tracer.spans
                    if name == "cli._run_one")
    out = dict(layers)
    out.update({
        "linalg.solves": c["linalg.solve_spd"],
        "linalg.cg_iters": c["cg_iters"],
        "linalg.cg_iters_per_solve": c["cg_iters"] / c["cg_calls"],
        "linalg.nnz_per_solve": c["cg_nnz"] / c["cg_calls"],
        "linalg.assemble_calls": sum(c[s] for s in
                                     LAYER_SPANS["linalg.assemble_s"]),
        "fespace.space_builds": c["fespace.Space.__init__"],
        "fespace.eval_points": c["eval_points"],
        "fespace.interpolations": c["fespace.interpolate"],
        "mesh.overlays": c["mesh.Mesh.overlay_finest"]
        + c["mesh.Mesh.overlay_coarsest"],
        "mesh.adapts": c["mesh.Mesh.refine"] + c["mesh.Mesh.coarsen"],
        "mesh.locate_points": c["locate_points"],
        "scheme.step_attempts": c["scheme.imex_step"],
        "cli.row_s": row_total / c["cli._run_one"],
        "trace.unattributed_s": unattributed,
    })
    return out, wall
