"""One repeat of one workload, in a fresh interpreter.

Reads the generated config text on stdin, times set-up (cold `import
semiheat`, config parse, `load_problem`, `Mesh.uniform`) and then the run
from its call to the checked result, and prints one JSON object as the
last line of stdout.  With --trace 1 the package is patched after set-up
and the output adds the spans and the per-layer metrics of this run,
among them the time tracing added: the wrapper and cg-callback costs,
measured on no-ops in this process, times the spans and cg iterations
recorded.  With --setup-only the run is skipped.

Run by run.py from the checkout root with PYTHONPATH=src.
"""

import argparse
import json
import os
import resource
import sys
import time

# Exit code for a broken instrumentation (a patch target or a required
# span is missing); run.py aborts on it instead of counting a failed run.
EXIT_INSTRUMENTATION = 3


def instrumentation_failed(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(EXIT_INSTRUMENTATION)


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_info():
    """(OpenBLAS config string, threads in effect) of numpy's bundled BLAS."""
    import ctypes
    import glob
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):   # 64-bit and 32-bit integer builds
            get_threads = getattr(lib, "scipy_openblas_get_num_threads"
                                  + suffix, None)
            get_config = getattr(lib, "scipy_openblas_get_config" + suffix,
                                 None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return "unknown", None


def environment():
    import platform
    import numpy
    import scipy
    blas_config, blas_threads = blas_info()
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": blas_config, "blas_threads": blas_threads}


def run_rows(cli, cfg, kind):
    """The run under test; returns [(stop_reason, RunResult or None)]."""
    if kind == "sweep":
        return [(r["stop_reason"], r["result"]) for r in cli.run_sweep(cfg)]
    res = cli._run_one(cfg)
    return [(res.stop_reason, res)]


def mesh_changes(results):
    """Slabs whose end mesh differs from their start mesh, over all rows."""
    return sum(s.space_prev.mesh.leafset != s.space_next.mesh.leafset
               for res in results if res is not None
               for s in res.trajectory.slabs)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    text = sys.stdin.read()

    t0 = time.perf_counter()
    import semiheat  # noqa: F401  (cold import is part of set-up)
    from semiheat import cli
    from semiheat.mesh import Mesh
    cfg = cli.parse_config(text)
    prob = cli.load_problem(cfg)
    Mesh.uniform(prob.rect, cfg.initial_refinement)
    out = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        print(json.dumps(out))
        return

    import ledger_check
    import spans
    from workloads import WORKLOADS
    kind = WORKLOADS[args.workload]["kind"]
    reference = None
    if args.seed == 0:
        reference = ledger_check.load_reference()[args.workload]

    def run():
        rows = run_rows(cli, cfg, kind)
        summaries = [ledger_check.summarize(s, r) for s, r in rows]
        problems = ledger_check.check(args.workload, args.seed, summaries,
                                      reference)
        return rows, summaries, problems

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
        except AttributeError as exc:
            instrumentation_failed("cannot instrument semiheat: %s" % exc)
    cpu0 = cpu_seconds()
    w0 = time.perf_counter()
    if tracer is None:
        rows, summaries, problems = run()
    else:
        rows, summaries, problems = tracer.root(run)
    wall = time.perf_counter() - w0
    cpu = cpu_seconds() - cpu0

    steps = sum(s["steps"] for s in summaries)
    out.update({
        "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "dofsteps": sum(sum(s["dofs_m"]) for s in summaries),
        "steps": steps,
        "stops": [s["stop_reason"] for s in summaries],
        "problems": problems,
        "ledgers": summaries,
        "env": environment(),
    })
    if tracer is not None:
        try:
            layers, out["root_s"] = spans.layer_metrics(tracer, args.workload)
        except spans.MissingSpan as exc:
            instrumentation_failed(str(exc))
        layers["scheme.accept_ratio"] = \
            steps / tracer.counts["scheme.imex_step"]
        layers["driver.mesh_changes"] = mesh_changes([r for _, r in rows])
        per_span, per_iter = spans.per_call_overhead()
        layers["trace.overhead_s"] = len(tracer.spans) * per_span \
            + tracer.counts["cg_iters"] * per_iter
        out["layers"] = layers
        out["span_table"] = spans.span_table(tracer.spans)
        out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
