"""semiheat benchmark: timed adaptive runs with an output check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repeat is one run of the workload
in a fresh interpreter (child.py), one at a time: a closed loop with one
client.  Repeats start until S seconds have passed (at least one).  With
--trace 0 they are untraced and follow SETUP_PROBES set-up-only
interpreters; the last stdout line carries the end-to-end metrics
(medians over the repeats).  With --trace 1 every repeat is traced and
the last line carries the per-layer metrics of the repeat with the
median traced wall time.  The metric names and units are those of
BENCHMARK.json.  Every result is also written to .perfbench_out/
together with the environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import EXIT_INSTRUMENTATION
from spans import LAYER_SPANS
from workloads import WORKLOADS, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3
TIME_LIMIT = 165.0          # seconds; no child runs past it



class InstrumentationError(RuntimeError):
    pass


def run_child(workload, seed, text, deadline, trace=0, setup_only=False):
    """One fresh interpreter, killed at `deadline` (a perf_counter time).

    Returns the child's JSON result, or None if it failed.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        proc = subprocess.run(cmd, input=text, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: repeat timed out", file=sys.stderr)
        return None
    if proc.returncode == EXIT_INSTRUMENTATION:
        raise InstrumentationError("traced child failed; see stderr")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: repeat exited with code %d" % proc.returncode,
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summary(values):
    """(median, q1, q3, n) of a sample."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def host_environment():
    """nproc, CPU model and git commit; the child adds the library versions."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout, or 'unknown' outside git.

    The ceiling stops git from finding a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metric_units():
    """(end-to-end, per-layer) lists of (name, unit) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple([(m["name"], m["unit"]) for m in spec[key]]
                 for key in ("end_to_end", "per_layer"))


def is_ok(result):
    return result is not None and not result.get("problems")


def measure(workload, seed, seconds, trace):
    """Set-up probes (untraced only), then repeats until `seconds` passed."""
    text = config_text(workload, seed)
    deadline = time.perf_counter() + TIME_LIMIT
    probes = [] if trace else [
        run_child(workload, seed, text, deadline, setup_only=True)
        for _ in range(SETUP_PROBES)]
    repeats = []
    t_window = time.perf_counter()
    longest = 0.0
    while True:
        now = time.perf_counter()
        if repeats and (now - t_window >= seconds
                        or now + longest > deadline):
            break
        repeats.append(run_child(workload, seed, text, deadline, trace))
        longest = max(longest, time.perf_counter() - now)
    return probes, repeats


def end_to_end(probes, repeats):
    ok = [r for r in repeats if is_ok(r)]
    samples = {
        "wall_s": [r["wall_s"] for r in ok],
        "cpu_s": [r["cpu_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in probes + repeats if r is not None],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "dofsteps_per_s": [r["dofsteps"] / r["wall_s"] for r in ok],
    }
    return samples


def median_repeat(repeats):
    """The checked traced repeat with the median root-span time (the lower
    middle one of an even count), or None if no repeat passed."""
    ok = sorted((r for r in repeats if is_ok(r)), key=lambda r: r["root_s"])
    return ok[(len(ok) - 1) // 2] if ok else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = os.path.join(ROOT, "src", "semiheat", "__init__.py")
    if not os.path.isfile(package):
        sys.exit("perfbench: no semiheat sources under %s" % ROOT)
    end_to_end_units, per_layer_units = metric_units()
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        probes, repeats = measure(args.workload, args.seed, args.seconds,
                                  args.trace)
    except InstrumentationError as exc:
        sys.exit("perfbench: %s" % exc)
    attempted = len(repeats)
    failed = sum(not is_ok(r) for r in repeats)
    env = host_environment()
    env.update(next((r["env"] for r in repeats if r is not None), {}))

    print("workload %s, seed %d: %d run(s), %d failed, error_rate %.3g"
          % (args.workload, args.seed, attempted, failed, failed / attempted))
    for r in repeats:
        if r is not None and r.get("problems"):
            print("  output check failed: %s" % "; ".join(r["problems"]))
    metrics = {}
    if args.trace:
        traced = median_repeat(repeats)
        if traced is None:
            sys.exit("perfbench: no checked traced run")
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.json"
                                  % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": traced["spans"]}, fh)
        for r in repeats:
            if r is not None:
                r.pop("spans", None)
        layers = traced["layers"]
        print("  traced repeat with the median time, of %d:" % len(repeats))
        for name, unit in per_layer_units:
            metrics[name] = {"value": layers[name], "unit": unit}
            print("  %-28s %14.6g %s" % (name, layers[name], unit))
        parts = sum(layers[n] for n in LAYER_SPANS) \
            + layers["trace.unattributed_s"]
        print("  layer self times + unattributed = %.6f s, traced wall_s "
              "= %.6f s" % (parts, traced["root_s"]))
        print("  per span: calls, self time")
        for name, (calls, self_s) in sorted(traced["span_table"].items()):
            print("    %-44s %8d %12.6f s" % (name, calls, self_s))
    else:
        samples = end_to_end(probes, repeats)
        if not samples["wall_s"]:
            sys.exit("perfbench: no checked run")
        for name, unit in end_to_end_units:
            med, q1, q3, n = summary(samples[name])
            metrics[name] = {"value": med, "unit": unit}
            print("  %-15s median %12.6g  q1 %12.6g  q3 %12.6g  n %2d  %s"
                  % (name, med, q1, q3, n, unit))
    print("  env: %s" % json.dumps(env, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(dict(result, env=env, probes=probes, repeats=repeats),
                  fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
