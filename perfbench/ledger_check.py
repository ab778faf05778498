"""Output check of a run's ledger(s).

A run yields one ledger summary per row (one row for a single run, one
per tolerance for a sweep).  Every seed must satisfy the invariants of a
certified run: no `error: ...` row, every recorded step has delta >= 1,
the bound column is finite and non-decreasing, and the stop reason is the
workload's expected kind.  Seed 0 is also compared with the checked-in
reference: step count, stop reason and dofs_m per row exactly, final t_m,
final bound and tinf to a relative tolerance of RTOL.
"""

import json
import math
import os

from workloads import WORKLOADS

RTOL = 1e-6
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def summarize(stop_reason, result):
    """JSON-ready ledger summary of one row; result is a RunResult or None."""
    if result is None:
        return {"stop_reason": stop_reason, "steps": 0, "dofs_m": [],
                "t_m": [], "bound": [], "delta": [], "tinf": None}
    led = result.ledger
    return {"stop_reason": result.stop_reason, "steps": result.steps,
            "dofs_m": [int(d) for d in led.dofs],
            "t_m": [float(t) for t in led.t],
            "bound": [None if b is None else float(b) for b in led.bound],
            "delta": [None if d is None else float(d) for d in led.delta],
            "tinf": None if result.tinf_estimate is None
            else float(result.tinf_estimate)}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def invariant_problems(workload, rows):
    """Problems with the rows that any seed must avoid; [] when clean."""
    want = WORKLOADS[workload]
    n_rows = len(want.get("sweep_ttols", (None,)))
    if len(rows) != n_rows:
        return ["expected %d row(s), got %d" % (n_rows, len(rows))]
    problems = []
    for i, row in enumerate(rows):
        where = "row %d" % (i + 1)
        stop = str(row["stop_reason"])
        if stop.startswith("error"):
            problems.append("%s: %s" % (where, stop))
            continue
        if not stop.startswith(want["stop"]):
            problems.append("%s: stop reason %r is not %s"
                            % (where, stop, want["stop"]))
        if row["steps"] < 1 or len(row["t_m"]) != row["steps"]:
            problems.append("%s: %d steps but %d ledger rows"
                            % (where, row["steps"], len(row["t_m"])))
        if any(d is None or not d >= 1.0 for d in row["delta"]):
            problems.append("%s: a step has no delta >= 1" % where)
        bound = row["bound"]
        if any(b is None or not math.isfinite(b) for b in bound):
            problems.append("%s: bound column not finite" % where)
        elif any(b1 < b0 for b0, b1 in zip(bound, bound[1:])):
            problems.append("%s: bound column decreases" % where)
    return problems


def reference_problems(rows, ref_rows):
    """Differences between rows and the seed-0 reference rows."""
    if len(rows) != len(ref_rows):
        return ["%d rows, reference has %d" % (len(rows), len(ref_rows))]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        where = "row %d" % (i + 1)
        for key in ("steps", "stop_reason", "dofs_m"):
            if row[key] != ref[key]:
                problems.append("%s: %s differs from the reference"
                                % (where, key))
        if not row["t_m"] or not row["bound"]:
            continue
        for key, got, want in (("final t_m", row["t_m"][-1], ref["t_final"]),
                               ("final bound", row["bound"][-1],
                                ref["bound_final"]),
                               ("tinf", row["tinf"], ref["tinf"])):
            if not _close(got, want):
                problems.append("%s: %s %r, reference %r"
                                % (where, key, got, want))
    return problems


def check(workload, seed, rows, reference):
    """All problems with a run's rows; [] means the output is correct.

    reference holds the workload's seed-0 reference rows; it is compared
    on seed 0 only, and None skips the comparison.
    """
    problems = invariant_problems(workload, rows)
    if seed == 0 and reference is not None and not problems:
        problems = reference_problems(rows, reference)
    return problems
