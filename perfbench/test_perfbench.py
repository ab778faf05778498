"""Tests of the benchmark's own logic (no timed solver runs).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

import ledger_check
import run
import spans
from workloads import PERTURBATION, WORKLOADS, config_text, factors

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# -- spans ------------------------------------------------------------------

def nested_spans():
    # root [0, 10] > solve [1, 4] > eval [2, 3];  root > driver [5, 9]
    return [(2, 1, "fespace.evaluate_in_cells", 2.0, 3.0),
            (1, 0, "linalg.solve_spd", 1.0, 4.0),
            (3, 0, "driver.run_adaptive", 5.0, 9.0),
            (0, None, spans.ROOT, 0.0, 10.0)]


def test_self_times_subtract_direct_children_only():
    own = spans.self_times(nested_spans())
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_layer_self_times_and_remainder_add_up_to_root():
    layers, unattributed, wall = spans.layer_times(nested_spans())
    assert layers["linalg.solve_s"] == 2.0
    assert layers["fespace.eval_s"] == 1.0
    assert layers["driver.self_s"] == 4.0
    assert unattributed == 3.0 and wall == 10.0
    assert sum(layers.values()) + unattributed == wall


def test_span_outside_every_layer_is_an_error():
    bad = nested_spans() + [(4, 0, "mesh.Mesh.unknown", 9.5, 9.6)]
    with pytest.raises(ValueError):
        spans.layer_times(bad)


def test_wrapper_returns_result_unchanged_and_records_nesting():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("fespace.interpolate", lambda x: [x])
    outer = tracer.wrap("scheme.imex_step", lambda x: inner(x) + [x])
    marker = object()
    assert tracer.root(outer, marker) == [marker, marker]
    by_name = {name: (sid, parent) for sid, parent, name, _, _ in tracer.spans}
    assert by_name["scheme.imex_step"][1] == by_name[spans.ROOT][0]
    assert by_name["fespace.interpolate"][1] == by_name["scheme.imex_step"][0]
    assert tracer.counts["fespace.interpolate"] == 1


def test_install_patches_every_lookup_site_and_restores():
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from scipy.sparse import identity
    from semiheat import cli, linalg, scheme
    originals = (linalg.solve_spd, scheme.solve_spd, cli.run_adaptive)
    A = (2.0 * identity(5)).tocsr()
    b = np.arange(1.0, 6.0)
    plain = linalg.solve_spd(A, b)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert scheme.solve_spd is linalg.solve_spd is not originals[0]
        assert cli.run_adaptive is not originals[2]
        traced = tracer.root(scheme.solve_spd, A, b)
    finally:
        restore()
    assert (linalg.solve_spd, scheme.solve_spd, cli.run_adaptive) == originals
    np.testing.assert_array_equal(traced, plain)
    assert tracer.counts["linalg.solve_spd"] == 1
    assert tracer.counts["cg_calls"] == 1 and tracer.counts["cg_iters"] >= 1


# -- workload generation ----------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_config(name):
    assert config_text(name, 7) == config_text(name, 7)
    assert config_text(name, 7) != config_text(name, 8)


def test_seed_zero_is_the_preset():
    assert factors(0) == (1.0, 1.0)
    text = config_text("ex1_blowup_p4", 0)
    assert "k1 = 0.07\n" in text and "ttol_plus = 0.015625\n" in text
    assert "ttol_minus = 3.814697265625e-06\n" in text
    shipped = config_text("ex1_sweep_p9", 0)
    assert "degree = 9\n" in shipped
    assert "sweep_ttols = 0.25 0.0625\n" in shipped


def test_other_seeds_move_inputs_slightly():
    for seed in range(1, 50):
        for f in factors(seed):
            assert f != 1.0 and abs(f - 1.0) <= PERTURBATION


# -- output check -----------------------------------------------------------

def reference_like_rows(name):
    """Full ledger rows consistent with the checked-in reference."""
    rows = []
    for ref in ledger_check.load_reference()[name]:
        n = ref["steps"]
        rows.append({
            "stop_reason": ref["stop_reason"], "steps": n,
            "dofs_m": list(ref["dofs_m"]),
            "t_m": [ref["t_final"] * (i + 1) / n for i in range(n)],
            "bound": [ref["bound_final"] * (i + 1) / n for i in range(n)],
            "delta": [1.5] * n, "tinf": ref["tinf"]})
    return rows


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_rows_pass(name):
    rows = reference_like_rows(name)
    reference = ledger_check.load_reference()[name]
    assert ledger_check.check(name, 0, rows, reference) == []
    assert ledger_check.check(name, 3, rows, None) == []


@pytest.mark.parametrize("mutate", [
    lambda r: r["dofs_m"].__setitem__(0, r["dofs_m"][0] + 1),
    lambda r: r["bound"].__setitem__(-1, r["bound"][-1] * (1 + 1e-4)),
    lambda r: r.__setitem__("tinf", r["tinf"] * 1.01),
    lambda r: r.__setitem__("stop_reason", "delta_nonexistent at step 2"),
])
def test_perturbed_ledger_is_rejected_on_seed_zero(mutate):
    name = "ex1_blowup_p4"
    rows = reference_like_rows(name)
    mutate(rows[0])
    reference = ledger_check.load_reference()[name]
    assert ledger_check.check(name, 0, rows, reference)


@pytest.mark.parametrize("mutate", [
    lambda r: r["delta"].__setitem__(1, 0.5),
    lambda r: r["delta"].__setitem__(1, None),
    lambda r: r["bound"].__setitem__(1, float("inf")),
    lambda r: r["bound"].__setitem__(1, 0.0),
    lambda r: r.__setitem__("stop_reason", "max_steps"),
])
def test_invariants_reject_on_any_seed(mutate):
    name = "ex3_fixed_p3"
    rows = reference_like_rows(name)
    mutate(rows[0])
    assert ledger_check.check(name, 5, rows, None)


def test_error_sweep_row_is_rejected():
    name = "ex1_sweep_p9"
    rows = reference_like_rows(name)
    rows[1] = ledger_check.summarize("error: conjugate gradients stalled",
                                     None)
    problems = ledger_check.check(name, 4, rows, None)
    assert problems and "error" in problems[0]
    reference = ledger_check.load_reference()[name]
    assert ledger_check.check(name, 0, rows, reference)


# -- traced repeats -----------------------------------------------------------

def test_reported_traced_repeat_is_the_checked_median():
    def rep(root_s, problems=()):
        return {"root_s": root_s, "problems": list(problems)}
    repeats = [rep(3.0), rep(1.0), None, rep(0.5, ["bound decreases"]),
               rep(2.0)]
    assert run.median_repeat(repeats)["root_s"] == 2.0
    assert run.median_repeat(repeats[:2])["root_s"] == 1.0
    assert run.median_repeat([None, rep(0.5, ["x"])]) is None


def test_tracing_overhead_per_call_is_small_and_positive():
    per_span, per_iter = spans.per_call_overhead(calls=2000, batches=3)
    assert 0.0 < per_span < 1e-4
    assert 0.0 < per_iter < 1e-4
