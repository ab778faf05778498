"""The benchmark's workloads and the config text each seed generates.

Seed 0 reproduces the presets exactly.  Any other seed scales `k1` and
the starting time tolerance(s) by factors drawn from [0.98, 1.02], so a
claim can be re-checked on inputs that were not seen while a change was
written.  The program under test only ever receives the generated text,
which it parses with `semiheat.cli.parse_config`.
"""

import random

# Large enough that some seeds leave the preset's adaptive path (on
# ex3_fixed_p3 about 2 seeds in 10 take a path with more peak dofs), so
# other seeds exercise inputs a change was not written against.  Those
# seeds are checked by invariants only.
PERTURBATION = 0.02

# name -> preset.  `kind` selects how the child drives the run: "single"
# is one adaptive run through the CLI's row function, "sweep" is
# `cli.run_sweep` over `sweep_ttols`.  `ttol_ratio` is ttol_plus /
# ttol_minus, kept fixed when a seed moves ttol_plus.
WORKLOADS = {
    # Row j=3 of the example1 acceptance sweep, run to the blow-up stop.
    "ex1_blowup_p4": dict(
        kind="single", stop="delta_nonexistent",
        problem="example1", blowup=True, degree=4, initial_refinement=4,
        k1=0.07, ttol_plus=0.25 ** 3, ttol_ratio=4096.0,
        stol_plus=0.01, stol_minus=0.01 / 2 ** 30),
    # configs/example3.cfg as shipped.
    "ex3_fixed_p3": dict(
        kind="single", stop="final_time",
        problem="example3", T=0.75, degree=3, initial_refinement=4,
        k1=0.01, ttol_plus=0.01, ttol_ratio=16.0,
        stol_plus=0.02, stol_minus=1.953125e-05),
    # configs/example1.cfg as shipped, swept over two time tolerances.
    "ex1_sweep_p9": dict(
        kind="sweep", stop="delta_nonexistent",
        problem="example1", blowup=True, degree=9, initial_refinement=4,
        k1=0.07, ttol_plus=0.25, ttol_ratio=4096.0,
        stol_plus=0.01, stol_minus=9.313225746154785e-12,
        sweep_ttols=(0.25, 0.0625)),
}


def factors(seed):
    """(k1 factor, ttol factor) for a seed; exactly (1, 1) for seed 0."""
    if seed == 0:
        return 1.0, 1.0
    rng = random.Random(seed)
    return tuple(1.0 + rng.uniform(-PERTURBATION, PERTURBATION)
                 for _ in range(2))


def config_text(name, seed):
    """Config file text for one workload and seed."""
    w = WORKLOADS[name]
    fk, ft = factors(seed)
    ttol_plus = w["ttol_plus"] * ft
    lines = ["[problem]", "name = %s" % w["problem"]]
    if w.get("blowup"):
        lines.append("blowup = true")
    if "T" in w:
        lines.append("T = %r" % w["T"])
    lines += ["", "[discretization]",
              "degree = %d" % w["degree"],
              "initial_refinement = %d" % w["initial_refinement"],
              "k1 = %r" % (w["k1"] * fk),
              "", "[tolerances]",
              "ttol_plus = %r" % ttol_plus,
              "ttol_minus = %r" % (ttol_plus / w["ttol_ratio"]),
              "stol_plus = %r" % w["stol_plus"],
              "stol_minus = %r" % w["stol_minus"],
              "", "[output]",
              "out_dir = .perfbench_out/runs"]
    if w["kind"] == "sweep":
        lines += ["", "[sweep]", "sweep_ttols = %s"
                  % " ".join(repr(t * ft) for t in w["sweep_ttols"])]
    return "\n".join(lines) + "\n"
