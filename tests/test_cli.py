"""Config parsing, sweep table, slope fits, CLI entry points."""

import os
from dataclasses import fields

import numpy as np
import pytest

from semiheat import cli, driver
from semiheat import scheme as sc
from semiheat.cli import (parse_config, emit_config, ConfigError,
                          fit_slope, run_sweep, sweep_csv_text,
                          load_problem, main)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_empty_config_requires_problem():
    with pytest.raises(ConfigError) as exc:
        parse_config("")
    assert "name" in str(exc.value)


def test_defaults_and_ttol_minus_rule():
    cfg = parse_config("[problem]\nname = heat_decay\n"
                       "[tolerances]\nttol_plus = 0.25\n")
    assert cfg.degree == 3
    assert cfg.c_infinity == 1.0
    assert cfg.time_quadrature == 3
    assert cfg.scale_tolerances is True
    tol = cfg.resolved_tolerances()
    assert tol.ttol_minus == pytest.approx(0.25 / 16)
    assert tol.stol_minus == pytest.approx(cfg.stol_plus / 1024)


def test_bad_tolerance_band_is_a_config_error():
    # Invariants spanning several keys are checked after parsing, so the
    # error names no line.
    with pytest.raises(ConfigError, match="ratio must be >= 8") as exc:
        parse_config("[problem]\nname = heat_decay\n[tolerances]\n"
                     "ttol_plus = 0.25\nttol_minus = 0.1\n")
    assert exc.value.line is None


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as exc:
        parse_config("[problem]\nname = heat_decay\nwhatsthis = 3\n")
    assert exc.value.line == 3
    with pytest.raises(ConfigError) as exc:
        parse_config("[problem]\nname = heat_decay\n[discretization]\n"
                     "degree = banana\n")
    assert exc.value.line == 4
    with pytest.raises(ConfigError):
        parse_config("[problem]\nname = heat_decay\nk1 = -1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config("[problem]\nname = heat_decay\n[weird]\nx = 1\n")
    assert exc.value.line == 3
    # key placed under the wrong section
    with pytest.raises(ConfigError) as exc:
        parse_config("[problem]\nname = heat_decay\ndegree = 2\n")
    assert exc.value.line == 3


def test_a_repeated_key_is_rejected_with_both_lines(tmp_path, capsys):
    text = ("[problem]\nname = heat_decay\n[discretization]\ndegree = 3\n"
            "k1 = 0.1\n\ndegree = 5\n")
    with pytest.raises(ConfigError, match="'degree' repeated: first set on "
                                          "line 4") as exc:
        parse_config(text)
    assert exc.value.line == 7
    # a repeat under a second header of the same section is a repeat too
    with pytest.raises(ConfigError, match="'name'") as exc:
        parse_config("[problem]\nname = heat_decay\n[problem]\n"
                     "name = example1\n")
    assert exc.value.line == 4
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text(text)
    assert main(["solve", "--config", str(cfgpath)]) == 1
    assert capsys.readouterr().err == ("error: line 7: key 'degree' repeated: "
                                       "first set on line 4\n")


@pytest.mark.parametrize("section, key, value", [
    ("problem", "T", "-1"),
    ("discretization", "c_infinity", "0"),
    ("discretization", "time_quadrature", "0"),
    ("output", "dump_every", "-2"),
    ("sweep", "sweep_depth", "-1"),
    ("sweep", "sweep_base", "0"),
    ("sweep", "sweep_base", "4"),
    ("sweep", "sweep_ttols", "0 -1"),
    ("problem", "T", "inf"),
    ("discretization", "k1", "inf"),
    ("tolerances", "ttol_plus", "inf"),
    ("sweep", "sweep_ttols", "0.25 inf"),
])
def test_out_of_range_values_are_rejected(tmp_path, capsys, section, key,
                                          value):
    text = "[problem]\nname = heat_decay\n[%s]\n%s = %s\n" % (section, key,
                                                              value)
    with pytest.raises(ConfigError, match="%s must be" % key) as exc:
        parse_config(text)
    assert exc.value.line is None
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text(text)
    assert main(["solve", "--config", str(cfgpath)]) == 1
    assert capsys.readouterr().err.startswith("error: %s must be " % key)


def test_each_field_is_one_key_and_each_number_has_a_bound():
    names = sorted(f.name for f in fields(cli.RunConfig))
    assert sorted(cli._KEY_FIELD.get(k, k) for k in cli._KEY_SECTION) \
        == names
    numeric = [f.name for f in fields(cli.RunConfig)
               if f.type in (int, float, tuple)]
    assert sorted(k for _, _, keys in cli._BOUNDS for k in keys) \
        == sorted(numeric)


def test_plus_tolerance_overrides_keep_the_configured_ratios():
    cfg = parse_config("[problem]\nname = heat_decay\n[tolerances]\n"
                       "ttol_plus = 0.25\nttol_minus = 0.001\n"
                       "stol_plus = 0.5\n")
    new = cfg.with_plus_tolerances(ttol_plus=0.1, stol_plus=0.2)
    assert (cfg.ttol_plus, cfg.ttol_minus, cfg.stol_plus) == (0.25, 0.001,
                                                              0.5)
    assert new.ttol_plus == 0.1 and new.stol_plus == 0.2
    assert new.ttol_minus == 0.1 * (0.001 / 0.25)
    assert new.stol_minus is None  # still the default stol_plus/1024
    assert new.resolved_tolerances().stol_minus == 0.2 / 1024
    assert cfg.with_plus_tolerances() == cfg


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\n[problem]\nname = heat_decay  # tail\n")
    assert cfg.problem == "heat_decay"


def test_roundtrip_parse_emit():
    cfg = parse_config("""
[problem]
name = example1
blowup = true
[discretization]
degree = 4
initial_refinement = 5
k1 = 0.07
c_infinity = 2.0
time_quadrature = 5
[tolerances]
ttol_plus = 0.0625
ttol_minus = 0.001
stol_plus = 0.01
stol_minus = 1e-9
scale_tolerances = false
[output]
out_dir = /tmp/xyz
dump_every = 3
[sweep]
sweep_depth = 4
sweep_base = 0.5
""")
    again = parse_config(emit_config(cfg))
    assert again == cfg
    # sweep_base round-trips when sweep_depth is 0
    cfg = parse_config("[problem]\nname = heat_decay\n"
                       "[sweep]\nsweep_depth = 0\nsweep_base = 0.5\n")
    assert parse_config(emit_config(cfg)) == cfg


def test_roundtrip_with_explicit_sweep_list():
    cfg = parse_config("[problem]\nname = heat_decay\n"
                       "[sweep]\nsweep_ttols = 0.5, 0.125 0.03125\n")
    assert cfg.sweep_ttols == (0.5, 0.125, 0.03125)
    assert parse_config(emit_config(cfg)) == cfg
    # sweep_depth round-trips when an explicit list overrides it
    cfg = parse_config("[problem]\nname = heat_decay\n[sweep]\n"
                       "sweep_depth = 3\nsweep_ttols = 0.5 0.25\n")
    assert parse_config(emit_config(cfg)) == cfg


def test_emit_config_rejects_values_it_cannot_write():
    with pytest.raises(ConfigError, match="out_dir"):
        emit_config(cli.RunConfig(problem="heat_decay", out_dir="runs/a#1 "))
    for out_dir in ("runs/a#1", " runs", "runs\n", "a\nb", "a\rb"):
        with pytest.raises(ConfigError, match="out_dir"):
            emit_config(cli.RunConfig(problem="heat_decay", out_dir=out_dir))
    cfg = cli.RunConfig(problem="heat_decay", out_dir="runs/a b")
    assert parse_config(emit_config(cfg)) == cfg


def test_shipped_presets_parse():
    for name, degree in (("example1", 9), ("example2", 6), ("example3", 3)):
        path = os.path.join(REPO, "configs", "%s.cfg" % name)
        with open(path) as f:
            cfg = parse_config(f.read())
        assert cfg.problem == name
        assert cfg.degree == degree
        cfg.resolved_tolerances()
        assert parse_config(emit_config(cfg)) == cfg
    with open(os.path.join(REPO, "configs", "example1.cfg")) as f:
        ex1 = parse_config(f.read())
    assert ex1.blowup is True
    assert ex1.sweep_list() == pytest.approx([0.25 ** j for j in range(1, 6)])
    with open(os.path.join(REPO, "configs", "example3.cfg")) as f:
        ex3 = parse_config(f.read())
    assert ex3.T == 0.75


def test_load_problem_overrides():
    cfg = parse_config("[problem]\nname = heat_decay\nT = 0.02\n")
    prob = load_problem(cfg)
    assert prob.T == 0.02
    cfg2 = parse_config("[problem]\nname = heat_decay\na = 2.0\n")
    prob2 = load_problem(cfg2)
    assert prob2.a == 2.0
    assert prob2.exact is None  # attached solution assumed the default a
    cfg3 = parse_config("[problem]\nname = example3\nblowup = true\n")
    assert load_problem(cfg3).T is None


def test_fit_slope_basics():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    assert fit_slope(xs, xs) == pytest.approx(1.0)
    assert fit_slope(xs, 1.0 / xs) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_slope([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])


def test_fit_slope_noisy_power_law():
    rng = np.random.default_rng(0)
    xs = np.logspace(0, 3, 8)
    ys = 2.7 * xs ** -0.75 * (1.0 + 0.05 * rng.standard_normal(8))
    assert fit_slope(xs, ys) == pytest.approx(-0.75, abs=0.1)


def _tiny_sweep_cfg(tmp_path):
    return parse_config("""
[problem]
name = heat_decay
T = 0.05
[discretization]
degree = 1
initial_refinement = 3
k1 = 0.02
[tolerances]
ttol_plus = 0.5
stol_plus = 10.0
[output]
out_dir = %s
[sweep]
sweep_ttols = 0.5 0.125
""" % tmp_path)


def test_run_sweep_rows_and_csv(tmp_path):
    cfg = _tiny_sweep_cfg(tmp_path)
    rows = run_sweep(cfg)
    assert len(rows) == 2
    assert all(r["stop_reason"] == "final_time" for r in rows)
    assert rows[0]["steps"] <= rows[1]["steps"]
    text = sweep_csv_text(rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("ttol,steps,final_time")
    assert len(lines) == 3


@pytest.mark.parametrize("degree, stol", [(2, 1.0), (1, 3.0)])
def test_sweep_rows_share_first_interval_work_invisibly(tmp_path,
                                                        monkeypatch,
                                                        degree, stol):
    # heat_decay from a 4x4 mesh: the first interval refines the mesh two
    # or three times and halves k.  At p = 2 the first two rows end it on
    # the same mesh; at p = 1 the second row ends it on a mesh of its own.
    # The third row's tolerance lies between, so a pass the second row
    # rejected ends the third row's first interval.
    cfg = parse_config("""
[problem]
name = heat_decay
T = 0.01
[discretization]
degree = %d
initial_refinement = 2
k1 = 0.01
[tolerances]
stol_plus = %r
[output]
out_dir = %s
[sweep]
sweep_ttols = 0.01 0.0025 0.005
""" % (degree, stol, tmp_path))
    projected = []
    project = sc.project_initial

    def counting_project(problem, space):
        projected.append(len(space.mesh))
        return project(problem, space)

    monkeypatch.setattr(sc, "project_initial", counting_project)
    rows = run_sweep(cfg)
    in_sweep = len(projected)
    del projected[:]
    for i, row in enumerate(rows):
        alone = cli._run_one(cfg, ttol_plus=row["ttol"])
        shared_csv = tmp_path / ("shared_%d.csv" % i)
        alone_csv = tmp_path / ("alone_%d.csv" % i)
        row["result"].ledger.to_csv(str(shared_csv))
        alone.ledger.to_csv(str(alone_csv))
        assert shared_csv.read_bytes() == alone_csv.read_bytes()
    assert in_sweep < len(projected)


def test_cli_solve_and_exit_codes(tmp_path):
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("""
[problem]
name = heat_decay
T = 0.04
[discretization]
degree = 1
initial_refinement = 3
k1 = 0.02
[tolerances]
ttol_plus = 0.5
stol_plus = 10.0
[output]
out_dir = %s
""" % (tmp_path / "out"))
    rc = main(["solve", "--config", str(cfgpath)])
    assert rc == 0
    assert (tmp_path / "out" / "ledger.csv").exists()
    assert (tmp_path / "out" / "summary.txt").exists()
    header = (tmp_path / "out" / "ledger.csv").read_text().splitlines()[0]
    assert header == ("m,t_m,k_m,dofs_m,linf_U_m,eta_T,xi,xi_prime,psi,"
                      "delta,r,r_tilde,bound")


def test_cli_solve_blowup_exit_code(tmp_path):
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("""
[problem]
name = example1
blowup = true
[discretization]
degree = 3
initial_refinement = 4
k1 = 0.05
[tolerances]
ttol_plus = 0.25
ttol_minus = 6.103515625e-05
stol_plus = 0.05
stol_minus = 4.76837158203125e-08
[output]
out_dir = %s
""" % (tmp_path / "out"))
    rc = main(["solve", "--config", str(cfgpath)])
    assert rc == 2


def test_cli_solve_overrides(tmp_path, capsys):
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("""
[problem]
name = heat_decay
T = 0.04
[discretization]
degree = 2
initial_refinement = 2
k1 = 0.02
[tolerances]
ttol_plus = 0.5
stol_plus = 10.0
[output]
out_dir = %s
""" % (tmp_path / "out"))
    rc = main(["solve", "--config", str(cfgpath), "--degree", "1",
               "--ttol", "0.25", "--out", str(tmp_path / "alt")])
    assert rc == 0
    assert (tmp_path / "alt" / "ledger.csv").exists()


def test_cli_sweep_and_report(tmp_path, capsys):
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("""
[problem]
name = heat_decay
T = 0.05
[discretization]
degree = 1
initial_refinement = 3
k1 = 0.02
[tolerances]
ttol_plus = 0.5
stol_plus = 10.0
[output]
out_dir = %s
[sweep]
sweep_ttols = 0.5 0.125
""" % (tmp_path / "out"))
    rc = main(["sweep", "--config", str(cfgpath)])
    assert rc == 0
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert (tmp_path / "out" / "ledger_01.csv").exists()
    assert (tmp_path / "out" / "ledger_02.csv").exists()
    rc = main(["report", "--in", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep rows: 2" in out


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nname = nope\n")
    assert main(["solve", "--config", str(bad)]) == 1
    assert "error" in capsys.readouterr().err
    # a sweep without a list fails before it makes its output directory
    bad.write_text("[problem]\nname = heat_decay\n[output]\nout_dir = %s\n"
                   % (tmp_path / "out"))
    assert main(["sweep", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == "error: sweep list is empty\n"
    assert not (tmp_path / "out").exists()


def test_cli_reports_hit_caps(tmp_path, capsys, monkeypatch):
    # k1 = 0.05 fails the first pass's time tolerance, and a cap of 0
    # passes stops the first interval there
    monkeypatch.setattr(driver, "FIRST_INTERVAL_CAP", 0)
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("""
[problem]
name = heat_decay
T = 0.05
[discretization]
degree = 1
initial_refinement = 3
k1 = 0.05
[tolerances]
ttol_plus = 0.01
stol_plus = 10.0
[output]
out_dir = %s
[sweep]
sweep_ttols = 0.01 0.005
""" % (tmp_path / "out"))
    assert main(["solve", "--config", str(cfgpath)]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert summary[1:] == ["caps_hit=first_interval:0"]
    assert "caps hit: first_interval:0" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfgpath)]) == 0
    err = capsys.readouterr().err
    assert "row 1 (ttol=0.01): caps hit: first_interval:0" in err
    assert "row 2 (ttol=0.005): caps hit: first_interval:0" in err


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("under", [False, True])
def test_an_unusable_output_directory_fails_before_the_run(
        tmp_path, capsys, monkeypatch, command, under):
    # --out names an existing file, or a directory under one
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "_run_one", no_run)
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "out" if under else blocker
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("[problem]\nname = heat_decay\n"
                       "[sweep]\nsweep_ttols = 0.5 0.25\n")
    assert main([command, "--config", str(cfgpath), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(blocker) in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["run.cfg", "taken"]
    assert blocker.read_text() == "kept\n"
