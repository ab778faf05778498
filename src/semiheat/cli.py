"""Command-line front end: solve, sweep and report.

Configs are flat `key = value` files with `#` comments and section
headers in square brackets; see the shipped files under configs/.  Each
key is a `RunConfig` field listed under its section in `_SECTIONS`; the
field's type says how its text parses, `_BOUNDS` its range, and
`emit_config` writes text that parses back to an equal RunConfig (or
refuses a string value that could not).
`solve` runs one adaptive computation, `sweep` repeats it over a list of
decreasing time tolerances and writes a table-shaped CSV, and `report`
post-processes a sweep directory into summary lines and convergence
slopes.  Exit codes: 0 completed, 2 stopped by fixed-point nonexistence
(the expected blow-up signal), 1 error, a failed solver's included.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .linalg import SolverFailure
from .mesh import Mesh
from .driver import (Tolerances, DriverOptions, FirstIntervalCache,
                     run_adaptive)
from .problems import builtin, builtin_names


class ConfigError(ValueError):
    """Malformed configuration; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass
class RunConfig:
    problem: str = ""
    a: float = None           # None = problem default
    T: float = None           # None = problem default
    blowup: bool = None       # force blow-up mode (T = infinity)
    degree: int = 3
    initial_refinement: int = 4
    k1: float = 0.1
    c_infinity: float = 1.0
    time_quadrature: int = 3
    ttol_plus: float = 0.25
    ttol_minus: float = None  # default ttol_plus/16
    stol_plus: float = 1.0
    stol_minus: float = None  # default stol_plus/1024
    scale_tolerances: bool = True
    out_dir: str = "runs"
    dump_every: int = 0       # 0 = no dumps
    sweep_depth: int = 0      # rows with ttol+ = base**j, j = 1..depth
    sweep_base: float = 0.25
    sweep_ttols: tuple = ()   # explicit list overrides depth/base

    def with_plus_tolerances(self, ttol_plus=None, stol_plus=None):
        """A copy with new plus tolerances; set minus ones keep their ratio."""
        changes = {}
        for kind, plus in (("ttol", ttol_plus), ("stol", stol_plus)):
            if plus is None:
                continue
            minus = getattr(self, kind + "_minus")
            changes[kind + "_plus"] = plus
            if minus is not None:
                changes[kind + "_minus"] = \
                    plus * (minus / getattr(self, kind + "_plus"))
        return replace(self, **changes)

    def resolved_tolerances(self):
        tm = self.ttol_minus if self.ttol_minus is not None \
            else self.ttol_plus / 16.0
        sm = self.stol_minus if self.stol_minus is not None \
            else self.stol_plus / 1024.0
        return Tolerances(self.stol_plus, sm, self.ttol_plus, tm)

    def sweep_list(self):
        if self.sweep_ttols:
            return list(self.sweep_ttols)
        return [self.sweep_base ** j for j in range(1, self.sweep_depth + 1)]


# section -> its keys, in the order emit_config writes them.  A key names
# the RunConfig field of the same name, except `name` (see _KEY_FIELD).
_SECTIONS = {
    "problem": ("name", "a", "T", "blowup"),
    "discretization": ("degree", "initial_refinement", "k1", "c_infinity",
                       "time_quadrature"),
    "tolerances": ("ttol_plus", "ttol_minus", "stol_plus", "stol_minus",
                   "scale_tolerances"),
    "output": ("out_dir", "dump_every"),
    "sweep": ("sweep_depth", "sweep_base", "sweep_ttols"),
}
_KEY_SECTION = {k: s for s, ks in _SECTIONS.items() for k in ks}
_KEY_FIELD = {"name": "problem"}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOLS = {"true": True, "on": True, "yes": True, "1": True,
          "false": False, "off": False, "no": False, "0": False}

# (bound, test, keys): the range of every numeric key, tested on each
# entry of a list and not on a key left unset (None).
_BOUNDS = (
    ("finite and positive", lambda v: 0 < v < math.inf,
     ("a", "T", "k1", "c_infinity", "ttol_plus", "ttol_minus", "stol_plus",
      "stol_minus", "sweep_ttols")),
    ("in (0, 1)", lambda v: 0 < v < 1, ("sweep_base",)),
    (">= 1", lambda v: v >= 1, ("degree", "time_quadrature")),
    (">= 0", lambda v: v >= 0,
     ("initial_refinement", "dump_every", "sweep_depth")),
)


def _parse_value(typ, text):
    """`text` as a value of a RunConfig field of type `typ`."""
    if typ is bool:
        return _BOOLS[text.lower()]
    if typ is tuple:
        return tuple(float(p) for p in text.replace(",", " ").split())
    return typ(text)


def parse_config(text):
    """Parse config text into a validated RunConfig.

    Each key may appear once; a repeated key raises ConfigError naming
    both lines.
    """
    cfg = RunConfig()
    section = None
    seen = {}       # key -> the line it was set on
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError("unknown section %r" % section, lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_SECTION:
            raise ConfigError("unknown key %r" % key, lineno)
        if key in seen:
            raise ConfigError("key %r repeated: first set on line %d"
                              % (key, seen[key]), lineno)
        want = _KEY_SECTION[key]
        if section is not None and section != want:
            raise ConfigError("key %r belongs to section [%s]" % (key, want),
                              lineno)
        try:
            field = _KEY_FIELD.get(key, key)
            setattr(cfg, field, _parse_value(_FIELD_TYPES[field], value))
        except (KeyError, ValueError):
            raise ConfigError("malformed value %r for %r" % (value, key),
                              lineno)
        seen[key] = lineno
    if "name" not in seen:
        raise ConfigError("missing required key `name` in section [problem]")
    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.problem not in builtin_names():
        raise ConfigError("unknown problem %r (have: %s)"
                          % (cfg.problem, ", ".join(builtin_names())))
    if cfg.blowup and cfg.T is not None:
        raise ConfigError("T = %s and blowup = true exclude each other; "
                          "set one" % _format(cfg.T))
    for bound, holds, keys in _BOUNDS:
        for key in keys:
            v = getattr(cfg, key)
            values = v if isinstance(v, tuple) else [] if v is None else [v]
            if not all(map(holds, values)):
                raise ConfigError("%s must be %s, got %s"
                                  % (key, bound, _format(v)))
    try:
        cfg.resolved_tolerances()
    except ValueError as exc:     # a bad refine/coarsen band
        raise ConfigError(str(exc)) from None


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(cfg):
    """Config text, every key but unset ones, that parses back equal.

    The format has no quoting, so a string value holding `#`, a line
    break or leading or trailing whitespace raises ConfigError.
    """
    lines = []
    for section, keys in _SECTIONS.items():
        lines += ["", "[%s]" % section]
        for key in keys:
            value = getattr(cfg, _KEY_FIELD.get(key, key))
            if isinstance(value, str) and ("#" in value
                                           or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ConfigError("%s %r cannot be written: values hold no "
                                  "`#`, line break or edge whitespace"
                                  % (key, value))
            if value is not None and value != ():
                lines.append("%s = %s" % (key, _format(value)))
    return "\n".join(lines[1:]) + "\n"


def load_problem(cfg):
    """Builtin problem with the config's scalar overrides applied."""
    prob = builtin(cfg.problem)
    changes = {}
    if cfg.a is not None and cfg.a != prob.a:
        changes["a"] = cfg.a
        changes["exact"] = None  # the attached solution assumed the default a
    if cfg.blowup:
        changes["T"] = None
    elif cfg.T is not None:
        changes["T"] = cfg.T
    if changes:
        prob = replace(prob, **changes)
    return prob


def _run_one(cfg, ttol_plus=None, first_interval=None):
    prob = load_problem(cfg)
    tol = cfg.with_plus_tolerances(ttol_plus).resolved_tolerances()
    opts = DriverOptions(c_inf=cfg.c_infinity,
                         time_quadrature=cfg.time_quadrature,
                         scale_tolerances=cfg.scale_tolerances,
                         dump_every=cfg.dump_every,
                         out_dir=cfg.out_dir)
    mesh = Mesh.uniform(prob.rect, cfg.initial_refinement)
    return run_adaptive(prob, tol, cfg.degree, mesh, cfg.k1, opts,
                        first_interval)


def _caps_text(caps):
    """A run's hit caps as `name:value` items, e.g. `first_interval:40`."""
    return ",".join("%s:%s" % cap for cap in caps)


def run_sweep(cfg):
    """One adaptive run per sweep tolerance; returns the row dicts.

    Rows that fail are recorded with their error and the sweep continues.
    The rows share one FirstIntervalCache, so a row does not repeat the
    first-interval passes of an earlier row; each row's result is that of
    its run alone.  The sweep releases the spaces of the cache's starts
    when its last row returns.
    """
    ttols = cfg.sweep_list()
    if not ttols:
        raise ValueError("sweep list is empty")
    cache = FirstIntervalCache()
    rows = []
    for ttol in ttols:
        row = {"ttol": ttol}
        try:
            res = _run_one(cfg, ttol_plus=ttol, first_interval=cache)
            row.update(steps=res.steps, final_time=res.final_time,
                       linf_u=res.final_norm, stop_reason=res.stop_reason,
                       tinf=res.tinf_estimate, avg_dofs=res.avg_dofs,
                       result=res)
        except Exception as exc:  # keep sweeping; record the failure
            row.update(steps=0, final_time=float("nan"),
                       linf_u=float("nan"), stop_reason="error: %s" % exc,
                       tinf=None, avg_dofs=float("nan"), result=None)
        rows.append(row)
    for start in cache.starts.values():
        start.end.u.space.release()
    return rows


def sweep_csv_text(rows):
    lines = ["ttol,steps,final_time,linf_u,tinf,avg_dofs,stop_reason"]
    for r in rows:
        tinf = "" if r["tinf"] is None else "%.17g" % r["tinf"]
        lines.append("%.17g,%d,%.17g,%.17g,%s,%.17g,%s"
                     % (r["ttol"], r["steps"], r["final_time"], r["linf_u"],
                        tinf, r["avg_dofs"],
                        str(r["stop_reason"]).replace(",", ";")))
    return "\n".join(lines) + "\n"


def fit_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError("need at least 3 points")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("log-log fit needs positive values")
    lx = np.log(xs)
    if lx.max() - lx.min() < 1e-12:
        raise ValueError("degenerate abscissa spread")
    return float(np.polyfit(lx, np.log(ys), 1)[0])


def _read_sweep_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            vals = line.rstrip("\n").split(",")
            d = dict(zip(header, vals))
            rows.append(d)
    return rows


def write_report(in_dir, out=None):
    """Summarize a sweep directory: table echo, blow-up time, rate slope."""
    if out is None:
        out = sys.stdout
    path = os.path.join(in_dir, "sweep.csv")
    if not os.path.exists(path):
        raise FileNotFoundError("no sweep.csv under %r" % in_dir)
    rows = _read_sweep_csv(path)
    ok = [r for r in rows if r["steps"] != "0" and r["tinf"]]
    out.write("sweep rows: %d (usable: %d)\n" % (len(rows), len(ok)))
    for r in rows:
        out.write("  ttol=%s steps=%s final_time=%s linf_u=%s stop=%s\n"
                  % (r["ttol"], r["steps"], r["final_time"], r["linf_u"],
                     r["stop_reason"]))
    if not ok:
        return
    tinf = float(ok[-1]["tinf"])
    out.write("extrapolated blow-up time (last row): %.6g\n" % tinf)
    if len(ok) >= 3:
        ns = [float(r["steps"]) for r in ok]
        ds = [abs(tinf - float(r["final_time"])) for r in ok]
        if min(ds) > 0:
            try:
                slope = fit_slope(ns, ds)
                out.write("rate: |T_inf - T| ~ N^(%.3f)\n" % slope)
            except ValueError as exc:
                out.write("rate fit unavailable: %s\n" % exc)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="semiheat",
        description="Adaptive IMEX solver for semilinear heat equations "
                    "with pointwise error control and blow-up detection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one adaptive computation")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--ttol", type=float, help="override ttol_plus")
    p_solve.add_argument("--stol", type=float, help="override stol_plus")
    p_solve.add_argument("--degree", type=int, help="override degree")
    p_solve.add_argument("--out", help="override output directory")

    p_sweep = sub.add_parser("sweep", help="run the configured tolerance sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", help="override output directory")

    p_report = sub.add_parser("report", help="summarize a sweep directory")
    p_report.add_argument("--in", dest="in_dir", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            write_report(args.in_dir)
            return 0
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.out:
            cfg.out_dir = args.out
        if args.command == "solve":
            cfg = cfg.with_plus_tolerances(args.ttol, args.stol)
            if args.degree is not None:
                cfg.degree = args.degree
            _validate(cfg)
        elif not cfg.sweep_list():
            raise ConfigError("sweep list is empty")
        # an unusable output directory fails here, before a run it would lose
        os.makedirs(cfg.out_dir, exist_ok=True)
        if args.command == "solve":
            res = _run_one(cfg)
            res.ledger.to_csv(os.path.join(cfg.out_dir, "ledger.csv"))
            with open(os.path.join(cfg.out_dir, "summary.txt"), "w") as fh:
                fh.write(res.summary() + "\n")
                if res.caps_hit:
                    fh.write("caps_hit=%s\n" % _caps_text(res.caps_hit))
            print(res.summary())
            if res.caps_hit:
                print("warning: caps hit: %s" % _caps_text(res.caps_hit),
                      file=sys.stderr)
            return 2 if res.stop_reason.startswith("delta_nonexistent") else 0
        # sweep
        rows = run_sweep(cfg)
        with open(os.path.join(cfg.out_dir, "sweep.csv"), "w") as fh:
            fh.write(sweep_csv_text(rows))
        for i, row in enumerate(rows):
            res = row["result"]
            if res is not None:
                res.ledger.to_csv(
                    os.path.join(cfg.out_dir, "ledger_%02d.csv" % (i + 1)))
                if res.caps_hit:
                    print("warning: row %d (ttol=%r): caps hit: %s"
                          % (i + 1, row["ttol"], _caps_text(res.caps_hit)),
                          file=sys.stderr)
        write_report(cfg.out_dir)
        return 0 if all(r["result"] is not None for r in rows) else 1
    except (ConfigError, OSError, ValueError, SolverFailure) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
