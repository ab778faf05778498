"""Problem catalog: reaction-diffusion setups with known Lipschitz moduli.

Each ProblemSpec carries the analytic Laplacian of its initial data (the
initial elliptic projection needs it) and, where available, the exact
solution for error measurement.  T = None means "run toward blow-up".
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import Rectangle
from .estimators import LipschitzModulus


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    rect: Rectangle
    a: float
    f: Callable            # f(x, y, t, u), vectorized
    modulus: LipschitzModulus
    u0: Callable            # u0(x, y)
    lap_u0: Callable        # analytic Laplacian of u0
    T: Optional[float]      # final time; None = blow-up mode
    exact: Optional[Callable] = None  # exact u(x, y, t) when manufactured


class CatalogError(KeyError):
    """Unknown builtin problem name."""


def _example1():
    def u0(x, y):
        return 10.0 * np.exp(-2.0 * (x * x + y * y))

    def lap_u0(x, y):
        return 10.0 * np.exp(-2.0 * (x * x + y * y)) \
            * (16.0 * x * x + 16.0 * y * y - 8.0)

    return ProblemSpec(
        name="example1", rect=Rectangle(-8.0, 8.0, -8.0, 8.0), a=1.0,
        f=lambda x, y, t, u: u * u,
        modulus=LipschitzModulus.additive(),
        u0=u0, lap_u0=lap_u0, T=None)


def _example2():
    def u0(x, y):
        r2 = x * x + y * y
        return 10.0 * r2 * np.exp(-0.5 * r2)

    def lap_u0(x, y):
        r2 = x * x + y * y
        return 10.0 * np.exp(-0.5 * r2) * (r2 * r2 - 6.0 * r2 + 4.0)

    return ProblemSpec(
        name="example2", rect=Rectangle(-8.0, 8.0, -8.0, 8.0), a=1.0,
        f=lambda x, y, t, u: u * u,
        modulus=LipschitzModulus.additive(),
        u0=u0, lap_u0=lap_u0, T=None)


def _example3():
    def u0(x, y):
        return x * y * (x - 1.0) * (y - 1.0)

    def lap_u0(x, y):
        return 2.0 * y * (y - 1.0) + 2.0 * x * (x - 1.0)

    def quartic(a, b):
        return a ** 3 + a * a * b + a * b * b + b ** 3

    return ProblemSpec(
        name="example3", rect=Rectangle(0.0, 1.0, 0.0, 1.0), a=0.001,
        f=lambda x, y, t, u: np.sin(t) - u ** 4,
        modulus=LipschitzModulus(quartic, kind="generic"),
        u0=u0, lap_u0=lap_u0, T=0.75)


def _heat_decay():
    rate = 2.0 * np.pi ** 2

    def u0(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    return ProblemSpec(
        name="heat_decay", rect=Rectangle(0.0, 1.0, 0.0, 1.0), a=1.0,
        f=lambda x, y, t, u: 0.0 * u,
        modulus=LipschitzModulus.zero(),
        u0=u0, lap_u0=lambda x, y: -rate * u0(x, y), T=0.1,
        exact=lambda x, y, t: np.exp(-rate * t) * u0(x, y))


def _manufactured_linear():
    c = 2.0 * np.pi ** 2 - 1.0

    def shape(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    return ProblemSpec(
        name="manufactured_linear", rect=Rectangle(0.0, 1.0, 0.0, 1.0), a=1.0,
        f=lambda x, y, t, u: c * np.exp(-t) * shape(x, y),
        modulus=LipschitzModulus.zero(),
        u0=shape, lap_u0=lambda x, y: -2.0 * np.pi ** 2 * shape(x, y), T=0.5,
        exact=lambda x, y, t: np.exp(-t) * shape(x, y))


_BUILTINS = {
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
    "heat_decay": _heat_decay,
    "manufactured_linear": _manufactured_linear,
}


def builtin(name):
    """Fully populated ProblemSpec for a catalog name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise CatalogError(
            "unknown problem %r (have: %s)" % (name, ", ".join(sorted(_BUILTINS))))


def builtin_names():
    return sorted(_BUILTINS)


def modulus_check(spec, n_samples, seed=0, value_range=1e3):
    """Statistical check that the modulus dominates the reaction increments.

    Samples (t, v, w) and points of the domain, testing
    |f(x,t,v) - f(x,t,w)| <= L(t,|v|,|w|) |v - w| up to roundoff slack
    (1e-12 relative to the magnitudes involved, since the reaction values
    themselves carry rounding error at large |v|).  Returns a list of
    violating samples, empty when the modulus is admissible.  Kept,
    exported, for users who write their own `ProblemSpec` (README).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    rect = spec.rect
    tmax = spec.T if spec.T is not None else 1.0
    x = rng.uniform(rect.x_min, rect.x_max, n_samples)
    y = rng.uniform(rect.y_min, rect.y_max, n_samples)
    t = rng.uniform(0.0, tmax, n_samples)
    v = rng.uniform(-value_range, value_range, n_samples)
    w = rng.uniform(-value_range, value_range, n_samples)
    violations = []
    for i in range(n_samples):
        fv = float(np.asarray(spec.f(x[i], y[i], t[i], v[i])))
        fw = float(np.asarray(spec.f(x[i], y[i], t[i], w[i])))
        lhs = abs(fv - fw)
        rhs = float(spec.modulus(t[i], abs(v[i]), abs(w[i]))) * abs(v[i] - w[i])
        slack = 1e-12 * max(1.0, abs(fv), abs(fw), rhs)
        if lhs > rhs + slack:
            violations.append((t[i], v[i], w[i], lhs, rhs))
    return violations
