"""Problem catalog: moduli, analytic Laplacians, manufactured solutions."""

import numpy as np
import pytest

from semiheat.problems import builtin, builtin_names, modulus_check, CatalogError


def test_unknown_name_raises():
    with pytest.raises(CatalogError):
        builtin("nope")


def test_catalog_contents():
    assert set(builtin_names()) == {
        "example1", "example2", "example3", "heat_decay",
        "manufactured_linear"}
    ex1 = builtin("example1")
    assert ex1.a == 1.0 and ex1.T is None
    assert ex1.rect.x_min == -8.0 and ex1.rect.y_max == 8.0
    assert float(ex1.u0(0.0, 0.0)) == pytest.approx(10.0)
    assert float(ex1.f(0.0, 0.0, 0.0, 3.0)) == 9.0
    ex3 = builtin("example3")
    assert ex3.a == 0.001 and ex3.T == 0.75
    assert float(ex3.f(0.0, 0.0, 0.5, 1.0)) == pytest.approx(np.sin(0.5) - 1.0)
    hd = builtin("heat_decay")
    assert hd.modulus.is_zero
    ml = builtin("manufactured_linear")
    assert ml.modulus.is_zero
    assert ml.exact is not None


def test_modulus_check_builtins_clean():
    for name in builtin_names():
        assert modulus_check(builtin(name), 1000, seed=3) == []


def test_modulus_check_builtins_large_range():
    for name in builtin_names():
        viols = modulus_check(builtin(name), 10000, seed=11, value_range=1e3)
        assert viols == [], "%s: %d violations" % (name, len(viols))


def test_modulus_check_catches_adversarial_modulus():
    from dataclasses import replace
    from semiheat.estimators import LipschitzModulus
    ex1 = builtin("example1")
    halved = replace(ex1, modulus=LipschitzModulus(
        lambda t, a, b: 0.5 * (a + b), kind="generic"))
    viols = modulus_check(halved, 1000, seed=5)
    assert len(viols) > 0


def test_modulus_check_needs_samples():
    with pytest.raises(ValueError):
        modulus_check(builtin("example1"), 0)


def test_laplacians_against_stencil_oracle():
    # 4th-order 5-point 1-D stencils in each direction at random points
    rng = np.random.default_rng(2)
    h = 1e-2
    w = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    off = np.array([-2, -1, 0, 1, 2]) * h
    for name in builtin_names():
        prob = builtin(name)
        r = prob.rect
        x = rng.uniform(r.x_min + 3 * h, r.x_max - 3 * h, 100)
        y = rng.uniform(r.y_min + 3 * h, r.y_max - 3 * h, 100)
        num = sum(wi * prob.u0(x + oi, y) for wi, oi in zip(w, off)) \
            + sum(wi * prob.u0(x, y + oi) for wi, oi in zip(w, off))
        assert np.abs(num - prob.lap_u0(x, y)).max() < 1e-6, name


def test_manufactured_solutions_satisfy_pde():
    # u_t - a lap u - f = 0 checked by finite differences in all variables
    rng = np.random.default_rng(4)
    h = 1e-4
    for name in ("heat_decay", "manufactured_linear"):
        prob = builtin(name)
        r = prob.rect
        x = rng.uniform(r.x_min + 0.1, r.x_max - 0.1, 50)
        y = rng.uniform(r.y_min + 0.1, r.y_max - 0.1, 50)
        t = rng.uniform(0.05, prob.T, 50)
        u = prob.exact(x, y, t)
        ut = (prob.exact(x, y, t + h) - prob.exact(x, y, t - h)) / (2 * h)
        lap = (prob.exact(x + h, y, t) + prob.exact(x - h, y, t)
               + prob.exact(x, y + h, t) + prob.exact(x, y - h, t)
               - 4 * u) / (h * h)
        resid = ut - prob.a * lap - prob.f(x, y, t, u)
        assert np.abs(resid).max() < 1e-5, name


def test_exact_matches_initial_data():
    for name in ("heat_decay", "manufactured_linear"):
        prob = builtin(name)
        rng = np.random.default_rng(6)
        x = rng.uniform(prob.rect.x_min, prob.rect.x_max, 50)
        y = rng.uniform(prob.rect.y_min, prob.rect.y_max, 50)
        assert np.abs(prob.exact(x, y, 0.0) - prob.u0(x, y)).max() < 1e-14


def test_modulus_time_argument_optional():
    from semiheat.estimators import LipschitzModulus
    two_arg = LipschitzModulus(lambda a, b: a * b, kind="generic")
    three_arg = LipschitzModulus(lambda t, a, b: a * b, kind="generic")
    assert two_arg(5.0, 2.0, 3.0) == three_arg(5.0, 2.0, 3.0) == 6.0
    # only required positional parameters count: a defaulted one is not t
    scaled = LipschitzModulus(lambda a, b, scale=2.0: scale * (a + b))
    assert scaled(10.0, 1.0, 1.0) == 4.0
    timed = LipschitzModulus(lambda t, a, b, c=1.0: c * a * b + t)
    assert timed(5.0, 2.0, 3.0) == 11.0


def test_modulus_monotone_spot_checks():
    rng = np.random.default_rng(8)
    for name in builtin_names():
        mod = builtin(name).modulus
        for _ in range(50):
            t = rng.uniform(0, 1)
            a, b = sorted(rng.uniform(0, 100, 2))
            c, d = sorted(rng.uniform(0, 100, 2))
            assert mod(t, b, c) >= mod(t, a, c) - 1e-12
            assert mod(t, a, d) >= mod(t, a, c) - 1e-12
            assert mod(t, a, c) >= 0.0
