"""Modular / Luxemburg-norm machinery for variable exponents.

Closed-form fixtures use constant or affine exponents where the integrals can
be done by hand; the structural relations (homogeneity, the norm-modular
bands, the generalized Holder bound) are exercised on random data as well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp import exponents
from varexp.errors import ConfigError, DataError
from varexp.exponents import (
    ExponentField,
    conjugate_exponent,
    constant_exponent,
    exponent_from_expression,
    exponent_from_values,
)
from varexp.grid import make_grid, tent_function
from varexp.spaces import (
    holder_check,
    luxemburg_norm,
    modular,
    norm_modular_relation_check,
    sobolev_norm,
)
from varexp.energy import random_zero_boundary

FINE = make_grid((0.0, 1.0), 2001)
COARSE = make_grid((0.0, 1.0), 101)


def const_fn(grid, value):
    return grid.function(np.full(grid.shape, float(value)))


# ---------------------------------------------------------------------------
# exponent fields


def test_exponent_must_exceed_one():
    g = COARSE
    with pytest.raises(ConfigError, match="> 1 everywhere"):
        exponent_from_values(g, np.ones(g.shape))
    with pytest.raises(ConfigError):
        exponent_from_expression(g, "1 + x")  # hits 1 at x=0


def test_descriptor_is_kept_as_text_and_never_evaluated(monkeypatch):
    """A field is its samples and a text that only names it: a text that
    would be NaN at x = 0 is kept as given, and an expression field samples
    its expression once; sampled, that text is refused by its NaN sample."""
    g = COARSE
    text = "3 + sin(pi*x)*ln(x) - sin(pi*x)*ln(x)"
    field = ExponentField(g, np.full(g.shape, 3.0), text)
    assert field.describe() == text
    assert repr(field) == f"ExponentField({text})"
    np.testing.assert_array_equal(field.values, 3.0)
    with pytest.raises(ConfigError, match="exponent field contains non-finite samples"):
        exponent_from_expression(g, text)
    real, sampled = exponents._sample, []

    def counted(grid, expr):
        sampled.append(expr.text())
        return real(grid, expr)

    monkeypatch.setattr(exponents, "_sample", counted)
    p = exponent_from_expression(g, "2 + x")
    assert sampled == [p.describe()] == ["(2 + x)"]


def test_conjugate_exponent_values():
    g = COARSE
    q = conjugate_exponent(constant_exponent(g, 2.0))
    np.testing.assert_allclose(q.values, 2.0)
    q3 = conjugate_exponent(constant_exponent(g, 3.0))
    np.testing.assert_allclose(q3.values, 1.5)
    p = exponent_from_expression(g, "2 + x")
    pc = conjugate_exponent(p)
    x = g.axes[0]
    np.testing.assert_allclose(pc.values, (2 + x) / (1 + x), atol=1e-14)


def test_conjugate_is_an_involution():
    p = exponent_from_expression(COARSE, "2 + x")
    back = conjugate_exponent(conjugate_exponent(p))
    np.testing.assert_allclose(back.values, p.values, atol=1e-12)


# ---------------------------------------------------------------------------
# modular


def test_modular_constant_function_affine_exponent():
    # int_0^1 2^(2+x) dx = 4/ln 2
    p = exponent_from_expression(FINE, "2 + x")
    got = modular(const_fn(FINE, 2.0), p)
    assert got == pytest.approx(4.0 / math.log(2.0), rel=1e-6)


def test_modular_of_one_is_domain_measure():
    for value in (2.0, 3.7):
        p = constant_exponent(COARSE, value)
        assert modular(const_fn(COARSE, 1.0), p) == pytest.approx(1.0, abs=1e-14)


def test_modular_zero():
    assert modular(COARSE.zeros(), constant_exponent(COARSE, 2.5)) == 0.0


def test_modular_grid_mismatch():
    other = make_grid((0.0, 1.0), 51)
    with pytest.raises(DataError):
        modular(COARSE.zeros(), constant_exponent(other, 2.0))


# ---------------------------------------------------------------------------
# Luxemburg norm


def test_norm_constant_exponent_is_classical_lp():
    p = constant_exponent(COARSE, 2.0)
    assert luxemburg_norm(const_fn(COARSE, 3.0), p) == pytest.approx(3.0, rel=1e-9)


def test_norm_power_function():
    # ||x||_{L^4(0,1)} = (1/5)^{1/4}
    g = FINE
    u = g.function(g.axes[0].copy())
    p = constant_exponent(g, 4.0)
    # trapezoid error on the modular is h^2/3 ~ 8e-8 at this resolution
    assert luxemburg_norm(u, p) == pytest.approx(0.2 ** 0.25, rel=5e-7)


def test_norm_above_the_sup_on_a_box_of_measure_four():
    """On (0, 4) the modular of u/sup exceeds 1, so the upper bracket has to
    double past sup u; for p = 3 the norm is the cube root of the modular."""
    g = make_grid((0.0, 4.0), 65)
    u = g.function(np.sin(np.pi * g.axes[0] / 4.0))
    p = constant_exponent(g, 3.0)
    norm = luxemburg_norm(u, p)
    assert norm == pytest.approx(modular(u, p) ** (1.0 / 3.0), rel=1e-9)
    assert norm == pytest.approx(1.1929336674, rel=1e-9)
    assert norm > float(np.max(u.values)) == 1.0


def test_norm_zero_function():
    p = exponent_from_expression(COARSE, "2 + x")
    assert luxemburg_norm(COARSE.zeros(), p) == 0.0


def test_norm_reduces_to_lp_for_constant_exponent():
    """For constant p the Luxemburg norm equals modular^(1/p)."""
    rng = np.random.default_rng(3)
    g = COARSE
    for value in (1.5, 2.0, 4.0):
        p = constant_exponent(g, value)
        u = random_zero_boundary(g, rng)
        classical = modular(u, p) ** (1.0 / value)
        assert luxemburg_norm(u, p) == pytest.approx(classical, rel=1e-8)


def test_norm_homogeneity_random_pairs():
    """||t u|| = |t| ||u|| over 200 random (u, t)."""
    rng = np.random.default_rng(11)
    p = exponent_from_expression(COARSE, "2 + x")
    for _ in range(200):
        u = random_zero_boundary(COARSE, rng)
        t = float(rng.uniform(-50.0, 50.0))
        if abs(t) < 1e-6:
            continue
        scaled = COARSE.function(t * u.values)
        lhs = luxemburg_norm(scaled, p)
        rhs = abs(t) * luxemburg_norm(u, p)
        assert lhs == pytest.approx(rhs, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(1e-3, 1e3), seed=st.integers(0, 10))
def test_norm_homogeneity_property(t, seed):
    rng = np.random.default_rng(seed)
    p = exponent_from_expression(COARSE, "2 + x/2")
    u = random_zero_boundary(COARSE, rng)
    scaled = COARSE.function(t * u.values)
    assert luxemburg_norm(scaled, p) == pytest.approx(
        t * luxemburg_norm(u, p), rel=1e-8
    )


def test_modular_monotone_in_scale():
    # rho(u/mu) is nonincreasing in mu > 0, which the bisection relies on
    rng = np.random.default_rng(5)
    p = exponent_from_expression(COARSE, "2 + x")
    u = random_zero_boundary(COARSE, rng)
    mus = [0.5, 1.0, 2.0, 4.0]
    vals = [modular(COARSE.function(u.values / m), p) for m in mus]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# norm-modular relation


def test_band_for_constant_exponent_is_tight():
    p = constant_exponent(COARSE, 2.0)
    rep = norm_modular_relation_check(const_fn(COARSE, 3.0), p)
    lo, hi = rep.relation_band
    assert lo == pytest.approx(9.0, rel=1e-8)
    assert hi == pytest.approx(9.0, rel=1e-8)
    assert rep.band_holds and rep.trichotomy_holds


def test_unit_norm_forces_unit_modular():
    rng = np.random.default_rng(17)
    p = exponent_from_expression(COARSE, "2 + x")
    for _ in range(20):
        u = random_zero_boundary(COARSE, rng)
        n = luxemburg_norm(u, p)
        unit = COARSE.function(u.values / n)
        assert modular(unit, p) == pytest.approx(1.0, abs=1e-8)


def test_trichotomy_at_unit_norm():
    """Scaled to norm 1, sin(pi x) under p = 2 + x reads a norm of exactly
    1.0 and a modular of 1 + 9e-11: the unit branch holds both verdicts."""
    g = make_grid((0.0, 1.0), 129)
    p = exponent_from_expression(g, "2 + x")
    u = g.function(np.sin(np.pi * g.axes[0]))
    rep = norm_modular_relation_check(u * (1.0 / luxemburg_norm(u, p)), p)
    assert rep.norm_value == 1.0
    assert rep.modular_value == pytest.approx(1.0 + 9e-11, abs=1e-11)
    assert rep.band_holds and rep.trichotomy_holds


def test_band_and_trichotomy_random():
    rng = np.random.default_rng(23)
    p = exponent_from_expression(COARSE, "2 + x")
    for _ in range(100):
        u = random_zero_boundary(COARSE, rng)
        scale = float(rng.uniform(0.05, 20.0))
        rep = norm_modular_relation_check(COARSE.function(scale * u.values), p)
        assert rep.band_holds, rep
        assert rep.trichotomy_holds, rep
        lo, hi = rep.relation_band
        assert lo <= rep.modular_value <= hi


def test_scaling_sequences_couple_norm_and_modular():
    """t_k -> 0 drives norm and modular to zero together; t_k -> inf both up."""
    rng = np.random.default_rng(29)
    p = exponent_from_expression(COARSE, "2 + x")
    u = random_zero_boundary(COARSE, rng)
    norms, mods = [], []
    for t in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
        v = COARSE.function(t * u.values)
        norms.append(luxemburg_norm(v, p))
        mods.append(modular(v, p))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert all(a > b for a, b in zip(mods, mods[1:]))
    assert norms[-1] < 1e-3 and mods[-1] < 1e-6
    up = [modular(COARSE.function(t * u.values), p) for t in (1.0, 10.0, 100.0)]
    assert up[0] < up[1] < up[2]


# ---------------------------------------------------------------------------
# Holder


def test_holder_for_constant_one():
    # u = v = 1, p = 2: lhs = 1, both norms 1, factor 1/p- + 1/(p*)- = 1
    p = constant_exponent(COARSE, 2.0)
    rep = holder_check(const_fn(COARSE, 1.0), const_fn(COARSE, 1.0), p)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.factor == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, rel=1e-8)
    assert rep.holds


def test_holder_random_pairs():
    rng = np.random.default_rng(31)
    p = exponent_from_expression(COARSE, "2 + x")
    for _ in range(200):
        u = random_zero_boundary(COARSE, rng)
        v = random_zero_boundary(COARSE, rng)
        rep = holder_check(u, v, p)
        assert rep.holds, (rep.lhs, rep.rhs)
        assert rep.lhs <= rep.rhs * (1 + 1e-9)


def test_holder_factor_range():
    # factor = 1/p- + 1/(p')- lies in (1, 2] and equals 2 only when... never
    # for p > 1; for p = 2+x it is 1/2 + 1/(3/2) = 7/6... pin the formula
    p = exponent_from_expression(COARSE, "2 + x")
    rep = holder_check(const_fn(COARSE, 1.0), const_fn(COARSE, 1.0), p)
    pc = conjugate_exponent(p)
    expected = 1.0 / p.min + 1.0 / pc.min
    assert rep.factor == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Sobolev seminorm and the Poincare-style ratio


def test_sobolev_norm_of_tent():
    # |grad tent| = 1 on a support of measure 0.5 -> L2 norm sqrt(0.5)
    g = make_grid((0.0, 1.0), 401)
    t = tent_function(0.5, 0.25, g)
    p = constant_exponent(g, 2.0)
    got = sobolev_norm(t, p)
    assert got == pytest.approx(math.sqrt(0.5), rel=5e-3)  # kinks cost accuracy


def test_sobolev_norm_scaling():
    g = COARSE
    p = exponent_from_expression(g, "2 + x")
    u = random_zero_boundary(g, np.random.default_rng(37))
    for t in (0.1, 3.0, 42.0):
        scaled = g.function(t * u.values)
        assert sobolev_norm(scaled, p) == pytest.approx(
            t * sobolev_norm(u, p), rel=1e-8
        )


def test_sobolev_norm_zero():
    assert sobolev_norm(COARSE.zeros(), constant_exponent(COARSE, 2.0)) == 0.0


def test_poincare_ratio_stable_under_refinement():
    """max ||u|| / ||grad u|| over random draws stays within +-20% across meshes."""
    maxima = []
    for n in (33, 65, 129):
        g = make_grid((0.0, 1.0), n)
        p = exponent_from_expression(g, "2 + x")
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(500):
            u = random_zero_boundary(g, rng)
            s = sobolev_norm(u, p)
            if s == 0.0:
                continue
            worst = max(worst, luxemburg_norm(u, p) / s)
        maxima.append(worst)
    ref = maxima[-1]
    for m in maxima:
        assert abs(m - ref) <= 0.2 * ref, maxima
