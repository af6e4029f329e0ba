"""Polynomial core: exact arithmetic, argument shifts, discrete antiderivatives."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krallops.families import dual_hahn_poly, lattice_product
from krallops.polyops import (
    Polynomial,
    RationalFunction,
    antidifference,
    as_fraction,
    binom_poly,
    fraction_to_str,
    pochhammer,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polys = st.lists(rationals, min_size=0, max_size=9).map(Polynomial)


def test_construction_strips_trailing_zeros():
    assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
    assert Polynomial((0, 0)).is_zero()
    assert Polynomial(()).degree == float("-inf")
    assert Polynomial((0, 0, 5)).degree == 2


def test_evaluation_and_shift():
    p = Polynomial((Fraction(1, 2), -3, 1))  # x^2 - 3x + 1/2
    assert p(2) == Fraction(-3, 2)
    assert p(Fraction(1, 2)) == Fraction(-3, 4)
    assert p.shift_arg(1) == Polynomial((Fraction(-3, 2), -1, 1))
    # composition with another polynomial
    q = Polynomial((1, 1))  # x + 1
    assert p(q) == p.shift_arg(1)


def test_pretty_printing():
    assert str(Polynomial((Fraction(1, 2), Fraction(-3, 2), Fraction(1, 2)))) == (
        "1/2*x^2 - 3/2*x + 1/2"
    )
    assert str(Polynomial(())) == "0"
    assert str(Polynomial((0, 1))) == "x"


def test_from_roots():
    p = Polynomial.from_roots([1, 2], lead=Fraction(1, 2))
    assert p == Polynomial((1, Fraction(-3, 2), Fraction(1, 2)))
    assert p(1) == 0 and p(2) == 0


def test_from_newton_rejects_too_few_nodes():
    message = "nodes must have at least 2 entries for 3 scalars; got 1"
    with pytest.raises(ValueError, match=f"^{message}$"):
        Polynomial.from_newton([1, 2, 3], [0])
    # Extra nodes are not read: the last scalar multiplies the first m of them.
    assert Polynomial.from_newton([1, 2, 3], [0, 1, 9]) == Polynomial.from_newton([1, 2, 3], [0, 1])


def test_derivative():
    p = Polynomial((5, 0, 0, 2))  # 2x^3 + 5
    assert p.derivative() == Polynomial((0, 0, 6))
    assert p.derivative(2) == Polynomial((0, 12))
    assert p.derivative(4).is_zero()


def test_power_and_scalar_ops():
    p = Polynomial((1, 1))
    assert p ** 3 == Polynomial((1, 3, 3, 1))
    assert p ** 0 == Polynomial.one()
    assert (p * Fraction(1, 2)) / Fraction(1, 2) == p
    with pytest.raises(ZeroDivisionError):
        p / 0


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == Polynomial.zero()


@given(polys, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_shift_is_additive_and_respects_eval(p, a, b):
    assert p.shift_arg(a).shift_arg(b) == p.shift_arg(a + b)
    assert p.shift_arg(a)(b) == p(a + b)


@given(polys, polys, rationals)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_ring_homomorphism(p, q, t):
    assert (p * q)(t) == p(t) * q(t)
    assert (p + q)(t) == p(t) + q(t)


def test_as_fraction_parsing():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-7") == Fraction(-7)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert fraction_to_str(Fraction(-3, 4)) == "-3/4"
    assert fraction_to_str(Fraction(5)) == "5/1"
    with pytest.raises(ValueError):
        as_fraction("not-a-number")


def test_constants_hash_as_the_scalars_they_equal():
    half = Polynomial((Fraction(1, 2),))
    assert Polynomial.one() in {1} and Polynomial.zero() in {0}
    assert {Fraction(1, 2): "half"}.get(half) == "half"
    assert {half: "half"}.get(Fraction(1, 2)) == "half"
    assert len({Polynomial.one(), 1, Fraction(1), half, Fraction(1, 2)}) == 2


def test_pochhammer_helpers():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(2, 0) == 1
    assert binom_poly(2) * 2 == Polynomial.from_roots([0, 1])


@pytest.mark.parametrize(
    "build, name",
    [
        pytest.param(lambda: Polynomial.monomial(-1, 5), "power", id="monomial"),
        pytest.param(lambda: Polynomial((1, 2, 3)).derivative(-1), "times", id="derivative"),
        pytest.param(lambda: pochhammer(1, -2), "count", id="pochhammer"),
        pytest.param(lambda: binom_poly(-1), "count", id="binom_poly"),
        pytest.param(lambda: dual_hahn_poly(1, 2, 3, -1), "k", id="dual_hahn_poly"),
        pytest.param(lambda: lattice_product(-1, 2), "j", id="lattice_product"),
    ],
)
def test_negative_counts_are_usage_errors(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 0; got -"):
        build()


def test_binom_poly_difference_ladder():
    for m in range(1, 7):
        lhs = binom_poly(m).shift_arg(1) - binom_poly(m)
        assert lhs == binom_poly(m - 1)


def test_antidifference_frozen_value():
    # sum of squares: F with F(x+1) - F(x) = x^2 and F(0) = 0
    f = antidifference(Polynomial((0, 0, 1)), 1)
    assert f == Polynomial((0, Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)))
    assert f(5) == sum(x * x for x in range(5))


@given(polys, st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]))
@settings(max_examples=60, deadline=None)
def test_antidifference_inverts_differencing(p, step):
    f = antidifference(p, step)
    assert f.shift_arg(step) - f == p
    assert f.coeff(0) == 0


def test_antidifference_rejects_zero_step():
    with pytest.raises(ValueError):
        antidifference(Polynomial((1,)), 0)


def test_json_round_trip():
    p = Polynomial((Fraction(1, 3), 0, Fraction(-7, 2)))
    assert Polynomial.from_json(p.to_json()) == p
    assert p.to_json() == ["1/3", "0/1", "-7/2"]


def test_hash_consistency():
    assert hash(Polynomial((1, 2))) == hash(Polynomial((Fraction(1), Fraction(2), 0)))
    assert len({Polynomial((1,)), Polynomial((Fraction(2, 2),))}) == 1


@given(polys, polys.filter(lambda q: not q.is_zero()), st.integers(-30, 30))
@settings(max_examples=25)
def test_rational_function_is_the_quotient_of_its_polynomials(p, q, n):
    f = RationalFunction.of(p, q)
    if q(n) == 0:
        with pytest.raises(ZeroDivisionError):
            f(n)
    else:
        assert f(n) == p(n) / q(n)


def test_rational_function_is_integer_and_content_free():
    # (n + 1/2) / (3/4) = (4n + 2) / 3
    assert RationalFunction.of(Polynomial((Fraction(1, 2), 1)), Fraction(3, 4)) == RationalFunction(
        (2, 4), (3,)
    )
    assert RationalFunction.of(6, Polynomial((4, 2))) == RationalFunction((3,), (2, 1))
    with pytest.raises(ZeroDivisionError):
        RationalFunction.of(1, Polynomial.zero())
