"""Operator algebra: shifts, derivatives, composition, polynomial calculus."""

from __future__ import annotations

import re
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krallops.errors import DegeneracyError, OperatorError
from krallops.families import Jacobi, Laguerre
from krallops.opalg import (
    DifferenceOperator,
    DifferentialOperator,
    EigenGrid,
    Operator,
    operator_from_json,
    operator_to_json,
    poly_of_op,
)
from krallops.polyops import Polynomial

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
small_polys = st.lists(rationals, min_size=1, max_size=4).map(Polynomial)
test_polys = st.lists(rationals, min_size=0, max_size=6).map(Polynomial)


def diff_ops(max_shift=2):
    return st.dictionaries(
        st.integers(min_value=-max_shift, max_value=max_shift), small_polys, max_size=3
    ).map(DifferenceOperator)


def differential_ops():
    return st.lists(small_polys, min_size=0, max_size=3).map(DifferentialOperator)


def test_shift_apply():
    op = DifferenceOperator.shift(2, Polynomial((0, 1)))  # x * Sh_2
    p = Polynomial((0, 0, 1))
    assert op.apply(p) == Polynomial((0, 1)) * Polynomial((4, 4, 1))


def test_forward_and_backward_difference():
    p = Polynomial((0, 0, 1))
    assert DifferenceOperator.forward_difference().apply(p) == Polynomial((1, 2))
    assert DifferenceOperator.backward_difference().apply(p) == Polynomial((-1, 2))


def test_genre_and_order():
    op = DifferenceOperator({-1: Polynomial((0, 1)), 3: Polynomial((1,))})
    assert op.genre() == (-1, 3)
    assert op.order() == 4
    with pytest.raises(OperatorError):
        DifferenceOperator({}).genre()
    with pytest.raises(OperatorError):
        DifferentialOperator(()).order()


def test_compose_shift_rule():
    # f(x) Sh_a then g(x) Sh_b gives f(x) g(x+a) Sh_{a+b}
    f = Polynomial((1, 1))
    g = Polynomial((0, 0, 1))
    left = DifferenceOperator({2: f})
    right = DifferenceOperator({-1: g})
    composed = left.compose(right)
    assert composed.terms == {1: f * g.shift_arg(2)}


@given(diff_ops(), diff_ops(), test_polys)
@settings(max_examples=50, deadline=None)
def test_difference_compose_is_apply_composition(a, b, p):
    assert a.compose(b).apply(p) == a.apply(b.apply(p))


@given(diff_ops(), diff_ops(), diff_ops())
@settings(max_examples=30, deadline=None)
def test_difference_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(differential_ops(), differential_ops(), test_polys)
@settings(max_examples=50, deadline=None)
def test_differential_compose_is_apply_composition(a, b, p):
    assert a.compose(b).apply(p) == a.apply(b.apply(p))


def test_differential_leibniz():
    # d/dx composed with multiplication by g: (g p)' = g' p + g p'
    ddx = DifferentialOperator.ddx()
    g = Polynomial((1, 2, 3))
    mult = DifferentialOperator((g,))
    composed = ddx.compose(mult)
    assert composed == DifferentialOperator((g.derivative(), g))


def test_algebra_membership_closed_under_compose():
    # coefficient degree bounded by derivative order survives composition
    a = DifferentialOperator((Polynomial((1,)), Polynomial((0, 1))))
    b = DifferentialOperator((Polynomial((2,)), Polynomial((1, 1)), Polynomial((0, 0, 1))))
    for op in (a, b, a.compose(b)):
        assert all(f.degree <= j for j, f in enumerate(op.terms))


@given(st.lists(rationals, min_size=1, max_size=3).map(Polynomial),
       st.lists(rationals, min_size=1, max_size=3).map(Polynomial))
@settings(max_examples=40, deadline=None)
def test_poly_of_op_is_multiplicative(p, q):
    base = DifferenceOperator(
        {-1: Polynomial((0, 1)), 0: Polynomial((-2, -1)), 1: Polynomial((2,))}
    )
    assert poly_of_op(p * q, base) == poly_of_op(p, base).compose(poly_of_op(q, base))
    assert poly_of_op(p + q, base) == poly_of_op(p, base) + poly_of_op(q, base)


def test_poly_of_op_constant_is_identity_multiple():
    base = DifferentialOperator((Polynomial((1, 1)), Polynomial((0, 0, 1))))
    assert poly_of_op(Polynomial((Fraction(3, 2),)), base) == (
        DifferentialOperator.identity() * Fraction(3, 2)
    )
    assert poly_of_op(Polynomial.zero(), base) == DifferentialOperator()


@given(diff_ops())
@settings(max_examples=40, deadline=None)
def test_difference_json_round_trip(op):
    assert operator_from_json(operator_to_json(op)) == op


@given(differential_ops())
@settings(max_examples=40, deadline=None)
def test_differential_json_round_trip(op):
    assert operator_from_json(operator_to_json(op)) == op


def test_json_shape():
    op = DifferenceOperator({1: Polynomial((Fraction(1, 2),))})
    doc = operator_to_json(op)
    assert doc["kind"] == "difference"
    assert doc["terms"] == [{"shift": 1, "coeffs": ["1/2"]}]


def test_str_rendering():
    op = DifferenceOperator({-1: Polynomial((0, 1)), 1: Polynomial((2,))})
    assert "S[-1]" in str(op) and "S[1]" in str(op)
    dop = DifferentialOperator.ddx(2, Polynomial((0, 1)))
    assert "D^2" in str(dop)


def _differential_doc(*orders):
    return {"kind": "differential", "terms": [{"order": j, "coeffs": ["1"]} for j in orders]}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DifferentialOperator.ddx(-1, Polynomial((0, 1))), "order must be >= 0; got -1"),
        (lambda: DifferentialOperator.ddx(1.0), "order must be an integer; got 1.0"),
        (
            lambda: DifferenceOperator({Fraction(1, 2): 1}),
            "shift must be an integer; got Fraction(1, 2)",
        ),
        (lambda: DifferenceOperator([("1", 1)]), "shift must be an integer; got '1'"),
        (lambda: DifferenceOperator.shift(1.5), "shift must be an integer; got 1.5"),
        (lambda: operator_from_json(_differential_doc(-1, 2)), "order must be >= 0; got -1"),
        (lambda: operator_from_json(_differential_doc(-1)), "order must be >= 0; got -1"),
        (lambda: DifferentialOperator({-1: Polynomial((0, 1))}), "order must be >= 0; got -1"),
    ],
    ids=["ddx-negative", "ddx-float", "fraction-shift", "str-shift", "float-shift",
         "json-negative-order", "json-lone-negative-order", "mapping-negative-order"],
)
def test_operator_keys_are_checked(build, message):
    # Each was silently misread (or raised a bare IndexError) before keys were checked.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_compose_rejects_the_other_kind():
    shift, ddx = DifferenceOperator.shift(1), DifferentialOperator.ddx(1)
    for left, right in ((shift, ddx), (ddx, shift)):
        message = f"^cannot combine {type(right).__name__} with {type(left).__name__}$"
        with pytest.raises(TypeError, match=message):
            left.compose(right)


def test_differential_mapping_reads_order_to_coefficient():
    x = Polynomial((0, 1))
    assert DifferentialOperator({2: x}) == DifferentialOperator.ddx(2, x)
    assert DifferentialOperator({1: 3, 0: x}) == DifferentialOperator([x, 3])


def test_subtraction_of_the_other_kind_or_a_number_names_minus():
    shift, ddx = DifferenceOperator.shift(1), DifferentialOperator.ddx(1)
    for left, right in ((shift, ddx), (ddx, shift), (shift, 2), (ddx, Fraction(1, 2))):
        message = (
            f"^unsupported operand type\\(s\\) for -: '{type(left).__name__}'"
            f" and '{type(right).__name__}'$"
        )
        with pytest.raises(TypeError, match=message):
            left - right


# -- eigen identities on an integer grid ---------------------------------------------


def _grid_agrees(op: Operator, q: Polynomial, lam: Fraction) -> bool:
    """The grid's verdict, asserted equal to the polynomial one."""
    verdict = EigenGrid(op).holds(q, lam)
    assert verdict == (op.apply(q) == q * lam)
    return verdict


def _annihilating(q: Polynomial, g: Polynomial, shift: int) -> DifferenceOperator:
    """g(x) (q(x+shift) Sh_0 - q(x) Sh_shift), which sends q to 0."""
    if shift == 0:
        return DifferenceOperator()
    return DifferenceOperator({0: g * q.shift_arg(shift), shift: -(g * q)})


@settings(max_examples=300)
@given(diff_ops(max_shift=4), test_polys, rationals)
def test_grid_verdict_matches_apply_on_random_input(op, q, lam):
    _grid_agrees(op, q, lam)


@settings(max_examples=200)
@given(
    diff_ops(max_shift=3),
    st.lists(rationals, min_size=1, max_size=7).map(Polynomial).filter(lambda p: not p.is_zero()),
    rationals,
    small_polys,
    st.integers(-3, 3),
    rationals.filter(bool),
)
def test_grid_accepts_true_eigenpairs_and_rejects_perturbed_ones(op, q, lam, g, shift, delta):
    # lam Sh_0 plus an operator that kills q has q as an eigenfunction.
    true_op = _annihilating(q, g, shift) + DifferenceOperator({0: lam})
    assert _grid_agrees(true_op, q, lam)
    assert not _grid_agrees(true_op, q, lam + delta)
    _grid_agrees(true_op + op, q, lam)
    _grid_agrees(true_op, q + Polynomial.monomial(q.degree + 1, delta), lam)


@pytest.mark.parametrize("d, e, shift", [(0, 0, 1), (1, 0, -1), (3, 2, 2), (5, 3, -3), (8, 1, 4)])
def test_grid_needs_every_point(d, e, shift):
    # For each grid point j in 0..d+e, an operator and q whose residual
    # prod_{i != j} (x - i) vanishes on every other point of the grid.
    points = d + e + 1
    for j in range(points):
        roots = [i for i in range(points) if i != j]
        # q(x + shift) has the first d roots and f the remaining e.
        q = Polynomial.from_roots([r + shift for r in roots[:d]])
        f = Polynomial.from_roots(roots[d:])
        lam = Fraction(3, 5)
        op = DifferenceOperator({shift: f, 0: lam})
        assert op.apply(q) - q * lam == Polynomial.from_roots(roots)
        assert not _grid_agrees(op, q, lam)


def test_grid_of_the_zero_operator_and_the_zero_polynomial():
    q = Polynomial((1, 2, 3))
    assert _grid_agrees(DifferenceOperator(), q, 0)
    assert not _grid_agrees(DifferenceOperator(), q, 1)
    assert _grid_agrees(DifferenceOperator.forward_difference(), Polynomial(), 5)


# -- eigen identities on coefficients (differential operators) -------------------------

wide_polys = st.lists(rationals, min_size=0, max_size=7).map(Polynomial)


def wide_differential_ops():
    """Orders up to 4 and coefficient degrees up to 6, so that deg f_j > j
    (an operator outside the algebra) is common."""
    return st.dictionaries(st.integers(0, 4), wide_polys, max_size=4).map(DifferentialOperator)


def _killing(q: Polynomial, g: Polynomial) -> DifferentialOperator:
    """g(x) (q'(x) - q(x) d/dx), which sends q to 0."""
    return DifferentialOperator({0: g * q.derivative(), 1: -(g * q)})


@settings(max_examples=300)
@given(wide_differential_ops(), test_polys, rationals)
def test_coefficient_verdict_matches_apply_on_random_input(op, q, lam):
    _grid_agrees(op, q, lam)


@settings(max_examples=200)
@given(
    wide_differential_ops(),
    st.lists(rationals, min_size=1, max_size=7).map(Polynomial).filter(lambda p: not p.is_zero()),
    rationals,
    wide_polys,
    rationals.filter(bool),
)
def test_coefficients_accept_true_eigenpairs_and_reject_perturbed_ones(op, q, lam, g, delta):
    true_op = _killing(q, g) + DifferentialOperator({0: lam})
    assert _grid_agrees(true_op, q, lam)
    assert not _grid_agrees(true_op, q, lam + delta)
    _grid_agrees(true_op + op, q, lam)
    _grid_agrees(true_op, q + Polynomial.monomial(q.degree + 1, delta), lam)


family_params = st.fractions(min_value=-7, max_value=7, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Laguerre, Jacobi]), family_params, family_params, rationals.filter(bool))
def test_coefficients_decide_the_family_eigen_equation(cls, alpha, beta, delta):
    try:
        fam = Laguerre(alpha) if cls is Laguerre else Jacobi(alpha, beta)
    except DegeneracyError:
        return
    op = fam.second_order_op()
    grid = EigenGrid(op)
    for n in range(13):
        p, theta = fam.polynomial(n), fam.eigenvalue(n)
        assert grid.holds(p, theta) and _grid_agrees(op, p, theta)
        assert not _grid_agrees(op, p, theta + delta)
        _grid_agrees(op, p + fam.polynomial(max(n - 1, 0)) * delta, theta)


@pytest.mark.parametrize("d, e", [(0, 0), (0, 2), (2, 1), (3, 0), (4, 3), (6, 1)])
def test_coefficients_need_every_power(d, e):
    # For each power s in 0..d+e, an operator whose residual on q = x^d is
    # exactly x^s: lam plus h = x^(s-d+j) (d/dx)^j / (d(d-1)...(d-j+1)), which
    # sends x^d to x^s, plus x^(d+1+e) (d/dx)^(d+1), which kills x^d and
    # raises degrees by e.
    q, lam = Polynomial.monomial(d), Fraction(-2, 7)
    for s in range(d + e + 1):
        j = max(d - s, 0)
        op = (
            DifferentialOperator({0: lam})
            + DifferentialOperator.ddx(j, Polynomial.monomial(s - d + j, Fraction(1, perm(d, j))))
            + DifferentialOperator.ddx(d + 1, Polynomial.monomial(d + 1 + e))
        )
        assert op.apply(q) - q * lam == Polynomial.monomial(s)
        assert not _grid_agrees(op, q, lam)


def test_coefficients_of_the_zero_operator_and_the_zero_polynomial():
    q = Polynomial((1, 2, 3))
    assert _grid_agrees(DifferentialOperator(), q, 0)
    assert not _grid_agrees(DifferentialOperator(), q, 1)
    assert _grid_agrees(DifferentialOperator.ddx(2, Polynomial((0, 0, 0, 1))), Polynomial(), 5)
