"""Integer kernels against the Fraction code they replaced, with zero tolerance.

The polynomial multiply, the Taylor shift in ``shift_arg``, the fused
``apply`` of both operator kinds and the nested multiplication in
``Polynomial.from_newton`` work on integer numerators over one common
denominator.  The references below are the former implementations, kept
here only: a schoolbook multiply over ``Fraction`` coefficients, ``shift_arg``
as Horner composition with ``x + offset``, ``apply`` term by term, products
of linear factors, and the six family sums in their former shapes.
Every comparison is exact equality of coefficient tuples, and every result
must be canonical: lowest-terms ``Fraction`` coefficients, no trailing zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krallops.families import (
    Charlier,
    Hahn,
    Jacobi,
    Krawtchouk,
    Laguerre,
    Meixner,
    dual_hahn_poly,
    lattice_product,
)
from krallops.opalg import DifferenceOperator, DifferentialOperator
from krallops.polyops import (
    Polynomial,
    as_fraction,
    binom_scalar,
    falling_factorial_poly,
    pochhammer,
)

# -- references ------------------------------------------------------------------


def ref_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero() or q.is_zero():
        return Polynomial()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            if b:
                out[i + j] += a * b
    return Polynomial(out)


def ref_shift_arg(p: Polynomial, offset) -> Polynomial:
    inner = Polynomial((as_fraction(offset), 1))
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = ref_mul(acc, inner) + Polynomial((c,))
    return acc


def ref_difference_apply(op: DifferenceOperator, p: Polynomial) -> Polynomial:
    out = Polynomial()
    for shift, f in op.terms.items():
        out = out + ref_mul(f, ref_shift_arg(p, shift))
    return out


def ref_differential_apply(op: DifferentialOperator, p: Polynomial) -> Polynomial:
    out = Polynomial()
    d = p
    for f in op.terms:
        if not f.is_zero():
            out = out + ref_mul(f, d)
        d = d.derivative()
    return out


def assert_canonical(p: Polynomial) -> None:
    for c in p.coeffs:
        assert type(c) is Fraction
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    assert not p.coeffs or p.coeffs[-1] != 0


# -- strategies ----------------------------------------------------------------------

small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
big = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
scalars = st.one_of(st.just(Fraction(0)), small, big)
polys = st.lists(scalars, min_size=0, max_size=8).map(Polynomial)
offsets = st.one_of(st.integers(-6, 6), small, big)


@st.composite
def difference_ops(draw):
    shifts = draw(st.lists(st.integers(-4, 4), min_size=0, max_size=5, unique=True))
    return DifferenceOperator({s: draw(polys) for s in shifts})


@st.composite
def differential_ops(draw):
    return DifferentialOperator(draw(st.lists(polys, min_size=0, max_size=5)))


ZERO = Polynomial()
CONST = Polynomial((Fraction(-7, 3),))
HUGE = Polynomial((Fraction(10**50 + 1, 3**40), 0, Fraction(-(2**130), 10**45 + 7)))

# -- differential tests --------------------------------------------------------------


@given(polys, polys)
@settings(max_examples=300)
@example(ZERO, HUGE)
@example(HUGE, ZERO)
@example(CONST, CONST)
@example(HUGE, HUGE)
def test_mul_matches_fraction_schoolbook(p, q):
    got = p * q
    assert got.coeffs == ref_mul(p, q).coeffs
    assert_canonical(got)
    assert (q * p).coeffs == got.coeffs


@given(polys, scalars)
@settings(max_examples=100)
def test_scalar_rmul_matches_schoolbook(p, c):
    got = c * p
    assert got.coeffs == ref_mul(p, Polynomial((c,))).coeffs
    assert_canonical(got)


@given(polys, offsets)
@settings(max_examples=300)
@example(ZERO, Fraction(5, 3))
@example(CONST, Fraction(-5, 3))
@example(CONST, 0)
@example(HUGE, Fraction(-(10**30) - 1, 7**20))
@example(Polynomial((0, 0, 0, 1)), -1)
def test_shift_arg_matches_horner_composition(p, offset):
    got = p.shift_arg(offset)
    assert got.coeffs == ref_shift_arg(p, offset).coeffs
    assert_canonical(got)


@given(polys, offsets)
@settings(max_examples=100)
def test_shift_arg_round_trip(p, offset):
    off = as_fraction(offset)
    assert p.shift_arg(off).shift_arg(-off) == p


@given(difference_ops(), polys)
@settings(max_examples=200)
@example(DifferenceOperator.forward_difference(), CONST)
@example(DifferenceOperator.forward_difference(), ZERO)
@example(DifferenceOperator(), HUGE)
@example(DifferenceOperator({-3: HUGE, 2: CONST}), HUGE)
def test_difference_apply_matches_term_by_term(op, p):
    got = op.apply(p)
    assert got.coeffs == ref_difference_apply(op, p).coeffs
    assert_canonical(got)


@given(differential_ops(), polys)
@settings(max_examples=200)
@example(DifferentialOperator.ddx(1), CONST)
@example(DifferentialOperator.ddx(2, HUGE), Polynomial((0, 1)))
@example(DifferentialOperator(), HUGE)
@example(DifferentialOperator([ZERO, ZERO, HUGE]), HUGE)
def test_differential_apply_matches_term_by_term(op, p):
    got = op.apply(p)
    assert got.coeffs == ref_differential_apply(op, p).coeffs
    assert_canonical(got)


def test_difference_apply_cancels_to_zero():
    # (Sh_1 - Sh_0) x^3 - (3x^2 + 3x + 1) = 0: the fused sum must strip it all
    op = DifferenceOperator({1: 1, 0: -1})
    residual = op.apply(Polynomial.monomial(3)) - Polynomial((1, 3, 3))
    assert residual.is_zero() and residual.coeffs == ()


def ref_falling(j: int) -> Polynomial:
    out = Polynomial.one()
    for r in range(j):
        out = ref_mul(out, Polynomial((-r, 1)))
    return out


def ref_newton(scalars, nodes) -> Polynomial:
    """sum_j scalars[j] * prod_{i<j} (x - nodes[i]), each product from its factors."""
    out = Polynomial()
    basis = Polynomial.one()
    for j, t in enumerate(scalars):
        out = out + ref_mul(basis, Polynomial((t,)))
        if j < len(nodes):
            basis = ref_mul(basis, Polynomial((-as_fraction(nodes[j]), 1)))
    return out


scalars_or_zero = st.one_of(st.just(0), scalars)


@st.composite
def newton_forms(draw):
    scalars = draw(st.lists(scalars_or_zero, min_size=0, max_size=8))
    nodes = draw(st.lists(offsets, min_size=max(len(scalars) - 1, 0), max_size=len(scalars) + 1))
    return scalars, nodes


@given(newton_forms())
@settings(max_examples=300)
@example(([], []))
@example(([Fraction(-7, 3)], []))
@example(([0, 0, 0], [1, 2]))
@example(([1, 2, 0], [Fraction(10**30 + 1, 7**20), -3, 5]))
@example(([0, 0, 0, Fraction(1, 6)], [0, 1, 2]))
@example(([0, 0, 0, -HUGE.lead], [Fraction(-5, 3), Fraction(7, 10**20), HUGE.lead]))
def test_from_newton_matches_product_sum(form):
    scalars, nodes = form
    got = Polynomial.from_newton(scalars, nodes)
    assert got.coeffs == ref_newton(scalars, nodes).coeffs
    assert_canonical(got)
    if scalars and not any(scalars[:-1]):  # the from_roots case
        assert Polynomial.from_roots(nodes[: len(scalars) - 1], scalars[-1]) == got


@given(st.integers(0, 12))
@settings(max_examples=13)
def test_falling_factorials_match_root_products(count):
    got = falling_factorial_poly(count)
    assert got.coeffs == ref_falling(count).coeffs
    assert_canonical(got)


def ref_binom(j: int) -> Polynomial:
    return ref_falling(j) / factorial(j)


def ref_family_poly(fam, n: int) -> Polynomial:
    """The explicit sums of the six families in their former shapes.

    Charlier, Krawtchouk and Hahn as they were written before the
    falling-factorial basis was grown: each x(x-1)...(x-j+1) from its roots,
    and (-x)_j as (-1)^j times it.  Meixner, Laguerre and Jacobi are the
    bodies of their former ``_build_poly``, verbatim but for ``binom_poly``,
    which is ``ref_binom`` here: the generating-function convolution
    composed through ``Polynomial.__call__``, the monomial sum, and the
    (x-1)^(n-j) (x+1)^j power sum.
    """
    if isinstance(fam, Meixner):
        neg_x_minus_c = Polynomial((-fam.c, -1))
        out = Polynomial.zero()
        for j in range(n + 1):
            out = out + ref_binom(j) * ref_binom(n - j)(neg_x_minus_c) * fam.a ** -j
        return out * ((-1) ** n)
    if isinstance(fam, Laguerre):
        out = Polynomial.zero()
        for j in range(n + 1):
            scalar = Fraction((-1) ** j, factorial(j)) * binom_scalar(
                n + fam.alpha, n - j
            )
            out = out + Polynomial.monomial(j, scalar)
        return out
    if isinstance(fam, Jacobi):
        al, be = fam.alpha, fam.beta
        xm1 = Polynomial((-1, 1))
        xp1 = Polynomial((1, 1))
        out = Polynomial.zero()
        for j in range(n + 1):
            scalar = binom_scalar(n + al, j) * binom_scalar(n + be, n - j)
            out = out + xm1 ** (n - j) * xp1**j * scalar
        return out * Fraction(1, 2**n)
    out = Polynomial()
    for j in range(n + 1):
        ff = ref_falling(j)
        neg_x_poch = ref_mul(ff, Polynomial(((-1) ** j,)))
        if isinstance(fam, Charlier):
            term = ref_mul(ff, Polynomial(((-fam.a) ** (n - j) * binom_scalar(n, j),)))
        elif isinstance(fam, Krawtchouk):
            a, N = fam.a, fam.N
            scalar = (
                (-1) ** (n + j) * (a / (1 + a)) ** (n - j)
                * pochhammer(-n, j) * pochhammer(N - n, n - j) / factorial(j)
            )
            term = ref_mul(neg_x_poch, Polynomial((scalar,)))
        else:
            al, c, N = fam.alpha, fam.c, fam.N
            scalar = (
                pochhammer(-n, j) * pochhammer(1 - N + j, n - j) * pochhammer(c + j, n - j)
                / (pochhammer(n + al + c - N + j, n - j) * factorial(j))
            )
            term = ref_mul(neg_x_poch, Polynomial((scalar,)))
        out = out + term
    return out if isinstance(fam, Hahn) else out / factorial(n)


def test_family_polynomials_match_root_built_sums():
    for fam in (
        Charlier(Fraction(3, 7)),
        Krawtchouk(Fraction(-5, 2), Fraction(11, 3)),
        Hahn(Fraction(4), Fraction(7, 2), Fraction(-3, 5)),
        Meixner(Fraction(-2, 3), Fraction(5, 4)),
        Meixner(Fraction(3), Fraction(0)),
        Meixner(Fraction(1, 2), Fraction(-2)),
        Laguerre(Fraction(-1, 2)),
        Laguerre(Fraction(7, 3)),
        Jacobi(Fraction(-1, 3), Fraction(0)),
        Jacobi(Fraction(2), Fraction(5, 7)),
        Jacobi(Fraction(0), Fraction(-1, 2)),
    ):
        for n in range(13):
            got = fam.polynomial(n)
            assert got.coeffs == ref_family_poly(fam, n).coeffs
            assert_canonical(got)


@pytest.mark.parametrize("u", [Fraction(0), Fraction(5), Fraction(-7, 3)])
def test_lattice_helpers_match_factor_products(u):
    """lattice_product, dual_hahn_poly and Jacobi.r_basis against the former
    loops: one linear factor at a time, and the dual Hahn sum term by term."""
    for j in range(9):
        want = Polynomial.one()
        for i in range(j):
            want = ref_mul(want, Polynomial((i * (u - i), 1)))
        want = ref_mul(want, Polynomial(((-1) ** j,)))
        assert lattice_product(j, u).coeffs == want.coeffs
    al, c, N = Fraction(3, 2), Fraction(-1, 5), Fraction(4) + u
    for k in range(9):
        want = Polynomial()
        for j in range(k + 1):
            scalar = (
                pochhammer(-k, j) * pochhammer(1 - N + j, k - j) * pochhammer(c + j, k - j)
                / factorial(j)
            )
            want = want + ref_mul(lattice_product(j, N - al - c), Polynomial((scalar,)))
        assert dual_hahn_poly(al, c, N, k).coeffs == want.coeffs
    fam = Jacobi(u + 1, Fraction(2, 9))
    for j in range(9):
        want = Polynomial.one()
        for i in range(j):
            want = ref_mul(want, Polynomial(((fam.alpha + i + 1) * (fam.beta - i), -1)))
        assert fam.r_basis(j).coeffs == want.coeffs
