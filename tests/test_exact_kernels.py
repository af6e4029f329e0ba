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

The moment pipeline is checked the same way.  ``orthoseq``, ``gram_check``,
``hankel_det`` and ``ip_lemma_check`` pair through moments computed once;
their former bodies (Hankel determinants plus dense solves, one
transform-chain ``pairing`` per product, and the six-branch lemma chain) are
kept below as references, and values and raised errors must match exactly.
The moments themselves now come from one recurrence sweep mapped through the
transform chain as a vector; the former per-polynomial walk (the test
polynomial rewritten through the chain, then expanded in the base family
monomial by monomial) is the reference ``ref_pairing`` that all of these
references pair through.

So are the family polynomials and operator composition.  ``pochhammer``
now multiplies in integers; each family builds p_n from its three-term
recurrence; both ``compose`` kinds sum their products on integer numerators.
The references are the former ``pochhammer``, p_n in Newton form from the
six per-term ``_term(n, j)`` bodies (``newton_reference``) and the two
``compose`` bodies on ``Polynomial`` arithmetic.

``Polynomial`` itself is stored as integer numerators over one denominator,
and ``poly_of_op`` sums on integer numerators from one chain of operator
powers.  The references are the former ``Fraction``-tuple ``Polynomial``
methods (the class ``RefPolynomial``) and the former ``poly_of_op`` body, and
results and raised errors must match exactly.

Both operator kinds now share one keyed-term representation and one set of
linear-space methods.  The reference is the former pair of classes and the
module functions over them, verbatim (``ref_opalg``); every value-level
method, ``str``, ``repr``, JSON and the combinations must match, errors
included.

A Krall construction is plain data: gamma, beta and lambda are read from the
family, its lowering operator and (P1, P2) rather than kept as closures, and
the lowering-operator catalog is one table.  The references are the former
``KrallConstruction``, both engines, ``negated_frame``, the point-mass
recipe's ``build`` and the ``catalog`` chain, verbatim (``ref_krall``); every
value a construction gives, its negated frame's, and every raised error with
its ``index`` must match.  ``antidifference`` and ``moments.occ_weights``
expand through the one graded-basis loop; their former peel loops are the
references there.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krallops import dops, krall, moments, opalg
from krallops.dops import DOperator
from krallops.errors import (
    ConstructionError,
    DegeneracyError,
    HypothesisError,
    KrallopsError,
    NoOrthogonalPolynomialsError,
    OperatorError,
    check_at_least,
)
from krallops.families import (
    Charlier,
    Family,
    Hahn,
    Jacobi,
    Krawtchouk,
    Laguerre,
    Meixner,
    binomial_rising_terms,
    dual_hahn_poly,
    dual_hahn_variant,
    family_from_name,
    lattice_product,
)
from krallops.krall import NamedConstruction, _label, type2_companion
from krallops.moments import (
    AddDeltaScaled,
    ChristoffelBy,
    GramReport,
    MomentFunctional,
    RatioCheck,
    RatioReport,
    ShiftBy,
    charlier_transformed,
    det_fraction,
    hahn1_transformed,
    hahn2_transformed,
    jacobi_transformed,
    krawtchouk_transformed,
    laguerre_transformed,
    meixner1_transformed,
    meixner2_transformed,
    solve_fraction,
)
from krallops.opalg import (
    DifferenceOperator,
    DifferentialOperator,
    Operator,
    _as_coeff_poly,
    _common_ints,
    _sum_of_products,
    poly_of_op,
)
from krallops.polyops import (
    Polynomial,
    RatLike,
    _taylor_shift,
    antidifference,
    as_fraction,
    binom_poly,
    fraction_to_str,
    pochhammer,
)
from newton_reference import (
    ref_binom_scalar,
    ref_newton_poly,
    ref_pochhammer,
    ref_scalars,
    ref_term,
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
    nums, den = p._nums, p._den
    assert type(nums) is tuple and all(type(c) is int for c in nums)
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
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
    (x-1)^(n-j) (x+1)^j power sum.  Every rising factorial and binomial
    scalar is the ``newton_reference`` one, not the ``polyops`` kernel.
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
            scalar = Fraction((-1) ** j, factorial(j)) * ref_binom_scalar(
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
            scalar = ref_binom_scalar(n + al, j) * ref_binom_scalar(n + be, n - j)
            out = out + xm1 ** (n - j) * xp1**j * scalar
        return out * Fraction(1, 2**n)
    out = Polynomial()
    for j in range(n + 1):
        ff = ref_falling(j)
        neg_x_poch = ref_mul(ff, Polynomial(((-1) ** j,)))
        if isinstance(fam, Charlier):
            term = ref_mul(ff, Polynomial(((-fam.a) ** (n - j) * ref_binom_scalar(n, j),)))
        elif isinstance(fam, Krawtchouk):
            a, N = fam.a, fam.N
            scalar = (
                (-1) ** (n + j) * (a / (1 + a)) ** (n - j)
                * ref_pochhammer(-n, j) * ref_pochhammer(N - n, n - j) / factorial(j)
            )
            term = ref_mul(neg_x_poch, Polynomial((scalar,)))
        else:
            al, c, N = fam.alpha, fam.c, fam.N
            scalar = (
                ref_pochhammer(-n, j) * ref_pochhammer(1 - N + j, n - j)
                * ref_pochhammer(c + j, n - j)
                / (ref_pochhammer(n + al + c - N + j, n - j) * factorial(j))
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


# -- moment pipeline: references ---------------------------------------------------


@lru_cache(maxsize=None)
def ref_monomial_in_basis(family: Family, power: int) -> tuple[Fraction, ...]:
    """Coordinates of x^power in the family basis, via the recurrence only."""
    if power == 0:
        return (Fraction(1),)
    prev = ref_monomial_in_basis(family, power - 1)
    out = [Fraction(0)] * (power + 1)
    for m, d in enumerate(prev):
        if d == 0:
            continue
        a_m, b_m, c_m = family.ttr(m)
        out[m + 1] += d * a_m
        out[m] += d * b_m
        if m >= 1:
            out[m - 1] += d * c_m
    return tuple(out)


def ref_base_pairing(family: Family, poly: Polynomial) -> Fraction:
    """Pair the base functional with poly, in units of the base's total mass."""
    total = Fraction(0)
    for j, c in enumerate(poly.coeffs):
        if c:
            total += c * ref_monomial_in_basis(family, j)[0]
    return total


def ref_pairing(functional: MomentFunctional, poly: Polynomial) -> Fraction:
    """Exact pairing <functional, poly> in base-unit mass."""
    extra = Fraction(0)
    p = poly
    # Walk outermost transform first, rewriting the test polynomial.
    for t in reversed(functional.transforms):
        if isinstance(t, ChristoffelBy):
            p = t.poly * p
        elif isinstance(t, ShiftBy):
            p = p.shift_arg(-t.offset)
        elif isinstance(t, AddDeltaScaled):
            extra += t.mass_ratio * p(t.location)
        else:
            raise TypeError(f"unknown transform {t!r}")
    return ref_base_pairing(functional.base, p) + extra


def ref_moment(functional: MomentFunctional, power: int) -> Fraction:
    return ref_pairing(functional, Polynomial.monomial(power))


def ref_hankel_det(functional: MomentFunctional, level: int) -> Fraction:
    """det(mu_{i+j})_{i,j=0..level}."""
    mus = [ref_moment(functional, j) for j in range(2 * level + 1)]
    return det_fraction([[mus[i + j] for j in range(level + 1)] for i in range(level + 1)])


def ref_orthoseq(functional: MomentFunctional, nmax: int) -> list[Polynomial]:
    """Monic orthogonal polynomials p_0..p_nmax for the functional.

    Existence at each level requires the corresponding Hankel determinant
    to be nonzero; the first vanishing level raises
    NoOrthogonalPolynomialsError with that level recorded.
    """
    mus = [ref_moment(functional, j) for j in range(2 * nmax + 2)]
    for level in range(nmax + 1):
        d = det_fraction([[mus[i + j] for j in range(level + 1)] for i in range(level + 1)])
        if d == 0:
            raise NoOrthogonalPolynomialsError(
                f"no orthogonal polynomial of degree {level}:"
                f" Hankel determinant vanishes",
                level=level,
            )
    out = [Polynomial.one()]
    for n in range(1, nmax + 1):
        # Solve for monic p_n = x^n + sum_{i<n} v_i x^i with <F, p_n x^m> = 0.
        a = [[mus[i + m] for i in range(n)] for m in range(n)]
        b = [-mus[n + m] for m in range(n)]
        v = solve_fraction(a, b)
        out.append(Polynomial(v + [Fraction(1)]))
    return out


def ref_gram_check(functional: MomentFunctional, polys) -> GramReport:
    """Pair every product p_i p_j; off-diagonal must vanish, diagonal must not."""
    n = len(polys)
    values = [[Fraction(0)] * n for _ in range(n)]
    failures = []
    for i in range(n):
        for j in range(i, n):
            v = ref_pairing(functional, polys[i] * polys[j])
            values[i][j] = values[j][i] = v
            if i != j and v != 0:
                failures.append((i, j))
    diagonal = [values[i][i] for i in range(n)]
    ok = not failures and all(d != 0 for d in diagonal)
    return GramReport(values=values, ok=ok, failures=failures, diagonal=diagonal)


def ref_ip_lemma_check(kind: str, params: dict, k: int, nmax: int) -> RatioReport:
    """Check a closed-form pairing lemma as the ratio <F, p_n> / <F, p_0>.

    Ratios are taken so every transcendental unit mass cancels and both
    sides are exact rationals.  ``params`` carries the family parameters
    (a, c, N, alpha as appropriate).
    """
    if kind == "chxx":
        fam = family_from_name("charlier", params)
        a = fam.a
        functional = charlier_transformed(a, k)
        dual = Charlier(-a)

        def expected(n: int) -> Fraction:
            num = dual.polynomial(k)(Fraction(-n - 1))
            den = dual.polynomial(k)(Fraction(-1))
            return (-1) ** n * num / den

    elif kind == "lme1x":
        fam = family_from_name("meixner", params)
        a, c = fam.a, fam.c
        functional = meixner1_transformed(a, c, k)
        dual = Meixner(1 / a, -c + 2)

        def expected(n: int) -> Fraction:
            return dual.polynomial(k)(Fraction(-n - 1)) / dual.polynomial(k)(Fraction(-1))

    elif kind == "meixner2":
        fam = family_from_name("meixner", params)
        a, c = fam.a, fam.c
        functional = meixner2_transformed(a, c, k)
        dual = Meixner(a, -c + 2)

        def expected(n: int) -> Fraction:
            num = dual.polynomial(k)(Fraction(-n - 1))
            den = dual.polynomial(k)(Fraction(-1))
            return num / (a**n * den)

    elif kind == "krawtchouk":
        fam = family_from_name("krawtchouk", params)
        a, N = fam.a, fam.N
        functional = krawtchouk_transformed(a, N, k)
        dual = Krawtchouk(a, -N)

        def expected(n: int) -> Fraction:
            num = dual.polynomial(k)(Fraction(-n - 1))
            den = dual.polynomial(k)(Fraction(-1))
            return (-1) ** n * num / ((1 + a) ** n * den)

    elif kind in ("hahn1", "hahn2"):
        fam = family_from_name("hahn", params)
        al, c, N = fam.alpha, fam.c, fam.N
        variant = 1 if kind == "hahn1" else 2
        functional = (
            hahn1_transformed(al, c, N, k)
            if variant == 1
            else hahn2_transformed(al, c, N, k)
        )
        hstar = dual_hahn_variant(variant, al, c, N, k)

        def expected(n: int) -> Fraction:
            ratio = hstar(fam.eigenvalue(n)) / hstar(fam.eigenvalue(0))
            shared = (
                (-1) ** n
                * Fraction(factorial(n))
                * pochhammer(al + 1 - N, n)
                / pochhammer(al + c - N, 2 * n)
            )
            extra = pochhammer(N - n, n) if variant == 1 else pochhammer(al + c, n)
            return shared * extra * ratio

    else:
        raise ValueError(f"unknown pairing lemma kind {kind!r}")

    base_value = ref_pairing(functional, fam.polynomial(0))
    checks = []
    for n in range(nmax + 1):
        lhs = ref_pairing(functional, fam.polynomial(n)) / base_value
        checks.append(RatioCheck(n=n, lhs=lhs, rhs=expected(n)))
    return RatioReport(kind=kind, checks=checks)


def outcome(fn, *args):
    """The value fn returns, or the type, message and level of what it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, KrallopsError) as exc:
        return type(exc), str(exc), getattr(exc, "level", None)


def assert_same(fn, ref, *args, alike=()):
    """fn and ref give the same value or raise the same error; ``alike`` holds
    further (error type, reference error type) pairs that count as the same."""
    got, want = outcome(fn, *args), outcome(ref, *args)
    raised = (got[0], want[0]) if isinstance(got, tuple) and isinstance(want, tuple) else None
    # A bare assert would diff the reprs, which are huge when coefficients blow up.
    if got != want and raised not in alike:
        pytest.fail(f"{fn.__name__}{args!r} differs from the reference", pytrace=False)
    return got


# -- moment pipeline: inputs -------------------------------------------------------

NAMED_FUNCTIONALS = [
    charlier_transformed(Fraction(1, 2), 2),
    charlier_transformed(Fraction(3, 7), 1),
    meixner1_transformed(Fraction(1, 3), Fraction(5, 2), 2),
    meixner2_transformed(Fraction(1, 3), Fraction(5, 2), 1),
    krawtchouk_transformed(Fraction(1, 2), Fraction(15, 2), 2),
    hahn1_transformed(Fraction(7, 3), Fraction(5, 2), Fraction(1, 3), 1),
    hahn2_transformed(Fraction(7, 3), Fraction(5, 2), Fraction(1, 3), 2),
    laguerre_transformed(Fraction(5, 2), Fraction(2)),
    jacobi_transformed(Fraction(1, 2), Fraction(2), Fraction(3, 4)),
]

# (functional, first level whose Hankel determinant vanishes).  For the
# transformed Charlier functional with k = 1 the level is a - 1.
VANISHING = [(charlier_transformed(Fraction(a), 1), a - 1) for a in (2, 3, 4)] + [
    (MomentFunctional(Laguerre(Fraction(0))).transformed(AddDeltaScaled(0, -1)), 0),
]

IP_PARAMS = {
    "chxx": [{"a": Fraction(2)}, {"a": Fraction(-5, 3)}],
    "lme1x": [{"a": Fraction(1, 3), "c": Fraction(5, 2)}, {"a": Fraction(3), "c": Fraction(-1, 2)}],
    "meixner2": [{"a": Fraction(1, 3), "c": Fraction(5, 2)}, {"a": Fraction(-2), "c": Fraction(4)}],
    "krawtchouk": [{"a": Fraction(1, 2), "N": Fraction(15, 2)}, {"a": Fraction(-3), "N": Fraction(2)}],
    "hahn1": [{"alpha": Fraction(7, 3), "c": Fraction(5, 2), "N": Fraction(1, 3)}],
    "hahn2": [{"alpha": Fraction(7, 3), "c": Fraction(5, 2), "N": Fraction(1, 3)}],
}

# Inputs with D_k(-1) = 0, so <F, p_0> = 0 and the ratio is undefined.
IP_DEGENERATE = [
    ("chxx", {"a": Fraction(1)}),
    ("lme1x", {"a": Fraction(1, 4), "c": Fraction(5, 4)}),
    ("meixner2", {"a": Fraction(1, 4), "c": Fraction(5)}),
    ("krawtchouk", {"a": Fraction(1, 4), "N": Fraction(4)}),
]

tiny = st.fractions(min_value=-3, max_value=3, max_denominator=3)


chain_transforms = st.one_of(
    st.builds(ChristoffelBy, st.lists(tiny, max_size=4).map(Polynomial)),
    st.builds(ShiftBy, tiny),
    st.builds(AddDeltaScaled, tiny, tiny),
    # A zero and a constant Christoffel factor, a zero shift and a zero mass.
    st.sampled_from([ChristoffelBy(Polynomial()), ChristoffelBy(Fraction(-5, 2)), ShiftBy(0)]),
    st.builds(AddDeltaScaled, tiny, st.just(0)),
)


@st.composite
def functionals(draw):
    """Any of the six families, Krawtchouk also at an integer N (so c_N = 0),
    under a random chain of 0 to 4 Christoffel/shift/point-mass transforms."""
    cls = draw(st.sampled_from([Charlier, Meixner, Krawtchouk, Hahn, Laguerre, Jacobi]))
    params = [draw(tiny) for _ in fields(cls)]
    if cls is Krawtchouk and draw(st.booleans()):
        params[1] = Fraction(draw(st.integers(0, 12)))
    try:
        base = cls(*params)
    except DegeneracyError:
        assume(False)
    return MomentFunctional(base, tuple(draw(st.lists(chain_transforms, max_size=4))))


# -- moment pipeline: differential tests ---------------------------------------------


@pytest.mark.parametrize("functional", NAMED_FUNCTIONALS)
def test_orthoseq_and_gram_match_hankel_solve_on_named_functionals(functional):
    monic = assert_same(moments.orthoseq, ref_orthoseq, functional, 12)
    assert len(monic) == 13
    for level in range(5):
        assert_same(moments.hankel_det, ref_hankel_det, functional, level)
    report = assert_same(moments.gram_check, ref_gram_check, functional, monic)
    assert report.ok
    # Not orthogonal: a monomial basis, a repeated entry and a zero polynomial.
    skewed = [Polynomial.monomial(j) for j in range(4)] + [monic[2], Polynomial()]
    report = assert_same(moments.gram_check, ref_gram_check, functional, skewed)
    assert report.failures and not report.ok


@pytest.mark.parametrize("functional, level", VANISHING)
def test_orthoseq_stops_at_the_first_vanishing_hankel_level(functional, level):
    err = assert_same(moments.orthoseq, ref_orthoseq, functional, level + 3)
    assert err[0] is NoOrthogonalPolynomialsError and err[2] == level
    assert moments.hankel_det(functional, level) == 0
    if level:
        assert len(assert_same(moments.orthoseq, ref_orthoseq, functional, level - 1)) == level
    for lvl in range(level + 3):
        assert_same(moments.hankel_det, ref_hankel_det, functional, lvl)


@settings(max_examples=150, deadline=None)
@given(functionals(), st.integers(0, 6))
def test_orthoseq_and_hankel_match_on_random_chains(functional, nmax):
    assert_same(moments.orthoseq, ref_orthoseq, functional, nmax)
    assert_same(moments.hankel_det, ref_hankel_det, functional, nmax)


@settings(max_examples=150, deadline=None)
@given(functionals(), st.lists(st.lists(tiny, max_size=4).map(Polynomial), min_size=1, max_size=5))
def test_gram_check_matches_pairing_per_product_on_random_chains(functional, polys):
    assert_same(moments.gram_check, ref_gram_check, functional, polys)


@pytest.mark.parametrize("kind", moments.IP_LEMMA_KINDS)
def test_ip_lemma_table_matches_six_branch_chain(kind):
    for params in IP_PARAMS[kind]:
        for k in range(4):
            report = assert_same(moments.ip_lemma_check, ref_ip_lemma_check, kind, params, k, 12)
            assert report.ok and len(report.checks) == 13


@pytest.mark.parametrize("kind, params", IP_DEGENERATE)
def test_ip_lemma_still_raises_when_the_dual_vanishes_at_minus_one(kind, params):
    vanishing = rf"^{kind}: pairing normaliser vanishes .*D_k\(-1\) = 0"
    with pytest.raises(DegeneracyError, match=vanishing):
        moments.ip_lemma_check(kind, params, 1, 4)
    with pytest.raises(ZeroDivisionError):
        ref_ip_lemma_check(kind, params, 1, 4)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(moments.IP_LEMMA_KINDS),
    st.fixed_dictionaries({"a": tiny, "c": tiny, "N": tiny, "alpha": tiny}),
    st.integers(0, 3),
    st.integers(0, 6),
)
def test_ip_lemma_table_matches_on_random_parameters(kind, params, k, nmax):
    # Where a normaliser vanishes, the table raises DegeneracyError and the
    # reference divides by zero.
    alike = {(DegeneracyError, ZeroDivisionError)}
    assert_same(moments.ip_lemma_check, ref_ip_lemma_check, kind, params, k, nmax, alike=alike)


@settings(max_examples=150, deadline=None)
@given(
    functionals(),
    st.integers(-1, 24),
    st.lists(tiny, max_size=25).map(Polynomial),
    st.integers(0, 12),
)
@example(
    MomentFunctional(Krawtchouk(Fraction(1, 2), Fraction(3)), (ShiftBy(0), ChristoffelBy(3))),
    24,
    Polynomial.monomial(24, Fraction(-2, 3)),
    12,
)
@example(
    MomentFunctional(Jacobi(Fraction(0), Fraction(0)), (ChristoffelBy(Polynomial()),)),
    -1,
    Polynomial(),
    0,
)
def test_moment_vector_matches_the_transform_walk(functional, power, poly, level):
    assert_same(moments.moment, ref_moment, functional, power)
    assert_same(moments.pairing, ref_pairing, functional, poly)
    assert_same(moments.base_pairing, ref_base_pairing, functional.base, poly)
    assert_same(moments.hankel_det, ref_hankel_det, functional, level)


# -- family scalars and compose: references ------------------------------------------


def ref_type2_weights(k: int, u, v) -> list[Fraction]:
    """The former second-kind seed weights (-k)_j (u+j)_{k-j} (v+j)_{k-j} / j!."""
    return [
        ref_pochhammer(-k, j) * ref_pochhammer(u + j, k - j) * ref_pochhammer(v + j, k - j)
        / factorial(j)
        for j in range(k + 1)
    ]


def ref_difference_compose(left: DifferenceOperator, right: DifferenceOperator):
    # f(x)Sh_a then g(x)Sh_b on the right: f(x)*g(x+a)*Sh_{a+b}.
    acc = {}
    for a, f in left.terms.items():
        for b, g in right.terms.items():
            key = a + b
            contrib = f * g.shift_arg(a)
            acc[key] = acc[key] + contrib if key in acc else contrib
    return DifferenceOperator(acc)


def ref_differential_compose(left: DifferentialOperator, right: DifferentialOperator):
    # Leibniz: (d/dx)^i (g h) = sum_m C(i,m) g^(m) h^(i-m).
    size = (len(left.terms) - 1) + (len(right.terms) - 1) + 1 if left.terms and right.terms else 0
    acc = [Polynomial.zero() for _ in range(max(size, 0))]
    for i, f in enumerate(left.terms):
        if f.is_zero():
            continue
        for j, g in enumerate(right.terms):
            if g.is_zero():
                continue
            gm = g
            for m in range(i + 1):
                if not gm.is_zero():
                    acc[i + j - m] = acc[i + j - m] + ref_binom_scalar(i, m) * f * gm
                gm = gm.derivative()
    return DifferentialOperator(acc)


def unchecked_hahn(alpha, c, N) -> Hahn:
    """A Hahn family the constructor would refuse: alpha + c - N a negative integer."""
    fam = object.__new__(Hahn)
    for name, value in (("alpha", alpha), ("c", c), ("N", N)):
        object.__setattr__(fam, name, Fraction(value))
    return fam


# -- family polynomials and compose: differential tests --------------------------------

# Parameters where a rising factor in t_j(n) vanishes: Meixner with c a
# nonpositive integer, Krawtchouk with integer N <= n, and Hahn with 1 - N or c
# a nonpositive integer.
DEGENERATE_FAMILIES = [
    Meixner(Fraction(1, 3), Fraction(0)),
    Meixner(Fraction(-2), Fraction(-3)),
    Meixner(Fraction(5, 2), Fraction(-17)),
    Krawtchouk(Fraction(1, 2), Fraction(1)),
    Krawtchouk(Fraction(-3, 7), Fraction(5)),
    Krawtchouk(Fraction(2), Fraction(23)),
    Hahn(Fraction(3), Fraction(2), Fraction(5)),
    Hahn(Fraction(4), Fraction(-3), Fraction(5, 2)),
]

rationals = st.one_of(st.integers(-12, 12).map(Fraction), small, big)


@st.composite
def families_at(draw):
    cls = draw(st.sampled_from([Charlier, Meixner, Krawtchouk, Hahn, Laguerre, Jacobi]))
    try:
        fam = cls(*[draw(rationals) for _ in fields(cls)])
    except DegeneracyError:
        assume(False)
    return fam, draw(st.integers(0, 40))


def test_pochhammer_edges_match_fraction_products():
    for start in (0, -3, Fraction(-7, 2), Fraction(10**30 + 1, 3**20)):
        for count in range(12):
            assert pochhammer(start, count) == ref_pochhammer(start, count)
    with pytest.raises(ValueError, match="^count must be >= 0; got -1$"):
        pochhammer(1, -1)


@given(rationals, st.integers(0, 40))
@settings(max_examples=300)
def test_pochhammer_matches_fraction_products(start, count):
    got = pochhammer(start, count)
    assert type(got) is Fraction and got == ref_pochhammer(start, count)


@pytest.mark.parametrize("fam", DEGENERATE_FAMILIES, ids=repr)
def test_family_scalars_match_terms_where_factors_vanish(fam):
    """p_n equals its Newton form on the reference terms, some of them zero;
    the degrees are asked for out of order, so the run grows in pieces."""
    vanished = 0
    for n in random.Random(0).sample(range(41), 41):
        scalars = ref_scalars(fam, n)
        assert scalars == [ref_term(fam, n, j) for j in range(n + 1)], n
        vanished += 0 in scalars
        assert fam.polynomial(n) == ref_newton_poly(fam, n), n
    assert vanished


@given(families_at())
@settings(max_examples=300, deadline=None)
def test_family_scalars_match_terms_on_random_parameters(fam_n):
    fam, n = fam_n
    assert ref_scalars(fam, n) == [ref_term(fam, n, j) for j in range(n + 1)]
    assert fam.polynomial(n) == ref_newton_poly(fam, n)


@given(st.integers(0, 40), rationals, rationals)
@settings(max_examples=200, deadline=None)
@example(6, Fraction(-2), Fraction(5, 2))
@example(9, Fraction(0), Fraction(-4))
def test_binomial_rising_terms_match_type2_weights(k, u, v):
    terms = binomial_rising_terms(k, u, v)
    assert all(type(t) is Fraction for t in terms)
    assert [(-1) ** j * t for j, t in enumerate(terms)] == ref_type2_weights(k, u, v)


NEG = DifferenceOperator({-3: HUGE, -1: CONST, 2: Polynomial((0, Fraction(-1, 2)))})


@given(difference_ops(), difference_ops())
@settings(max_examples=300, deadline=None)
@example(DifferenceOperator(), NEG)
@example(NEG, DifferenceOperator())
@example(NEG, NEG)
@example(DifferenceOperator.forward_difference(), DifferenceOperator.backward_difference())
@example(DifferenceOperator({-4: CONST}), DifferenceOperator({4: Polynomial((Fraction(3, 7),))}))
def test_difference_compose_matches_shift_and_multiply(left, right):
    got = left.compose(right)
    assert got == ref_difference_compose(left, right)
    for f in got.terms.values():
        assert not f.is_zero()
        assert_canonical(f)


@given(differential_ops(), differential_ops())
@settings(max_examples=300, deadline=None)
@example(DifferentialOperator(), DifferentialOperator([ZERO, HUGE]))
@example(DifferentialOperator([ZERO, HUGE]), DifferentialOperator())
@example(DifferentialOperator([ZERO, ZERO, HUGE]), DifferentialOperator([CONST, ZERO, ZERO, HUGE]))
@example(DifferentialOperator.ddx(3, HUGE), DifferentialOperator([Polynomial((0, 0, 1))]))
def test_differential_compose_matches_leibniz_on_fractions(left, right):
    got = left.compose(right)
    assert got == ref_differential_compose(left, right)
    for f in got.terms:
        assert_canonical(f)
    assert not got.terms or not got.terms[-1].is_zero()


# -- the integer-pair Polynomial: references -------------------------------------------


class RefPolynomial:
    """The former ``Polynomial`` on a tuple of lowest-terms ``Fraction``s.

    Its method bodies are verbatim but for the class name; ``__mul__`` keeps
    only the scalar branch (polynomial products are ``ref_mul``) and
    ``__call__`` only the rational-point branch."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    @property
    def lead(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __add__(self, other) -> "RefPolynomial":
        other = _ref_coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "RefPolynomial":
        return RefPolynomial([-c for c in self._coeffs])

    def __sub__(self, other) -> "RefPolynomial":
        other = _ref_coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RefPolynomial":
        other = _ref_coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RefPolynomial":
        try:
            c = as_fraction(other)
        except TypeError:
            return NotImplemented
        return RefPolynomial([c * a for a in self._coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "RefPolynomial":
        c = as_fraction(scalar)
        return RefPolynomial([a / c for a in self._coeffs])

    def __call__(self, point):
        x0 = as_fraction(point)
        acc_f = Fraction(0)
        for c in reversed(self._coeffs):
            acc_f = acc_f * x0 + c
        return acc_f

    def shift_arg(self, offset) -> "RefPolynomial":
        off = as_fraction(offset)
        if off == 0 or len(self._coeffs) < 2:
            return self
        nums, den = self._ints()
        u, v = off.numerator, off.denominator
        d = len(nums) - 1
        nums = [c * v ** (d - j) for j, c in enumerate(nums)]
        _taylor_shift(nums, u)
        return _ref_from_ints([c * v**j for j, c in enumerate(nums)], den * v**d)

    def derivative(self, times: int = 1) -> "RefPolynomial":
        check_at_least("times", times, 0)
        p = self
        for _ in range(times):
            p = RefPolynomial([i * c for i, c in enumerate(p._coeffs)][1:])
        return p

    def _ints(self) -> tuple[list[int], int]:
        cs = self._coeffs
        den = lcm(*[c.denominator for c in cs])
        return [c.numerator * (den // c.denominator) for c in cs], den


def _ref_from_ints(nums: list[int], den: int) -> RefPolynomial:
    while nums and not nums[-1]:
        nums.pop()
    out = RefPolynomial.__new__(RefPolynomial)
    object.__setattr__(out, "_coeffs", tuple([Fraction(c, den) for c in nums]))
    return out


def _ref_coerce_poly(value):
    if isinstance(value, RefPolynomial):
        return value
    try:
        return RefPolynomial((as_fraction(value),))
    except TypeError:
        return NotImplemented


def ref_poly_of_op(p: Polynomial, op):
    out = type(op)()
    power = type(op).identity()
    deg = -1 if p.is_zero() else p.degree
    for j in range(deg + 1):
        c = p.coeff(j)
        if c:
            out = out + power * c
        if j < deg:
            power = power.compose(op)
    return out


def settled(fn, *args):
    """fn's value, polynomials as coefficient tuples, or the type and message
    of what it raises."""
    try:
        got = fn(*args)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(got, Polynomial):
        assert_canonical(got)
    if isinstance(got, (Polynomial, RefPolynomial)):
        return "poly", got.coeffs
    return type(got), got


# -- the integer-pair Polynomial: differential tests -------------------------------------

raw_coeffs = st.lists(
    st.one_of(scalars, st.integers(-10**30, 10**30), small.map(fraction_to_str)), max_size=8
)
# Scalar operands: rationals of every input form the API takes, zero among them.
operands = st.one_of(st.just(0), scalars, st.integers(-9, 9), small.map(fraction_to_str))

POLY_METHODS = {
    "add": lambda p, q, c, j: p + q,
    "add_scalar": lambda p, q, c, j: p + c,
    "radd_scalar": lambda p, q, c, j: c + p,
    "sub": lambda p, q, c, j: p - q,
    "sub_scalar": lambda p, q, c, j: p - c,
    "rsub_scalar": lambda p, q, c, j: c - p,
    "neg": lambda p, q, c, j: -p,
    "mul_scalar": lambda p, q, c, j: p * c,
    "rmul_scalar": lambda p, q, c, j: c * p,
    "truediv": lambda p, q, c, j: p / c,
    "call": lambda p, q, c, j: p(c),
    "coeff": lambda p, q, c, j: p.coeff(j),
    "lead": lambda p, q, c, j: p.lead,
    "derivative": lambda p, q, c, j: p.derivative(j),
    "shift_arg": lambda p, q, c, j: p.shift_arg(c),
    "coeffs": lambda p, q, c, j: p.coeffs,
}


@pytest.mark.parametrize("method", POLY_METHODS)
@given(a=raw_coeffs, b=raw_coeffs, c=operands, j=st.integers(-2, 9))
@settings(max_examples=100, deadline=None)
@example(a=[], b=[], c=0, j=0)
@example(a=[Fraction(3, 4), 0, "-5/6"], b=[], c=0, j=-1)
@example(a=[0, Fraction(-7, 2)], b=[0, Fraction(7, 2)], c=Fraction(0), j=3)
@example(a=[HUGE.lead, 1, 0, 0], b=["1/3"], c=Fraction(-(10**30) - 1, 7**20), j=1)
def test_polynomial_methods_match_fraction_tuple_bodies(method, a, b, c, j):
    fn = POLY_METHODS[method]
    got = settled(fn, Polynomial(a), Polynomial(b), c, j)
    assert got == settled(fn, RefPolynomial(a), RefPolynomial(b), c, j)


@pytest.mark.parametrize(
    "coeffs", [[Fraction(1, 2), "3/4", 5], [0.5], ["1/0"], ["one"], [None], [1, 2, 0, "0/7"]]
)
def test_polynomial_init_matches_fraction_tuple_body(coeffs):
    assert settled(Polynomial, coeffs) == settled(RefPolynomial, coeffs)


@given(raw_coeffs, raw_coeffs)
@settings(max_examples=300, deadline=None)
@example([], [0, "0/5"])
@example([Fraction(1, 6), Fraction(1, 10)], ["2/12", "3/30", 0])
@example([1, 2], [Fraction(1, 3), Fraction(2, 3)])  # equal numerators, other denominators
def test_integer_pair_is_canonical_and_decides_equality(a, b):
    p, q = Polynomial(a), Polynomial(b)
    # The same polynomial from other input forms: strings, and trailing zeros.
    same = Polynomial([fraction_to_str(as_fraction(c)) for c in a] + [0, "0/3"])
    for r in (p, q, same, p + q, p - p, p * q, -p, p.derivative(), p * Fraction(-2, 3)):
        assert_canonical(r)
        assert r._nums or r._den == 1
    assert same == p and hash(same) == hash(p) and same._nums == p._nums
    assert (p == q) == (p.coeffs == q.coeffs)
    if p == q:
        assert hash(p) == hash(q)


tiny_polys = st.lists(small, max_size=4).map(Polynomial)


def tiny_operators(kind):
    if kind is DifferenceOperator:
        return st.dictionaries(st.integers(-2, 2), tiny_polys, max_size=3).map(DifferenceOperator)
    return st.lists(tiny_polys, max_size=3).map(DifferentialOperator)


operator_kinds = st.sampled_from([DifferenceOperator, DifferentialOperator])


@given(operator_kinds.flatmap(tiny_operators), tiny_polys, tiny_polys)
@settings(max_examples=150, deadline=None)
@example(DifferenceOperator.forward_difference(), ZERO, CONST)
@example(DifferentialOperator.ddx(2, Polynomial((0, 1))), CONST, ZERO)
@example(DifferenceOperator(), Polynomial((1, 2, 3)), CONST)
@example(DifferentialOperator(), Polynomial((0, 0, 1)), ZERO)
def test_poly_of_op_matches_term_by_term_powers(op, p, q):
    # Two substitutions into one operator object: the second reuses its powers.
    for poly in (p, q, p * q):
        got = poly_of_op(poly, op)
        assert type(got) is type(op) and got == ref_poly_of_op(poly, op)
        for f in got.terms.values() if isinstance(got, DifferenceOperator) else got.terms:
            assert_canonical(f)


# -- one operator algebra: the merged operator kinds against the former classes ----------


def _former_opalg() -> SimpleNamespace:
    """The former two operator classes and the module functions over them,
    verbatim.  They live in this function so that their bodies' own names,
    and the names in their reprs and error messages, resolve to each other."""

    class DifferenceOperator:
        """Finite linear combination of shift operators with polynomial coefficients."""

        # _powers memoises this operator's powers for poly_of_op; not part of its value.
        __slots__ = ("_terms", "_powers")

        def __init__(self, terms: Mapping[int, Union[Polynomial, RatLike]] = ()):
            canon: dict[int, Polynomial] = {}
            items = terms.items() if isinstance(terms, Mapping) else terms
            for shift, coeff in items:
                p = _as_coeff_poly(coeff)
                if p.is_zero():
                    continue
                if shift in canon:
                    p = canon[shift] + p
                    if p.is_zero():
                        del canon[shift]
                        continue
                canon[int(shift)] = p
            self._terms = dict(sorted(canon.items()))
            self._powers: list[DifferenceOperator] = []

        @classmethod
        def shift(cls, offset: int, coeff: Union[Polynomial, RatLike] = 1) -> "DifferenceOperator":
            return cls({offset: _as_coeff_poly(coeff)})

        @classmethod
        def identity(cls) -> "DifferenceOperator":
            return cls.shift(0)

        @classmethod
        def forward_difference(cls) -> "DifferenceOperator":
            """Sh_1 - Sh_0."""
            return cls({1: Polynomial.one(), 0: Polynomial((-1,))})

        @classmethod
        def backward_difference(cls) -> "DifferenceOperator":
            """Sh_0 - Sh_{-1}."""
            return cls({0: Polynomial.one(), -1: Polynomial((-1,))})

        @property
        def terms(self) -> dict[int, Polynomial]:
            return dict(self._terms)

        def is_zero(self) -> bool:
            return not self._terms

        def coeff(self, shift: int) -> Polynomial:
            return self._terms.get(shift, Polynomial.zero())

        def genre(self) -> tuple[int, int]:
            if not self._terms:
                raise OperatorError("genre is undefined for the zero operator")
            shifts = self._terms.keys()
            return (min(shifts), max(shifts))

        def order(self) -> int:
            s, r = self.genre()
            return r - s

        def apply(self, p: Polynomial) -> Polynomial:
            q, den = p._ints()
            pairs = []
            for shift, f in self._terms.items():
                qs = list(q)
                if shift:
                    _taylor_shift(qs, shift)
                pairs.append((f._ints(), qs))
            return _sum_of_products(pairs, den)

        def compose(self, other: "DifferenceOperator") -> "DifferenceOperator":
            # f(x)Sh_a then g(x)Sh_b on the right: f(x)*g(x+a)*Sh_{a+b}.  The g
            # share one denominator, so each key's products sum in integers.
            gs, den = _common_ints(other._terms.values())
            by_key: dict[int, list] = {}
            for a, f in self._terms.items():
                fi = f._ints()
                for b, g in zip(other._terms, gs):
                    shifted = list(g)
                    if a:
                        _taylor_shift(shifted, a)
                    by_key.setdefault(a + b, []).append((fi, shifted))
            return DifferenceOperator(
                {key: _sum_of_products(pairs, den) for key, pairs in by_key.items()}
            )

        def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
            if not isinstance(other, DifferenceOperator):
                return NotImplemented
            acc = dict(self._terms)
            for shift, g in other._terms.items():
                acc[shift] = acc[shift] + g if shift in acc else g
            return DifferenceOperator(acc)

        def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
            return self + (-other)

        def __neg__(self) -> "DifferenceOperator":
            return DifferenceOperator({s: -f for s, f in self._terms.items()})

        def __mul__(self, scalar) -> "DifferenceOperator":
            c = as_fraction(scalar)
            return DifferenceOperator({s: f * c for s, f in self._terms.items()})

        __rmul__ = __mul__

        def __eq__(self, other) -> bool:
            if not isinstance(other, DifferenceOperator):
                return NotImplemented
            return self._terms == other._terms

        def __hash__(self):
            return hash(tuple(self._terms.items()))

        def __repr__(self) -> str:
            return f"DifferenceOperator({self._terms!r})"

        def __str__(self) -> str:
            if not self._terms:
                return "0"
            return " + ".join(f"({f})*S[{s}]" for s, f in self._terms.items())


    class DifferentialOperator:
        """Finite linear combination of d/dx powers with polynomial coefficients."""

        # _powers memoises this operator's powers for poly_of_op; not part of its value.
        __slots__ = ("_terms", "_powers")

        def __init__(self, coeffs: Iterable[Union[Polynomial, RatLike]] = ()):
            cs = [_as_coeff_poly(c) for c in coeffs]
            while cs and cs[-1].is_zero():
                cs.pop()
            self._terms = tuple(cs)
            self._powers: list[DifferentialOperator] = []

        @classmethod
        def identity(cls) -> "DifferentialOperator":
            return cls((Polynomial.one(),))

        @classmethod
        def ddx(cls, order: int = 1, coeff: Union[Polynomial, RatLike] = 1) -> "DifferentialOperator":
            return cls([Polynomial.zero()] * order + [_as_coeff_poly(coeff)])

        @property
        def terms(self) -> tuple[Polynomial, ...]:
            return self._terms

        def is_zero(self) -> bool:
            return not self._terms

        def coeff(self, order: int) -> Polynomial:
            if 0 <= order < len(self._terms):
                return self._terms[order]
            return Polynomial.zero()

        def order(self) -> int:
            if not self._terms:
                raise OperatorError("order is undefined for the zero operator")
            return len(self._terms) - 1

        def apply(self, p: Polynomial) -> Polynomial:
            d, den = p._ints()
            pairs = []
            for f in self._terms:
                if not d:
                    break
                if not f.is_zero():
                    pairs.append((f._ints(), d))
                d = [j * d[j] for j in range(1, len(d))]
            return _sum_of_products(pairs, den)

        def compose(self, other: "DifferentialOperator") -> "DifferentialOperator":
            # Leibniz: (d/dx)^i (g h) = sum_m C(i,m) g^(m) h^(i-m).  The g share
            # one denominator, so each order's products sum in integers.
            gs, den = _common_ints(other._terms)
            acc: list[list] = [[] for _ in range(len(self._terms) + len(gs))]
            for i, f in enumerate(self._terms):
                if f.is_zero():
                    continue
                fi = f._ints()
                for j, gm in enumerate(gs):
                    for m in range(i + 1):
                        if not gm:
                            break
                        acc[i + j - m].append((fi, [comb(i, m) * c for c in gm]))
                        gm = [e * gm[e] for e in range(1, len(gm))]
            return DifferentialOperator([_sum_of_products(pairs, den) for pairs in acc])

        def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
            if not isinstance(other, DifferentialOperator):
                return NotImplemented
            n = max(len(self._terms), len(other._terms))
            return DifferentialOperator([self.coeff(j) + other.coeff(j) for j in range(n)])

        def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
            return self + (-other)

        def __neg__(self) -> "DifferentialOperator":
            return DifferentialOperator([-f for f in self._terms])

        def __mul__(self, scalar) -> "DifferentialOperator":
            c = as_fraction(scalar)
            return DifferentialOperator([f * c for f in self._terms])

        __rmul__ = __mul__

        def __eq__(self, other) -> bool:
            if not isinstance(other, DifferentialOperator):
                return NotImplemented
            return self._terms == other._terms

        def __hash__(self):
            return hash(self._terms)

        def __repr__(self) -> str:
            return f"DifferentialOperator({list(self._terms)!r})"

        def __str__(self) -> str:
            if not self._terms:
                return "0"
            parts = []
            for j, f in enumerate(self._terms):
                if f.is_zero():
                    continue
                parts.append(f"({f})" if j == 0 else f"({f})*D^{j}")
            return " + ".join(parts)


    Operator = Union[DifferenceOperator, DifferentialOperator]


    def identity_like(op: Operator) -> Operator:
        if isinstance(op, DifferenceOperator):
            return DifferenceOperator.identity()
        return DifferentialOperator.identity()


    def _linear(pairs: list[tuple[Fraction, Operator]], like: Operator) -> Operator:
        """sum_i c_i * op_i for nonzero c_i and operators of the kind of ``like``.

        Each shift (or order) sums c_i times its coefficient of op_i on integer
        numerators, with one lcm and one reduction (``_sum_of_products``)."""
        kind = type(like)
        by_key: dict[int, list] = {}
        for c, op in pairs:
            if type(op) is not kind:
                raise TypeError(f"cannot combine {type(op).__name__} with {kind.__name__}")
            items = op._terms.items() if kind is DifferenceOperator else enumerate(op._terms)
            for key, f in items:
                if not f.is_zero():
                    nums, den = f._ints()
                    by_key.setdefault(key, []).append(((nums, den * c.denominator), [c.numerator]))
        sums = {key: _sum_of_products(terms, 1) for key, terms in by_key.items()}
        if kind is DifferenceOperator:
            return DifferenceOperator(sums)
        top = max(sums, default=-1)
        return DifferentialOperator([sums.get(j, Polynomial.zero()) for j in range(top + 1)])


    def _power(op: Operator, j: int) -> Operator:
        """op^j; each power is composed once per operator object and kept on it."""
        if j <= 1:
            return op if j else identity_like(op)
        powers = op._powers  # op^2, op^3, ...; op itself is not kept, so no cycle
        while len(powers) < j - 1:
            powers.append((powers[-1] if powers else op).compose(op))
        return powers[j - 2]


    def poly_of_op(p: Polynomial, op: Operator) -> Operator:
        """Substitute an operator into a polynomial: sum_j a_j * op^j, op^0 = identity."""
        return _linear([(c, _power(op, j)) for j, c in enumerate(p.coeffs) if c], op)


    # -- JSON round-trip -----------------------------------------------------------


    def operator_to_json(op: Operator) -> dict:
        if isinstance(op, DifferenceOperator):
            return {
                "kind": "difference",
                "terms": [
                    {"shift": s, "coeffs": f.to_json()} for s, f in sorted(op.terms.items())
                ],
            }
        return {
            "kind": "differential",
            "terms": [
                {"order": j, "coeffs": f.to_json()}
                for j, f in enumerate(op.terms)
                if not f.is_zero()
            ],
        }


    def operator_from_json(data: dict) -> Operator:
        kind = data.get("kind")
        if kind == "difference":
            return DifferenceOperator(
                {int(t["shift"]): Polynomial.from_json(t["coeffs"]) for t in data["terms"]}
            )
        if kind == "differential":
            if not data["terms"]:
                return DifferentialOperator()
            top = max(int(t["order"]) for t in data["terms"])
            coeffs = [Polynomial.zero()] * (top + 1)
            for t in data["terms"]:
                coeffs[int(t["order"])] = Polynomial.from_json(t["coeffs"])
            return DifferentialOperator(coeffs)
        raise ValueError(f"unknown operator kind: {kind!r}")

    return SimpleNamespace(
        DifferenceOperator=DifferenceOperator,
        DifferentialOperator=DifferentialOperator,
        poly_of_op=poly_of_op,
        operator_to_json=operator_to_json,
        operator_from_json=operator_from_json,
    )


ref_opalg = _former_opalg()
OPERATOR_KINDS = DIFFERENCE, DIFFERENTIAL = ("DifferenceOperator", "DifferentialOperator")


def as_poly(c) -> Polynomial:
    return c if isinstance(c, Polynomial) else Polynomial((c,))


# Coefficient inputs of every form the constructors take, zero among them.
coeff_inputs = st.one_of(tiny_polys, st.just(0), small, small.map(fraction_to_str))


@st.composite
def operator_inputs(draw, kind):
    """Constructor input of one kind: zero coefficients (interior and trailing
    orders among them) and, for shifts, like keys, some of which cancel."""
    if kind == DIFFERENTIAL:
        return draw(st.lists(coeff_inputs, max_size=5))
    pairs = draw(st.lists(st.tuples(st.integers(-3, 3), coeff_inputs), max_size=4))
    if pairs:
        cancel = draw(st.lists(st.sampled_from(pairs), max_size=2))
        pairs += [(s, -as_poly(c)) for s, c in cancel]
    return dict(pairs) if draw(st.booleans()) else pairs


@st.composite
def operand_pairs(draw):
    """(kind_a, input_a, kind_b, input_b).  Half the time b is a's terms times
    one sign, some dropped, so that a + b or a - b cancels terms."""
    kind_a = draw(st.sampled_from(OPERATOR_KINDS))
    a = draw(operator_inputs(kind_a))
    if draw(st.booleans()):
        kind_b = draw(st.sampled_from(OPERATOR_KINDS))
        return kind_a, a, kind_b, draw(operator_inputs(kind_b))
    sign = draw(st.sampled_from([1, -1]))
    items = list(a.items() if isinstance(a, dict) else a)
    keep = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    if kind_a == DIFFERENTIAL:
        return kind_a, a, kind_a, [as_poly(c) * sign if k else 0 for c, k in zip(items, keep)]
    return kind_a, a, kind_a, [(s, as_poly(c) * sign) for (s, c), k in zip(items, keep) if k]


def same_kind(a, b):
    return b if type(b) is type(a) else a


OPERATOR_METHODS = {
    "terms": lambda ns, a, b, c, j, p: a.terms,
    "coeff": lambda ns, a, b, c, j, p: a.coeff(j),
    "is_zero": lambda ns, a, b, c, j, p: a.is_zero(),
    "order": lambda ns, a, b, c, j, p: a.order(),
    "genre": lambda ns, a, b, c, j, p: a.genre(),
    "add": lambda ns, a, b, c, j, p: a + b,
    "sub": lambda ns, a, b, c, j, p: a - b,
    "neg": lambda ns, a, b, c, j, p: -a,
    "mul_scalar": lambda ns, a, b, c, j, p: a * c,
    "rmul_scalar": lambda ns, a, b, c, j, p: c * a,
    "eq": lambda ns, a, b, c, j, p: (a == b, a != b, a == a * 1),
    "hash_follows_eq": lambda ns, a, b, c, j, p: a != b or hash(a) == hash(b),
    "str": lambda ns, a, b, c, j, p: str(a),
    "repr": lambda ns, a, b, c, j, p: repr(a),
    "apply": lambda ns, a, b, c, j, p: a.apply(p),
    "compose": lambda ns, a, b, c, j, p: a.compose(same_kind(a, b)),
    "shift": lambda ns, a, b, c, j, p: ns.DifferenceOperator.shift(j, c),
    "ddx": lambda ns, a, b, c, j, p: ns.DifferentialOperator.ddx(max(j, 0), c),
    "to_json": lambda ns, a, b, c, j, p: ns.operator_to_json(a),
    "from_json": lambda ns, a, b, c, j, p: ns.operator_from_json(ns.operator_to_json(a)),
    "poly_of_op": lambda ns, a, b, c, j, p: ns.poly_of_op(p, a),
}


def plain(value):
    """value with polynomials as coefficient tuples and operators as their
    kind and terms; each operator of the merged kinds must be canonical."""
    if isinstance(value, Polynomial):
        assert_canonical(value)
        return "poly", value.coeffs
    if isinstance(value, (DifferenceOperator, DifferentialOperator)):
        assert list(value._terms) == sorted(value._terms)
        assert all(type(k) is int and not f.is_zero() for k, f in value._terms.items())
    if hasattr(value, "_terms"):
        return type(value).__name__, plain(value.terms)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(plain(v) for v in value)
    return value


def operator_outcome(ns, method, kind_a, a, kind_b, b, c, j, p):
    """The plain value of one method on operators of ``ns``, or the type and
    message of what it raises."""
    a, b = getattr(ns, kind_a)(a), getattr(ns, kind_b)(b)
    try:
        got = OPERATOR_METHODS[method](ns, a, b, c, j, p)
    except (ArithmeticError, AttributeError, KrallopsError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return plain(got)


# Scalars, bad ones among them: a float, a zero denominator and text.
scalar_operands = st.one_of(operands, st.sampled_from([None, 0.5, "1/0", "x"]))
INTERIOR_ZERO = [ZERO, 0, CONST, "0/4", Polynomial((0, Fraction(2, 3)))]


@pytest.mark.parametrize("method", OPERATOR_METHODS)
@given(operand_pairs(), scalar_operands, st.integers(-2, 6), tiny_polys)
@settings(max_examples=100, deadline=None)
@example((DIFFERENCE, {}, DIFFERENTIAL, []), 0, 0, ZERO)
@example((DIFFERENTIAL, INTERIOR_ZERO, DIFFERENTIAL, [0, 0, -CONST]), 2, 2, CONST)
@example((DIFFERENCE, [(1, CONST), (1, -CONST)], DIFFERENCE, {}), "1/3", 1, CONST)
@example((DIFFERENCE, {-2: CONST}, DIFFERENCE, [(-2, -CONST)]), None, -2, ZERO)
def test_operator_methods_match_former_classes(method, operands, c, j, p):
    got = operator_outcome(opalg, method, *operands, c, j, p)
    want = operator_outcome(ref_opalg, method, *operands, c, j, p)
    if method == "sub" and want[0] is TypeError:
        # The former classes subtracted as a + (-b), so their refusal named "+".
        want = (TypeError, want[1].replace("for +:", "for -:"))
    assert got == want


# -- plain-data constructions and the catalog table against the former code -----------


def _former_krall() -> SimpleNamespace:
    """The former catalog ``if`` chain, ``KrallConstruction`` with its closures,
    both engines, ``negated_frame`` and the point-mass recipe's ``build``,
    verbatim.  They live in this function so that their bodies' own names
    resolve to each other."""

    def catalog(family: Family) -> list[DOperator]:
        """All lowering operators this package knows for the given family."""
        if isinstance(family, Charlier):
            return [
                DOperator(
                    kind="type1",
                    family=family,
                    label="charlier-D1",
                    eps=lambda n: Fraction(1),
                    closed_form=DifferenceOperator.backward_difference(),
                )
            ]
        if isinstance(family, Meixner):
            a = family.a
            delta = DifferenceOperator.forward_difference()
            nabla = DifferenceOperator.backward_difference()
            return [
                DOperator(
                    kind="type1",
                    family=family,
                    label="meixner-D1",
                    eps=lambda n: Fraction(-1),
                    closed_form=delta * (a / (1 - a)),
                ),
                DOperator(
                    kind="type1",
                    family=family,
                    label="meixner-D2",
                    eps=lambda n: -1 / a,
                    closed_form=nabla * (1 / (1 - a)),
                ),
            ]
        if isinstance(family, Krawtchouk):
            a = family.a
            delta = DifferenceOperator.forward_difference()
            nabla = DifferenceOperator.backward_difference()
            return [
                DOperator(
                    kind="type1",
                    family=family,
                    label="krawtchouk-D1",
                    eps=lambda n: 1 / (1 + a),
                    closed_form=nabla * (1 / (1 + a)),
                ),
                DOperator(
                    kind="type1",
                    family=family,
                    label="krawtchouk-D2",
                    eps=lambda n: -a / (1 + a),
                    closed_form=delta * (-a / (1 + a)),
                ),
            ]
        if isinstance(family, Hahn):
            al, c, N = family.alpha, family.c, family.N
            half = (al + c - N) / 2

            def denom(n: int) -> Fraction:
                d = (2 * n + al + c - N - 1) * (2 * n + al + c - N - 2)
                if d == 0:
                    raise DegeneracyError(
                        f"Hahn lowering sequence degenerate at n={n}:"
                        " (2n+alpha+c-N-1)(2n+alpha+c-N-2) = 0"
                    )
                return d

            delta = DifferenceOperator.forward_difference()
            nabla = DifferenceOperator.backward_difference()
            ident = DifferenceOperator.identity()
            x = Polynomial.x()
            d1 = DifferenceOperator({0: Polynomial((N - 1, -1))}).compose(delta) - ident * half
            d2 = DifferenceOperator({0: Polynomial((-al, 1))}).compose(nabla) + ident * half
            d3 = DifferenceOperator({0: x}).compose(nabla) + ident * half
            d4 = DifferenceOperator({0: Polynomial((-c, -1))}).compose(delta) - ident * half
            sig = family.sigma
            return [
                DOperator(
                    kind="type2",
                    family=family,
                    label="hahn-D1",
                    eps=lambda n: n * (N - n) * (n + al - N) / denom(n),
                    sigma=lambda n: sig(n),
                    closed_form=d1,
                ),
                DOperator(
                    kind="type2",
                    family=family,
                    label="hahn-D2",
                    eps=lambda n: n * (n + al - N) * (n + al + c - 1) / denom(n),
                    sigma=lambda n: -sig(n),
                    closed_form=d2,
                ),
                DOperator(
                    kind="type2",
                    family=family,
                    label="hahn-D3",
                    eps=lambda n: -n * (N - n) * (n + c - 1) / denom(n),
                    sigma=lambda n: -sig(n),
                    closed_form=d3,
                ),
                DOperator(
                    kind="type2",
                    family=family,
                    label="hahn-D4",
                    eps=lambda n: -n * (n + c - 1) * (n + al + c - 1) / denom(n),
                    sigma=lambda n: sig(n),
                    closed_form=d4,
                ),
            ]
        if isinstance(family, Laguerre):
            return [
                DOperator(
                    kind="type1",
                    family=family,
                    label="laguerre-D1",
                    eps=lambda n: Fraction(-1),
                    closed_form=DifferentialOperator.ddx(),
                )
            ]
        if isinstance(family, Jacobi):
            al, be = family.alpha, family.beta
            half = (al + be + 1) / 2

            def eps1(n: int) -> Fraction:
                d = n + al + be
                if d == 0:
                    raise DegeneracyError(f"Jacobi lowering sequence degenerate: n+alpha+beta = 0 at n={n}")
                return (n + al) / d

            def eps2(n: int) -> Fraction:
                d = n + al + be
                if d == 0:
                    raise DegeneracyError(f"Jacobi lowering sequence degenerate: n+alpha+beta = 0 at n={n}")
                return -(n + be) / d

            sig = family.sigma
            d1 = DifferentialOperator((Polynomial((-half,)), Polynomial((1, -1))))
            d2 = DifferentialOperator((Polynomial((half,)), Polynomial((1, 1))))
            return [
                DOperator(
                    kind="type2",
                    family=family,
                    label="jacobi-D1",
                    eps=eps1,
                    sigma=lambda n: sig(n),
                    closed_form=d1,
                ),
                DOperator(
                    kind="type2",
                    family=family,
                    label="jacobi-D2",
                    eps=eps2,
                    sigma=lambda n: -sig(n),
                    closed_form=d2,
                ),
            ]
        raise ValueError(f"no lowering-operator catalog for {family!r}")


    @dataclass
    class KrallConstruction:
        """A constructed eigen-sequence with (optionally) its operator."""

        family: Family
        kind: str  # "type1", "type2", or "orthogonality-only"
        label: str
        nmax: int
        gamma_fn: Callable[[int], Fraction]
        eps_fn: Callable[[int], Fraction]
        p1: Optional[Polynomial] = None
        p2: Optional[Polynomial] = None
        operator: Optional[Operator] = None
        eigval_fn: Optional[Callable[[int], Fraction]] = None
        dop: Optional[DOperator] = None
        seed_degree: Optional[int] = None
        # q_n by n, built once: a frame that shares gamma_fn and eps_fn shares it.
        q_cache: dict[int, Polynomial] = field(default_factory=dict, compare=False, repr=False)
        # gamma_1..gamma_{nmax+1} as the nonzero check computed them; shared likewise.
        gammas: list[Fraction] = field(default_factory=list, compare=False, repr=False)

        def gamma(self, n: int) -> Fraction:
            check_at_least("n", n, 1)
            return _gamma_at(self.gammas, self.gamma_fn, n)

        def beta(self, n: int) -> Fraction:
            g = self.gamma(n)
            if g == 0:
                raise HypothesisError(
                    f"{self.label}: gamma_{n} = 0, construction hypothesis fails", index=n
                )
            return self.eps_fn(n) * self.gamma(n + 1) / g

        def eigval(self, n: int) -> Fraction:
            check_at_least("n", n, 0)
            if self.eigval_fn is None:
                raise ConstructionError(f"{self.label} carries no operator eigenvalues")
            return self.eigval_fn(n)

        def q(self, n: int) -> Polynomial:
            qn = self.q_cache.get(n)
            if qn is None:
                qn = self.family.polynomial(n)
                if n:
                    qn = qn + self.family.polynomial(n - 1) * self.beta(n)
                self.q_cache[n] = qn
            return qn

        def q_sequence(self, nmax: int) -> list[Polynomial]:
            return [self.q(n) for n in range(nmax + 1)]


    def _check_gamma_nonzero(label: str, gamma_fn, nmax: int) -> list[Fraction]:
        """gamma_1..gamma_{nmax+1}, each computed once; raises at the first zero."""
        gammas = []
        for n in range(1, nmax + 2):
            g = gamma_fn(n)
            if g == 0:
                raise HypothesisError(
                    f"{label}: gamma_{n} = 0, construction hypothesis fails", index=n
                )
            gammas.append(g)
        return gammas


    def _gamma_at(gammas: list[Fraction], gamma_fn, n: int) -> Fraction:
        """gamma_n (n >= 1) from the values the nonzero check kept, else from gamma_fn."""
        return gammas[n - 1] if n <= len(gammas) else gamma_fn(n)


    def construct_type1(
        family: Family,
        dop: DOperator,
        p2: Polynomial,
        nmax: int,
        p1: Optional[Polynomial] = None,
        label: str = "type1",
    ) -> KrallConstruction:
        """First-kind construction; theta_n must be affine in n.

        When p1 is supplied (the ready-made theorems fix their own constant
        terms) it must satisfy p1(x+step) - p1(x) = p2(x); otherwise the
        antidifference with zero constant term is used.
        """
        if dop.kind != "type1":
            raise ConstructionError("construct_type1 needs a first-kind lowering operator")
        if p2.is_zero():
            raise ConstructionError("seed polynomial must be nonzero")
        theta = family.eigenvalue
        step = theta(1) - theta(0)
        if theta(2) - theta(1) != step or step == 0:
            raise ConstructionError(
                "first-kind construction needs eigenvalues affine in n;"
                f" got increments {theta(1) - theta(0)} then {theta(2) - theta(1)}"
            )
        if p1 is None:
            p1 = antidifference(p2, step)
        elif p1.shift_arg(step) - p1 != p2:
            raise ConstructionError("supplied companion does not difference to the seed")

        def gamma_fn(n: int) -> Fraction:
            return p2(theta(n - 1))

        gammas = _check_gamma_nonzero(label, gamma_fn, nmax)

        dp = family.second_order_op()
        operator = poly_of_op(p1, dp) + dop.closed_form.compose(poly_of_op(p2, dp))
        return KrallConstruction(
            family=family,
            kind="type1",
            label=label,
            nmax=nmax,
            gamma_fn=gamma_fn,
            eps_fn=dop.eps,
            p1=p1,
            p2=p2,
            operator=operator,
            eigval_fn=lambda n: p1(theta(n)),
            dop=dop,
            seed_degree=p2.degree,
            gammas=gammas,
        )


    def construct_type2(
        family: Family,
        dop: DOperator,
        weights: Sequence[RatLike],
        nmax: int,
        label: str = "type2",
    ) -> KrallConstruction:
        """Second-kind construction from a weight vector in the r_j basis."""
        if dop.kind != "type2":
            raise ConstructionError("construct_type2 needs a second-kind lowering operator")
        if not isinstance(family, (Hahn, Jacobi)):
            raise ConstructionError("second-kind construction applies to Hahn and Jacobi")
        w = [as_fraction(v) for v in weights]
        while w and w[-1] == 0:
            w.pop()
        k = len(w) - 1
        if k < 1:
            raise ConstructionError("second-kind construction needs seed degree k >= 1")

        # The catalog sigma is +/- the family sigma; fix the sign from n = 1, 2.
        sign = None
        for n in (1, 2):
            fam_sig = family.sigma(n)
            if fam_sig != 0:
                ratio = dop.sigma(n) / fam_sig
                if sign is None:
                    sign = ratio
                elif sign != ratio:
                    raise ConstructionError("lowering operator sigma is not +/- family sigma")
        if sign not in (1, -1):
            raise ConstructionError("lowering operator sigma is not +/- family sigma")

        p2 = Polynomial.zero()
        for j, wj in enumerate(w):
            p2 = p2 + family.r_basis(j) * wj
        p1 = type2_companion(family, w) * sign

        theta = family.eigenvalue

        def gamma_fn(n: int) -> Fraction:
            return p2(theta(n - 1))

        gammas = _check_gamma_nonzero(label, gamma_fn, nmax)

        def eigval_fn(n: int) -> Fraction:
            if n == 0:  # p2(theta_0) = gamma_1
                return (p1(theta(0)) - dop.sigma(1) * _gamma_at(gammas, gamma_fn, 1)) / 2
            return (dop.sigma(n) * _gamma_at(gammas, gamma_fn, n) + p1(theta(n - 1))) / 2

        dp = family.second_order_op()
        operator = poly_of_op(p1, dp) * Fraction(1, 2) + dop.closed_form.compose(
            poly_of_op(p2, dp)
        )
        return KrallConstruction(
            family=family,
            kind="type2",
            label=label,
            nmax=nmax,
            gamma_fn=gamma_fn,
            eps_fn=dop.eps,
            p1=p1,
            p2=p2,
            operator=operator,
            eigval_fn=eigval_fn,
            dop=dop,
            seed_degree=k,
            gammas=gammas,
        )


    def negated_frame(kc: KrallConstruction) -> KrallConstruction:
        """Flip (P1, lambda, D_q) -> (-P1, -lambda, -D_q); same q_n, same eigen-identity."""
        return KrallConstruction(
            family=kc.family,
            kind=kc.kind,
            label=kc.label,
            nmax=kc.nmax,
            gamma_fn=kc.gamma_fn,
            eps_fn=kc.eps_fn,
            p1=-kc.p1 if kc.p1 is not None else None,
            p2=kc.p2,
            operator=-kc.operator if kc.operator is not None else None,
            eigval_fn=(lambda n, f=kc.eigval_fn: -f(n)) if kc.eigval_fn else None,
            dop=kc.dop,
            seed_degree=kc.seed_degree,
            q_cache=kc.q_cache,
            gammas=kc.gammas,
        )


    def point_mass_build(self, kind: str, values: dict, params: dict, k: int, nmax: int):
        degree = values[self.degree_param]
        if "mass" in params:
            mass = as_fraction(params["mass"])
        else:
            if degree.denominator != 1 or degree < 0:
                raise ConstructionError(
                    f"raw mass needs integer {self.degree_param}; supply mass in"
                    " anchor units"
                )
            mass = as_fraction(params["mass_raw"]) * self.mass_factor(**values)
        fam = self.family(**values)
        functional = self.functional(**values, mass_ratio=mass)

        def gamma_fn(n: int) -> Fraction:
            return 1 + mass * self.gamma_ratio(**values, n=n)

        label = _label(kind, values, f"mass={mass}")
        dop = catalog(fam)[0]
        notes = []
        if degree.denominator == 1 and degree >= 1:
            raw = mass / self.mass_factor(**values)
            kc = self.operator(fam, dop, int(degree), raw, nmax, label)
            if kc.gamma(1) != gamma_fn(1) or kc.gamma(3) != gamma_fn(3):
                raise ConstructionError(f"{kind} mass reparameterization mismatch")
        else:
            kc = KrallConstruction(
                family=fam,
                kind="orthogonality-only",
                label=label,
                nmax=nmax,
                gamma_fn=gamma_fn,
                eps_fn=dop.eps,
                gammas=_check_gamma_nonzero(kind, gamma_fn, nmax),
            )
            notes.append(
                f"{self.degree_param} is not a positive integer: no finite-order"
                " operator exists, so only the orthogonal sequence is built"
            )
        return NamedConstruction(kc, functional, notes)

    return SimpleNamespace(
        catalog=catalog,
        KrallConstruction=KrallConstruction,
        construct_type1=construct_type1,
        construct_type2=construct_type2,
        negated_frame=negated_frame,
        point_mass_build=point_mass_build,
    )


ref_krall = _former_krall()


@contextmanager
def former_named():
    """``krall.named`` on the former path: its recipes call the former engines,
    frame and catalog, and the point-mass recipe builds as it did."""
    names = ("catalog", "construct_type1", "construct_type2", "negated_frame")
    saved = {name: getattr(krall, name) for name in names}
    build = krall._PointMassRecipe.build
    for name in names:
        setattr(krall, name, getattr(ref_krall, name))
    krall._PointMassRecipe.build = ref_krall.point_mass_build
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(krall, name, value)
        krall._PointMassRecipe.build = build


def attempt(fn, *args):
    """fn(*args), or the type, message and index of what it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, KrallopsError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def construction_values(kc, extra: int = 2) -> dict:
    """Everything a construction gives, two indices past its nmax + 1 included."""
    top = kc.nmax + extra
    return {
        "head": (kc.family, kc.kind, kc.label, kc.nmax, kc.seed_degree),
        "p1": kc.p1,
        "p2": kc.p2,
        "operator": kc.operator,
        # An orthogonality-only construction now keeps the operator whose eps_n
        # beta reads; it kept none before.  Its eps_n show in beta.
        "dop": None if kc.operator is None else (kc.dop.kind, kc.dop.label, kc.dop.closed_form),
        "gamma": [attempt(kc.gamma, n) for n in range(top + 1)],
        "beta": [attempt(kc.beta, n) for n in range(1, top)],
        "eigval": [attempt(kc.eigval, n) for n in range(-1, top)],
        "q": [attempt(kc.q, n) for n in range(top)],
    }


def construction_outcome(ns, build):
    """The values of build(ns) and of its negated frame, or what build raises."""
    kc = attempt(build, ns)
    if not hasattr(kc, "gamma"):
        return kc
    return construction_values(kc), construction_values(ns.negated_frame(kc))


def assert_same_construction(build):
    got = construction_outcome(krall, build)
    if got != construction_outcome(ref_krall, build):
        pytest.fail("the construction differs from the former code", pytrace=False)
    return got


@st.composite
def any_family(draw):
    cls = draw(st.sampled_from([Charlier, Meixner, Krawtchouk, Hahn, Laguerre, Jacobi]))
    try:
        return cls(*[draw(tiny) for _ in fields(cls)])
    except DegeneracyError:
        assume(False)


def catalog_values(catalog, fam) -> list:
    entries = attempt(catalog, fam)
    if not isinstance(entries, list):
        return entries
    return [
        (
            d.kind,
            d.family,
            d.label,
            d.closed_form,
            [attempt(d.eps, n) for n in range(9)],
            None if d.sigma is None else [attempt(d.sigma, n) for n in range(9)],
        )
        for d in entries
    ]


# Families where eps_n divides by zero: Hahn with alpha + c - N = 0 or a
# negative integer, and Jacobi with alpha + beta = 0; and an object with no catalog.
DEGENERATE_CATALOG_INPUTS = [
    Hahn(Fraction(1), Fraction(3), Fraction(4)),
    unchecked_hahn(Fraction(1, 2), Fraction(3, 2), Fraction(7)),
    Jacobi(Fraction(1, 2), Fraction(-1, 2)),
    Jacobi(Fraction(-1, 3), Fraction(1, 3)),
    Polynomial.x(),
]


@pytest.mark.parametrize("fam", DEGENERATE_CATALOG_INPUTS, ids=repr)
def test_catalog_table_matches_former_chain_where_sequences_degenerate(fam):
    got = catalog_values(dops.catalog, fam)
    assert got == catalog_values(ref_krall.catalog, fam)


@given(any_family())
@settings(max_examples=200, deadline=None)
def test_catalog_table_matches_former_chain(fam):
    assert catalog_values(dops.catalog, fam) == catalog_values(ref_krall.catalog, fam)


# (kind, params, k): every named kind, the orthogonality-only point masses and
# masses that make gamma_1 or gamma_2 vanish among them.
NAMED_SETS = [
    ("charlier", {"a": Fraction(2, 3)}, 2),
    ("charlier", {"a": 1}, 0),
    ("meixner1", {"a": Fraction(-1, 7), "c": Fraction(9, 2)}, 2),
    ("meixner2", {"a": Fraction(-2, 7), "c": Fraction(11, 2)}, 1),
    ("krawtchouk", {"a": Fraction(-1, 5), "N": Fraction(3, 2)}, 2),
    ("hahn1", {"alpha": Fraction(7, 3), "c": Fraction(5, 2), "N": Fraction(1, 3)}, 1),
    ("hahn2", {"alpha": Fraction(7, 3), "c": Fraction(5, 2), "N": Fraction(1, 3)}, 2),
    ("laguerre", {"alpha": 2, "mass": 1}, 0),
    ("laguerre", {"alpha": 3, "mass_raw": Fraction(5, 18)}, 0),
    ("laguerre", {"alpha": Fraction(1, 3), "mass": Fraction(3, 4)}, 0),
    ("laguerre", {"alpha": Fraction(1, 3), "mass": Fraction(-3, 4)}, 0),
    ("laguerre", {"alpha": 2, "mass": -1}, 0),
    ("jacobi", {"alpha": Fraction(1, 2), "beta": 2, "mass": 1}, 0),
    ("jacobi", {"alpha": 1, "beta": 2, "mass_raw": 1}, 0),
    ("jacobi", {"alpha": Fraction(1, 3), "beta": Fraction(1, 2), "mass": Fraction(3, 4)}, 0),
    ("jacobi", {"alpha": Fraction(1, 3), "beta": Fraction(1, 2), "mass": -1}, 0),
]


def named_outcome(kind, params, k, nmax, ns):
    def build(_):
        return krall.named(kind, params, k, nmax).construction

    if ns is krall:
        return construction_outcome(krall, build)
    with former_named():
        return construction_outcome(ref_krall, build)


@pytest.mark.parametrize("nmax", [0, 1, 6])
@pytest.mark.parametrize("kind, params, k", NAMED_SETS)
def test_named_constructions_match_former_path(kind, params, k, nmax):
    got = named_outcome(kind, params, k, nmax, krall)
    want = named_outcome(kind, params, k, nmax, ref_krall)
    if isinstance(want, tuple) and want[0] is HypothesisError and want[1].startswith(f"{kind}:"):
        # The orthogonality-only gamma check named the kind; it now names the label.
        label = got[1].split(": ")[0]
        assert label.startswith(f"{kind}(") and label.endswith(")")
        want = (want[0], label + want[1][len(kind):], want[2])
    assert got == want


type1_families = st.one_of(
    st.builds(Charlier, tiny.filter(bool)),
    st.builds(Meixner, tiny.filter(lambda a: a not in (0, 1)), tiny),
    st.builds(Krawtchouk, tiny.filter(lambda a: a not in (0, -1)), tiny),
    st.builds(Laguerre, tiny),
)


@given(
    st.one_of(type1_families, any_family()),
    st.integers(0, 3),
    tiny_polys,
    st.sampled_from(["antidifference", "none", "shifted", "wrong"]),
    st.integers(-1, 5),
)
@settings(max_examples=200, deadline=None)
@example(Charlier(Fraction(1)), 0, Polynomial((-1, 1)), "none", 3)  # gamma_2 = 0
@example(Laguerre(Fraction(1)), 0, ZERO, "none", 2)
def test_type1_constructions_match_former_engine(fam, index, p2, companion, nmax):
    def build(ns):
        dop = ns.catalog(fam)[index % len(ns.catalog(fam))]
        p1 = None
        if companion != "none" and not p2.is_zero():
            theta = fam.eigenvalue
            p1 = antidifference(p2, theta(1) - theta(0) or 1)
            p1 = {"antidifference": p1, "shifted": p1 + 3, "wrong": p1 * 2}[companion]
        return ns.construct_type1(fam, dop, p2, nmax, p1=p1, label="random")

    assert_same_construction(build)


@given(
    st.one_of(any_family().filter(lambda f: isinstance(f, (Hahn, Jacobi))), any_family()),
    st.integers(0, 3),
    st.lists(tiny, max_size=5),
    st.integers(-1, 5),
)
@settings(max_examples=200, deadline=None)
@example(Hahn(Fraction(7, 3), Fraction(5, 2), Fraction(1, 3)), 1, [1, 2, Fraction(1, 3)], 4)
@example(Jacobi(Fraction(1, 2), Fraction(2)), 0, [3, Fraction(1, 2), 0, 1, 0], 4)
@example(Jacobi(Fraction(1, 2), Fraction(2)), 1, [2], 4)
def test_type2_constructions_match_former_engine(fam, index, weights, nmax):
    def build(ns):
        dop = ns.catalog(fam)[index % len(ns.catalog(fam))]
        return ns.construct_type2(fam, dop, weights, nmax, label="random")

    assert_same_construction(build)


# -- one graded-basis loop: the former peel loops -----------------------------------------


def ref_antidifference(target: Polynomial, step: RatLike) -> Polynomial:
    """Solve P(x + step) - P(x) = target for the P with zero constant term.

    The solution is unique once the constant term is pinned: matching
    leading coefficients determines the top coefficient of P, and the
    remainder recurses downward.  Raises ValueError for step = 0.
    """
    d = as_fraction(step)
    if d == 0:
        raise ValueError("antidifference requires a nonzero step")
    residual = target
    out = Polynomial.zero()
    while not residual.is_zero():
        m = residual.degree
        k = m + 1
        c = residual.lead / (k * d)
        term = Polynomial.monomial(k, c)
        out = out + term
        residual = residual - (term.shift_arg(d) - term)
    return out


def ref_occ_weights(p2: Polynomial) -> tuple[int, list[Fraction]]:
    """Expand P2(-x) in the shifted binomial basis C(x+j, j).

    When P2(1) != 0 the normalized form is
        P2(-x)/P2(1) = 1 + sum_{j=1}^k w_j C(x+j, j)
    and the returned start index is 1.  When P2(1) = 0 the expansion is
        P2(-x) = sum_{j=1}^k w_j C(x+j, j),   w_0 = -1 kept for bookkeeping,
    and the start index is 0.  Weights are indexed w[j] for j = 0..k.
    """
    k = 0 if p2.is_zero() else p2.degree
    at_one = p2(Fraction(1))
    if at_one != 0:
        g = p2(Polynomial((0, -1))) / at_one - Polynomial.one()
        start = 1
    else:
        g = p2(Polynomial((0, -1)))
        start = 0
    weights = [Fraction(0)] * (k + 1)
    if start == 0:
        weights[0] = Fraction(-1)
    # Triangular: C(x+j, j) = (x+1)...(x+j)/j! has degree j, lead 1/j!.
    residual = g
    for j in range(k, 0, -1):
        c = residual.coeff(j) * factorial(j)
        weights[j] = c
        if c:
            basis = binom_poly(j).shift_arg(j)
            residual = residual - basis * c
    if not residual.is_zero():
        raise DegeneracyError("binomial-basis expansion left a nonzero remainder")
    return start, weights


def typed(value):
    """value with the type of each number, so that 0 and Fraction(0) differ."""
    if isinstance(value, (list, tuple)):
        return type(value)(typed(v) for v in value)
    if isinstance(value, Polynomial):
        return "poly", value.coeffs
    return type(value), value


@given(polys, st.one_of(st.just(0), offsets))
@settings(max_examples=300, deadline=None)
@example(ZERO, 1)
@example(CONST, 0)
@example(HUGE, Fraction(-5, 3))
def test_antidifference_matches_former_peel_loop(target, step):
    assert typed(attempt(antidifference, target, step)) == typed(
        attempt(ref_antidifference, target, step)
    )


@given(st.one_of(polys, st.lists(tiny, max_size=6).map(Polynomial)))
@settings(max_examples=300, deadline=None)
@example(ZERO)
@example(CONST)
@example(Polynomial((-1, 1)))  # P2(1) = 0
@example(Polynomial((2, -3, 1)))  # P2(1) = 0, degree 2
def test_occ_weights_match_former_peel_loop(p2):
    assert typed(attempt(moments.occ_weights, p2)) == typed(attempt(ref_occ_weights, p2))
