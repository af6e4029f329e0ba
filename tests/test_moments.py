"""Moment functionals: oracle moments, transforms, orthogonality, bilinear forms."""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from krallops import moments
from krallops.dops import catalog
from krallops.errors import (
    DegeneracyError,
    HypothesisError,
    NoOrthogonalPolynomialsError,
)
from krallops.families import Charlier, Hahn, Jacobi, Krawtchouk, Laguerre, Meixner
from krallops.krall import construct_type1, named
from krallops.moments import (
    IP_LEMMA_KINDS,
    AddDeltaScaled,
    ChristoffelBy,
    MomentFunctional,
    ShiftBy,
    base_pairing,
    casorati_check,
    charlier_transformed,
    gram_check,
    hankel_det,
    ip_lemma_check,
    jacobi_transformed,
    laguerre_transformed,
    measure_from_json,
    measure_to_json,
    moment,
    occ_form,
    occ_q_poly,
    occ_weights,
    orthoseq,
    pairing,
)
from krallops.polyops import Polynomial, pochhammer

F = Fraction
X = Polynomial((0, 1))


def falling(j: int) -> Polynomial:
    """x(x-1)...(x-j+1), the j-th falling factorial."""
    return Polynomial.from_roots(list(range(j))) if j else Polynomial.one()


@lru_cache(maxsize=None)
def stirling2(j: int, m: int) -> int:
    if m == 0:
        return 1 if j == 0 else 0
    if m > j:
        return 0
    return m * stirling2(j - 1, m) + stirling2(j - 1, m - 1)


# -- base functionals against independent moment formulas ---------------------------


@pytest.mark.parametrize("a", [F(1), F(1, 2), F(3)])
def test_charlier_moments_are_touchard_values(a):
    fam = Charlier(a)
    for j in range(9):
        want = sum(stirling2(j, m) * a**m for m in range(j + 1))
        assert base_pairing(fam, Polynomial.monomial(j)) == want


@pytest.mark.parametrize(
    "a, c", [(F(1, 3), F(5, 2)), (F(1, 2), F(3)), (F(2, 5), F(7, 3))]
)
def test_meixner_factorial_moments(a, c):
    fam = Meixner(a, c)
    for j in range(9):
        assert base_pairing(fam, falling(j)) == pochhammer(c, j) * (a / (1 - a)) ** j


@pytest.mark.parametrize(
    "a, n", [(F(1, 2), F(15, 2)), (F(2), F(9)), (F(3, 4), F(13, 3))]
)
def test_krawtchouk_factorial_moments(a, n):
    fam = Krawtchouk(a, n)
    for j in range(9):
        assert base_pairing(fam, falling(j)) == pochhammer(n - j, j) * (a / (1 + a)) ** j


@pytest.mark.parametrize("a, n", [(F(1, 2), 8), (F(3), 5)])
def test_krawtchouk_integer_size_matches_finite_sum(a, n):
    fam = Krawtchouk(a, F(n))
    total = (1 + a) ** (n - 1)
    for j in range(7):
        p = Polynomial.monomial(j)
        want = sum(comb(n - 1, x) * a**x * p(F(x)) for x in range(n)) / total
        assert base_pairing(fam, p) == want


@pytest.mark.parametrize("al, c, n", [(F(9, 2), F(7, 2), 5), (F(7, 3), F(5, 2), 6)])
def test_hahn_integer_size_matches_finite_sum(al, c, n):
    fam = Hahn(al, c, F(n))
    den = pochhammer(al + c + 1 - n, n - 1)
    weights = [
        comb(n - 1, x) * pochhammer(c, x) * pochhammer(al + 1 - n, n - 1 - x) / den
        for x in range(n)
    ]
    assert sum(weights) == 1
    for j in range(7):
        p = Polynomial.monomial(j)
        assert base_pairing(fam, p) == sum(w * p(F(x)) for x, w in enumerate(weights))


@pytest.mark.parametrize("al", [F(1, 2), F(2), F(7, 3)])
def test_laguerre_moments_are_rising_factorials(al):
    fam = Laguerre(al)
    for j in range(9):
        assert base_pairing(fam, Polynomial.monomial(j)) == pochhammer(al + 1, j)


@pytest.mark.parametrize("al, be", [(F(1, 2), F(2)), (F(2), F(1, 3)), (F(1), F(1))])
def test_jacobi_moments_via_beta_distribution(al, be):
    # x = 2t - 1 sends the weight to a Beta(be+1, al+1) law on [0, 1].
    fam = Jacobi(al, be)
    for j in range(9):
        want = sum(
            comb(j, i) * F(2) ** i * (-1) ** (j - i)
            * pochhammer(be + 1, i) / pochhammer(al + be + 2, i)
            for i in range(j + 1)
        )
        assert base_pairing(fam, Polynomial.monomial(j)) == want


# -- numeric spot checks -------------------------------------------------------------


def _as_mp(fr):
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def _poly_mp(p, x):
    return mp.fsum(_as_mp(c) * x**j for j, c in enumerate(p.coeffs))


def test_charlier_pairing_matches_weight_series():
    mp.mp.dps = 50
    tol = mp.mpf(10) ** -30
    for a in (F(1), F(1, 2)):
        fam = Charlier(a)
        for p in (Polynomial((2, 0, 0, 1)), X):
            series = mp.fsum(
                _as_mp(a) ** y / mp.factorial(y) * _poly_mp(p, mp.mpf(y))
                for y in range(220)
            )
            got = _as_mp(base_pairing(fam, p))
            assert abs(got - mp.e ** -_as_mp(a) * series) < tol


def test_transformed_charlier_grows_a_point_mass():
    # The shifted, window-multiplied functional concentrates extra mass
    # (-1)^k k! at -k-1; the test fails if that atom is left out.
    mp.mp.dps = 50
    tol = mp.mpf(10) ** -30
    for a, k in ((F(1), 2), (F(1, 2), 3)):
        func = charlier_transformed(a, k)
        am = _as_mp(a)
        for p in (Polynomial.one(), Polynomial((2, 0, 0, 1))):
            series = mp.fsum(
                am ** (z + k + 1) / ((z + k + 1) * mp.factorial(z))
                * _poly_mp(p, mp.mpf(z))
                for z in range(220)
            )
            atom = (-1) ** k * mp.factorial(k) * _poly_mp(p, mp.mpf(-k - 1))
            got = _as_mp(pairing(func, p)) * mp.e**am
            assert abs(got - (series + atom)) < tol
            if p(F(-k - 1)) != 0:
                assert abs(got - series) > mp.mpf(10) ** -5


def test_meixner_pairing_matches_weight_series():
    mp.mp.dps = 50
    a, c = F(1, 3), F(5, 2)
    fam = Meixner(a, c)
    for p in (Polynomial((1, 2, 3)), Polynomial.monomial(4)):
        series = mp.fsum(
            mp.rf(_as_mp(c), x) * _as_mp(a) ** x / mp.factorial(x)
            * _poly_mp(p, mp.mpf(x))
            for x in range(300)
        )
        got = _as_mp(base_pairing(fam, p))
        assert abs(got - (1 - _as_mp(a)) ** _as_mp(c) * series) < mp.mpf(10) ** -30


def test_continuous_pairings_match_quadrature():
    mp.mp.dps = 50
    tol = mp.mpf(10) ** -30
    al = F(1, 2)
    for p in (Polynomial((1, 1, 1)), Polynomial.monomial(3)):
        quad = mp.quad(
            lambda x: x ** _as_mp(al) * mp.e**-x * _poly_mp(p, x), [0, mp.inf]
        )
        got = _as_mp(base_pairing(Laguerre(al), p))
        assert abs(got - quad / mp.gamma(_as_mp(al) + 1)) < tol

    al, be = F(1, 2), F(2)

    def weight(x):
        return (1 - x) ** _as_mp(al) * (1 + x) ** _as_mp(be)

    total = mp.quad(weight, [-1, 1])
    for p in (X, Polynomial((1, 0, 0, 1))):
        want = mp.quad(lambda x: weight(x) * _poly_mp(p, x), [-1, 1]) / total
        got = _as_mp(base_pairing(Jacobi(al, be), p))
        assert abs(got - want) < tol


# -- transform algebra ----------------------------------------------------------------


def test_transform_rewrite_rules():
    base = MomentFunctional(Charlier(F(2)))
    r = Polynomial((1, 2, 3))
    p = Polynomial((F(1, 3), 0, 5, 1))
    lam = F(7, 2)
    assert pairing(base.transformed(ChristoffelBy(r)), p) == base_pairing(
        Charlier(F(2)), r * p
    )
    assert pairing(base.transformed(ShiftBy(lam)), p) == base_pairing(
        Charlier(F(2)), p.shift_arg(-lam)
    )
    assert pairing(base.transformed(AddDeltaScaled(F(-3), F(5, 7))), p) == (
        base_pairing(Charlier(F(2)), p) + F(5, 7) * p(F(-3))
    )


def test_shifted_functional_keeps_shifted_family_orthogonal():
    lam = F(7, 2)
    fam = Laguerre(F(1, 2))
    shifted = MomentFunctional(fam).transformed(ShiftBy(lam))
    polys = [fam.polynomial(n).shift_arg(lam) for n in range(6)]
    assert gram_check(shifted, polys).ok


@settings(max_examples=40, deadline=None)
@given(
    c0=st.fractions(min_value=-10, max_value=10, max_denominator=8),
    c1=st.fractions(min_value=-10, max_value=10, max_denominator=8),
)
def test_pairing_is_linear(c0, c1):
    func = charlier_transformed(F(3, 2), 1)
    p = Polynomial((1, 0, 2, 1))
    q = Polynomial((0, 5, 0, 0, 3))
    combined = p * c0 + q * c1
    assert pairing(func, combined) == c0 * pairing(func, p) + c1 * pairing(func, q)


# -- transformed Charlier functional ---------------------------------------------------


@pytest.mark.parametrize("a, k", [(F(1), 2), (F(2), 1), (F(1, 2), 3)])
def test_transformed_charlier_pairs_through_dual_values(a, k):
    func = charlier_transformed(a, k)
    fam = Charlier(a)
    dual = Charlier(-a)
    for n in range(8):
        want = (-1) ** n * factorial(k) * dual.polynomial(k)(F(-n - 1))
        assert pairing(func, fam.polynomial(n)) == want


def test_existence_fails_exactly_where_gamma_vanishes():
    # a=2, k=1: gamma_n = c_1^{-2}(-n) = 2-n dies at n=2, so the degree-1
    # polynomial has zero norm and the Hankel ladder breaks one step early.
    func = charlier_transformed(F(2), 1)
    assert hankel_det(func, 0) == 1
    assert hankel_det(func, 1) == 0
    assert hankel_det(func, 2) == -64
    with pytest.raises(NoOrthogonalPolynomialsError) as exc:
        orthoseq(func, 5)
    assert exc.value.level == 1

    fam = Charlier(F(2))
    q1 = fam.polynomial(1)  # beta_1 = gamma_2/gamma_1 = 0
    assert pairing(func, q1 * q1) == 0

    with pytest.raises(HypothesisError):
        named("charlier", {"a": F(2)}, 1, 8)


def test_zero_total_mass_fails_at_level_zero():
    func = MomentFunctional(Laguerre(F(0))).transformed(AddDeltaScaled(F(0), F(-1)))
    assert moment(func, 0) == 0
    with pytest.raises(NoOrthogonalPolynomialsError) as exc:
        orthoseq(func, 3)
    assert exc.value.level == 0


def test_spot_check_gamma_never_vanishes():
    for a, k in ((F(1), 2), (F(3), 2), (F(1, 2), 4)):
        pol = Charlier(-a).polynomial(k)
        assert all(pol(F(-n)) != 0 for n in range(51))


def test_hankel_solve_satisfies_a_three_term_recurrence():
    func = charlier_transformed(F(1), 2)
    ms = orthoseq(func, 8)
    for n in range(1, 7):
        norm = pairing(func, ms[n] * ms[n])
        b = pairing(func, (X * ms[n]) * ms[n]) / norm
        c = pairing(func, (X * ms[n]) * ms[n - 1]) / pairing(
            func, ms[n - 1] * ms[n - 1]
        )
        assert c != 0
        assert (X * ms[n] - ms[n + 1] - ms[n] * b - ms[n - 1] * c).is_zero()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda f: orthoseq(f, -1), "nmax"),
        (lambda f: hankel_det(f, -1), "level"),
        (lambda f: hankel_det(f, -3), "level"),
        (lambda f: gram_check(f, []), "len(polys)"),
        (lambda f: casorati_check(F(2), 2, -1), "n"),
    ],
    ids=["orthoseq", "hankel_det-1", "hankel_det-3", "gram_check", "casorati_check"],
)
def test_moment_checks_reject_empty_ranges_by_name(call, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be >= "):
        call(charlier_transformed(F(1), 2))


def test_orthoseq_and_gram_pair_moments_without_elimination(monkeypatch):
    # One pipeline: the recurrence on moments, with no Hankel determinant
    # and no linear solve behind orthoseq or gram_check.
    def refuse(*args):
        raise AssertionError("elimination called")

    monkeypatch.setattr(moments, "det_fraction", refuse)
    monkeypatch.setattr(moments, "solve_fraction", refuse)
    nc = named("meixner1", {"a": F(1, 3), "c": F(5, 2)}, 2, 8)
    monic = orthoseq(nc.functional, 8)
    qs = [nc.construction.q(n) for n in range(9)]
    assert [q / q.lead for q in qs] == monic
    assert gram_check(nc.functional, qs).ok


# -- point-mass recipe ------------------------------------------------------------------


def test_point_mass_recipe_matches_hankel_solve():
    # Build the two-term combination directly from the defining ratios and
    # compare with the linear-algebra route, for a Jacobi weight plus an
    # atom at -1.
    al, be, mass = F(1, 2), F(2), F(3, 4)
    nu = Jacobi(al, be - 1)
    fam = Jacobi(al, be)
    func = jacobi_transformed(al, be, mass)

    def beta(n):
        num = base_pairing(nu, fam.polynomial(n)) + mass * fam.polynomial(n)(F(-1))
        den = base_pairing(nu, fam.polynomial(n - 1)) + mass * fam.polynomial(n - 1)(
            F(-1)
        )
        return -num / den

    qs = [Polynomial.one()] + [
        fam.polynomial(n) + fam.polynomial(n - 1) * beta(n) for n in range(1, 7)
    ]
    report = gram_check(func, qs)
    assert report.ok
    assert report.diagonal_signs == [1] * 7
    monic = orthoseq(func, 6)
    for n, q in enumerate(qs):
        assert q / q.coeff(q.degree) == monic[n]


def test_point_mass_recipe_laguerre_closed_ratio():
    al, mass = F(5, 2), F(2)
    nu = Laguerre(al - 1)
    fam = Laguerre(al)
    func = laguerre_transformed(al, mass)

    # The lower-parameter pairing of every polynomial collapses to 1.
    assert all(base_pairing(nu, fam.polynomial(n)) == 1 for n in range(6))

    def gamma(n):
        return 1 + mass * pochhammer(al + 1, n - 1) / factorial(n - 1)

    qs = [Polynomial.one()]
    for n in range(1, 7):
        beta_n = -(1 + mass * fam.polynomial(n)(F(0))) / (
            1 + mass * fam.polynomial(n - 1)(F(0))
        )
        assert beta_n == -gamma(n + 1) / gamma(n)
        qs.append(fam.polynomial(n) + fam.polynomial(n - 1) * beta_n)
    assert gram_check(func, qs).ok


# -- Laguerre-type bilinear form ---------------------------------------------------------


def _laguerre_chain(al, p2, nmax):
    fam = Laguerre(al)
    kc = construct_type1(fam, catalog(fam)[0], p2, nmax)
    return [kc.q(n) for n in range(nmax + 1)]


@pytest.mark.parametrize("al", [F(1, 2), F(5, 2)])
def test_bilinear_form_orthogonality(al):
    p2 = Polynomial((1, 1, 1))
    qs = _laguerre_chain(al, p2, 10)
    for n in range(11):
        for j in range(n):
            assert occ_form(al, p2, qs[n], qs[j]) == 0
        assert occ_form(al, p2, qs[n], qs[n]) != 0


def test_bilinear_form_band_property():
    al = F(5, 2)
    p2 = Polynomial((F(7, 4), F(4), F(1)))
    k = p2.degree
    qs = _laguerre_chain(al, p2, 10)
    xk1 = Polynomial.monomial(k + 1)
    for n in range(k + 2, 11):
        for j in range(n - k - 1):
            assert occ_form(al, p2, xk1 * qs[n], qs[j]) == 0


def test_bilinear_form_unit_value():
    one = Polynomial.one()
    p2 = Polynomial((F(7, 4), F(4), F(1)))
    got = occ_form(F(5, 2), p2, one, one)
    assert got == pochhammer(F(5, 2) - 2, 2) * p2(F(0)) / p2(F(1))
    assert got == F(7, 36)
    assert occ_form(F(1, 2), Polynomial((1, 1, 1)), one, one) == F(1, 4)


def test_bilinear_form_when_window_vanishes_at_one():
    # P2 = (x-1)(x-5) forces the unnormalized expansion with w_0 = -1.
    p2 = Polynomial((5, -6, 1))
    start, weights = occ_weights(p2)
    assert start == 0
    assert weights == [F(-1), F(3), F(2)]
    al = F(1, 2)
    assert occ_q_poly(al, p2).degree == p2.degree
    qs = _laguerre_chain(al, p2, 8)
    for n in range(9):
        for j in range(n):
            assert occ_form(al, p2, qs[n], qs[j]) == 0
        assert occ_form(al, p2, qs[n], qs[n]) != 0
    assert occ_form(al, p2, Polynomial.one(), Polynomial.one()) == F(15, 4)


def test_bilinear_form_needs_alpha_off_the_integer_ladder():
    p2 = Polynomial((1, 1, 1))
    for bad in (F(2), F(1)):
        with pytest.raises(DegeneracyError):
            occ_form(bad, p2, X, X)


_window_coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=2, max_size=6
)


@settings(max_examples=150)
@given(_window_coeffs, st.booleans())
@example([F(1), F(1), F(1)], False)
@example([F(-5), F(1)], True)
def test_normalized_weights_resum_to_window(coeffs, through_one):
    # Every C(x+j, j) with j >= 1 vanishes at x = -1, so weights from j = 1
    # resum to the window only when its j = 0 coordinate is 0, in both the
    # normalized (P2(1) != 0) and the through-one (P2(1) = 0) branch.
    p2 = Polynomial(coeffs)
    if through_one:
        p2 = p2 * Polynomial((-1, 1))
    assume(p2.degree >= 1 and (p2(F(1)) == 0) == through_one)
    start, weights = occ_weights(p2)
    assert start == (0 if through_one else 1)
    rebuilt = Polynomial.zero() if through_one else Polynomial.one()
    for j in range(1, len(weights)):
        # C(x+j, j) built from the rising window over j!.
        basis = Polynomial.from_roots([-i for i in range(1, j + 1)]) / factorial(j)
        rebuilt = rebuilt + basis * weights[j]
    window = p2(Polynomial((0, -1)))
    assert rebuilt == (window if through_one else window / p2(F(1)))


# -- determinant identity ----------------------------------------------------------------


@pytest.mark.parametrize("a", [F(1), F(1, 2), F(3)])
def test_casorati_determinant_identity(a):
    for k in range(1, 5):
        for n in range(1, 9):
            det, closed = casorati_check(a, k, n)
            assert det == closed


def test_casorati_agrees_with_inline_minor():
    fam = Charlier(F(3))
    inline = fam.polynomial(4)(F(1)) * fam.polynomial(5)(F(2)) - fam.polynomial(5)(
        F(1)
    ) * fam.polynomial(4)(F(2))
    det, closed = casorati_check(F(3), 2, 4)
    assert det == inline == closed


# -- pairing lemmas ------------------------------------------------------------------------


IP_CASES = {
    "chxx": {"a": F(2)},
    "lme1x": {"a": F(1, 3), "c": F(5, 2)},
    "meixner2": {"a": F(1, 3), "c": F(5, 2)},
    "krawtchouk": {"a": F(1, 2), "N": F(15, 2)},
    "hahn1": {"alpha": F(7, 3), "c": F(5, 2), "N": F(1, 3)},
    "hahn2": {"alpha": F(7, 3), "c": F(5, 2), "N": F(1, 3)},
}


@pytest.mark.parametrize("kind", IP_LEMMA_KINDS)
def test_pairing_lemma_ratios(kind):
    report = ip_lemma_check(kind, IP_CASES[kind], 2, 8)
    assert report.ok
    assert len(report.checks) == 9
    assert report.checks[0].lhs == 1


def test_pairing_lemma_ratio_inline():
    a, k = F(2), 2
    report = ip_lemma_check("chxx", {"a": a}, k, 3)
    dual = Charlier(-a)
    expected = -dual.polynomial(k)(F(-2)) / dual.polynomial(k)(F(-1))
    assert report.checks[1].lhs == expected


def test_unknown_pairing_lemma_kind():
    with pytest.raises(ValueError):
        ip_lemma_check("nope", {}, 1, 2)


# -- transformed Hahn signs -----------------------------------------------------------------


def test_transformed_hahn_diagonal_signs_alternate():
    params = {"alpha": F(7, 3), "c": F(5, 2), "N": F(1, 3)}
    for kind, first in (("hahn1", 1), ("hahn2", -1)):
        nc = named(kind, params, 1, 8)
        qs = [nc.construction.q(n) for n in range(7)]
        report = gram_check(nc.functional, qs)
        assert report.ok
        assert report.diagonal_signs == [first * (-1) ** n for n in range(7)]


# -- serialization ----------------------------------------------------------------------------


def test_measure_json_round_trip():
    func = charlier_transformed(F(2), 1)
    doc = measure_to_json(func)
    assert doc["base"] == {"family": "charlier", "params": {"a": "2/1"}}
    assert doc["transforms"][0] == {"kind": "shift", "offset": "2/1"}
    assert doc["transforms"][1]["kind"] == "christoffel"
    assert measure_from_json(doc) == func

    atom = laguerre_transformed(F(5, 2), F(2))
    assert measure_from_json(measure_to_json(atom)) == atom


def test_transforms_are_coerced_or_rejected_at_construction():
    assert ChristoffelBy(3) == ChristoffelBy(Polynomial((3,)))
    assert ChristoffelBy(F(1, 2)).poly == Polynomial((F(1, 2),))
    func = MomentFunctional(Charlier(F(1, 3))).transformed(ChristoffelBy(3))
    assert measure_from_json(measure_to_json(func)) == func
    for bad in ("ab", "3", 1.5, None):
        with pytest.raises(TypeError, match="poly"):
            ChristoffelBy(bad)
    listed = MomentFunctional(Charlier(F(1, 3)), [ShiftBy(1)])
    assert listed.transforms == (ShiftBy(1),)
    assert hash(listed) == hash(MomentFunctional(Charlier(F(1, 3)), (ShiftBy(1),)))
    assert measure_from_json(measure_to_json(listed)) == listed
    with pytest.raises(TypeError, match=re.escape("unknown transform (3,)")):
        MomentFunctional(Charlier(F(1, 3)), [(3,)])
    with pytest.raises(TypeError, match="unknown transform 3"):
        listed.transformed(3)


def test_measure_json_rejects_unknown_transform():
    doc = measure_to_json(charlier_transformed(F(2), 1))
    doc["transforms"][0] = {"kind": "mystery"}
    with pytest.raises(ValueError):
        measure_from_json(doc)
