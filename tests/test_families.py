"""Classical families: eigen-equations, recurrences, ladders, lattice identities."""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction
from functools import partial
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krallops import families
from krallops.errors import DegeneracyError
from krallops.families import (
    FAMILY_PARAM_FIELDS,
    Charlier,
    Hahn,
    Jacobi,
    Krawtchouk,
    Laguerre,
    Meixner,
    Recurrence,
    dual_hahn_poly,
    dual_hahn_variant,
    family_from_json,
    family_from_name,
    family_to_json,
    lattice_product,
)
from krallops.polyops import Polynomial, RationalFunction, _expand_graded, pochhammer
from newton_reference import eigen_solve_poly, expand_in_family_basis, ref_newton_poly, ref_scalars

F = Fraction

PARAM_SETS = [
    Charlier(F(1)),
    Charlier(F(1, 2)),
    Charlier(F(3)),
    Meixner(F(2), F(5, 2)),
    Meixner(F(1, 3), F(7, 2)),
    Meixner(F(3, 2), F(1, 2)),
    Krawtchouk(F(1, 2), F(15, 2)),
    Krawtchouk(F(2), F(9, 2)),
    Krawtchouk(F(3), F(1, 3)),
    Hahn(F(7, 3), F(5, 2), F(1, 3)),
    Hahn(F(1, 2), F(3), F(1, 5)),
    Hahn(F(4), F(7, 2), F(2, 3)),
    Laguerre(F(2)),
    Laguerre(F(1, 2)),
    Laguerre(F(5, 3)),
    Jacobi(F(1, 2), F(2)),
    Jacobi(F(1), F(1)),
    Jacobi(F(7, 3), F(3, 2)),
]


@pytest.mark.parametrize("fam", PARAM_SETS, ids=str)
def test_second_order_eigen_identity(fam):
    op = fam.second_order_op()
    for n in range(11):
        p = fam.polynomial(n)
        assert op.apply(p) == p * fam.eigenvalue(n), n


@pytest.mark.parametrize("fam", PARAM_SETS, ids=str)
def test_three_term_recurrence(fam):
    # On the Newton-form reference: p_n itself comes from these coefficients.
    x, ref = Polynomial.x(), partial(ref_newton_poly, fam)
    for n in range(9):
        a_n, b_n, c_n = fam.ttr(n)
        rhs = ref(n + 1) * a_n + ref(n) * b_n
        if n >= 1:
            rhs = rhs + ref(n - 1) * c_n
        assert x * ref(n) == rhs, n
        assert fam.polynomial(n) == ref(n), n
        assert a_n != 0
        if n >= 1:
            assert c_n != 0


def test_charlier_frozen_facts():
    a = F(3, 2)
    fam = Charlier(a)
    for n in range(8):
        p = fam.polynomial(n)
        assert p.lead == F(1, factorial(n))
        assert p(0) == (-a) ** n / factorial(n)
        assert fam.eigenvalue(n) == -n
    assert fam.ttr(4) == (F(5), F(4) + a, a)


def ttr_by_expansion(fam, n):
    """Reference recurrence: expand x*p_n in the Newton-form reference basis."""
    coeffs = _expand_graded(
        Polynomial.x() * ref_newton_poly(fam, n), partial(ref_newton_poly, fam),
        AssertionError(f"x*p_{n} left a remainder"),
    )
    for m, c in enumerate(coeffs[: max(n - 1, 0)]):
        assert c == 0, f"x*p_{n} has a component on p_{m}"
    return (coeffs[n + 1], coeffs[n], coeffs[n - 1] if n >= 1 else F(0))


def assert_recurrence_matches_expansion(fam, top):
    for n in range(top + 1):
        assert fam.ttr(n) == ttr_by_expansion(fam, n), n
        assert fam.polynomial(n) == ref_newton_poly(fam, n), n


def test_hahn_printed_recurrence_matches_expansion():
    assert_recurrence_matches_expansion(Hahn(F(7, 3), F(5, 2), F(1, 3)), 8)


@pytest.mark.parametrize(
    "fam", PARAM_SETS + [Charlier(F(3, 2)), Meixner(F(-1, 7), F(13, 2))], ids=str
)
def test_recurrence_starts_with_c0_zero(fam):
    # c_0 multiplies p_{-1} = 0
    assert fam.ttr(0)[2] == 0
    with pytest.raises(ValueError, match="n must be >= 0; got -1"):
        fam.ttr(-1)


# Parameters for each family across its admissible domain, drawn so that the
# special points come up: Krawtchouk at an integer N <= 60 (c_N = 0), Meixner
# at an integer c <= 0 and Laguerre at an integer alpha < 0 (Newton terms
# vanish), Jacobi at alpha + beta = 0 (b_n is 0/0 at n = 0), Hahn at
# alpha + c - N = 0, 1 or 2 (c_1 resp. b_0 is 0/0 at the first two).
small_rationals = st.one_of(
    st.integers(-6, 6).map(F), st.fractions(min_value=-9, max_value=9, max_denominator=7)
)
nonpositive_integers = st.integers(-8, 0).map(F)
FAMILY_PARAMS = {
    Charlier: st.tuples(small_rationals),
    Meixner: st.tuples(small_rationals, nonpositive_integers | small_rationals),
    Krawtchouk: st.tuples(small_rationals, st.one_of(st.integers(0, 60).map(F), small_rationals)),
    # drawn as (alpha, c, alpha + c - N)
    Hahn: st.tuples(
        small_rationals, small_rationals, st.sampled_from([F(0), F(1), F(2)]) | small_rationals
    ).map(lambda t: (t[0], t[1], t[0] + t[1] - t[2])),
    Laguerre: st.tuples(nonpositive_integers | small_rationals),
    # drawn as (alpha, alpha + beta)
    Jacobi: st.tuples(small_rationals, st.just(F(0)) | small_rationals)
    .map(lambda t: (t[0], t[1] - t[0])),
}


@pytest.mark.parametrize("cls", list(FAMILY_PARAMS), ids=lambda cls: cls.__name__)
@settings(max_examples=10)
@given(data=st.data())
def test_closed_form_recurrence_matches_expansion(cls, data):
    try:
        fam = cls(*data.draw(FAMILY_PARAMS[cls]))
    except DegeneracyError:
        return
    assert_recurrence_matches_expansion(fam, 60)


@pytest.mark.parametrize(
    "fam",
    [Krawtchouk(F(2, 3), F(7)), Jacobi(F(1, 2), F(-1, 2)), Jacobi(F(0), F(0)),
     Hahn(F(1), F(3), F(4)), Hahn(F(2), F(3), F(4)), Hahn(F(5, 2), F(17, 6), F(10, 3)),
     Meixner(F(3, 2), F(-4)), Laguerre(F(-3))],
    ids=str,
)
def test_closed_form_recurrence_at_its_special_points(fam):
    assert_recurrence_matches_expansion(fam, 40)


@pytest.mark.parametrize(
    "fam",
    [Charlier(F(1, 2)), Meixner(F(2), F(5, 2)), Hahn(F(7, 3), F(5, 2), F(1, 3)), Jacobi(F(1, 2), F(2))],
    ids=str,
)
def test_eigen_solve_agrees_with_defining_sum(fam):
    for n in range(7):
        assert eigen_solve_poly(fam, n) == fam.polynomial(n)


def test_expand_in_family_basis():
    fam = Meixner(F(2), F(5, 2))
    poly = fam.polynomial(3) * F(2) - fam.polynomial(1) * F(1, 3)
    coords = expand_in_family_basis(fam, poly)
    assert coords == [F(0), F(-1, 3), F(0), F(2)]



def test_family_table_follows_the_dataclass_fields():
    # Names, keys and field order are part of every report and CLI flag set.
    assert list(FAMILY_PARAM_FIELDS.items()) == [
        ("charlier", ("a",)),
        ("meixner", ("a", "c")),
        ("krawtchouk", ("a", "N")),
        ("hahn", ("alpha", "c", "N")),
        ("laguerre", ("alpha",)),
        ("jacobi", ("alpha", "beta")),
    ]
    hahn = family_from_name("hahn", {"N": 3, "c": "1/2", "alpha": 2})
    assert hahn == Hahn(F(2), F(1, 2), F(3))
    assert list(family_to_json(hahn)["params"]) == ["alpha", "c", "N"]


# -- lowering/raising ladders -----------------------------------------------------


def test_charlier_difference_ladder():
    fam = Charlier(F(3, 2))
    for n in range(1, 9):
        p = fam.polynomial(n)
        assert p.shift_arg(1) - p == fam.polynomial(n - 1)


def test_meixner_difference_ladder_raises_c():
    a, c = F(2), F(5, 2)
    fam, up = Meixner(a, c), Meixner(a, c + 1)
    for n in range(1, 9):
        p = fam.polynomial(n)
        assert p.shift_arg(1) - p == up.polynomial(n - 1) * ((a - 1) / a)


def test_meixner_lower_degree_vs_lower_c():
    a, c = F(2), F(5, 2)
    fam, down = Meixner(a, c), Meixner(a, c - 1)
    for n in range(1, 9):
        lhs = fam.polynomial(n - 1) * (1 / a)
        assert lhs == fam.polynomial(n) - down.polynomial(n).shift_arg(1)


def test_laguerre_derivative_ladder_and_sum():
    al = F(5, 3)
    fam, up = Laguerre(al), Laguerre(al + 1)
    for n in range(1, 9):
        assert fam.polynomial(n).derivative() == -up.polynomial(n - 1)
    total = Polynomial.zero()
    for j in range(7):
        total = total + fam.polynomial(j)
        assert total == up.polynomial(j)


def test_krawtchouk_reflection():
    a, N = F(3), F(15, 2)
    fam, dual = Krawtchouk(a, N), Krawtchouk(1 / a, N)
    refl = Polynomial((N - 1, -1))
    for n in range(9):
        assert fam.polynomial(n) == dual.polynomial(n)(refl) * F(-1) ** n


# -- quadratic-lattice machinery ----------------------------------------------------


@pytest.mark.parametrize("u", [F(1), F(-3, 2), F(7, 3)], ids=str)
def test_lattice_product_on_quadratic_lattice(u):
    # composing with x(x-u) factors into two shifted pochhammers
    lattice = Polynomial((0, -u, 1))
    for j in range(9):
        rhs = Polynomial.one()
        for i in range(j):
            rhs = rhs * Polynomial((i, -1)) * Polynomial((-u + i, 1))
        assert lattice_product(j, u)(lattice) == rhs


@pytest.mark.parametrize(
    "fam", [Hahn(F(7, 3), F(5, 2), F(1, 3)), Jacobi(F(1, 2), F(2))], ids=str
)
def test_u_seq_is_r_basis_at_previous_eigenvalue(fam):
    for j in range(9):
        rj = fam.r_basis(j)
        for n in range(1, 9):
            assert fam.u_seq(j, n) == rj(fam.eigenvalue(n - 1))


def test_jacobi_r_basis_top_factor():
    # at j = beta the next factor degenerates to -x, which the point-mass
    # weight vector construction relies on
    fam = Jacobi(F(1, 2), F(2))
    be = 2
    assert fam.r_basis(be + 1) == fam.r_basis(be) * Polynomial((0, -1))


def test_hahn_dual_duality():
    al, c, N = F(7, 3), F(5, 2), F(1, 3)
    fam = Hahn(al, c, N)
    for k in range(7):
        hstar = dual_hahn_poly(al, c, N, k)
        for n in range(7):
            lhs = pochhammer(c, n) * pochhammer(1 - N, n) * hstar(n * (n + al + c - N))
            rhs = (
                pochhammer(c, k)
                * pochhammer(1 - N, k)
                * pochhammer(n + al + c - N, n)
                * fam.polynomial(n)(F(k))
            )
            assert lhs == rhs, (k, n)


def _lattice_poly(l, al, c, N):
    # (x+l)(x+l+2+N-alpha-c) as a polynomial in x
    return Polynomial((l, 1)) * Polynomial((l + 2 + N - al - c, 1))


def test_dual_hahn_second_order_lattice_equation():
    al, c, N = F(7, 3), F(5, 2), F(1, 3)
    r = (
        Polynomial((0, -1))
        * Polynomial((N, 1))
        * Polynomial((N - al, 1))
        * Polynomial((N - al - c + 3, 2))
    )
    s = (
        Polynomial((N - al - c + 2, 1))
        * Polynomial((2 - al - c, 1))
        * Polynomial((2 - c, 1))
        * Polynomial((N - al - c + 1, 2))
    )
    u = (
        Polynomial((N - al - c + 1, 2))
        * Polynomial((N - al - c + 2, 2))
        * Polynomial((N - al - c + 3, 2))
    )
    for k in range(6):
        h = dual_hahn_variant(1, al, c, N, k)
        lhs = (
            r * h(_lattice_poly(-1, al, c, N))
            - (r + s) * h(_lattice_poly(0, al, c, N))
            + s * h(_lattice_poly(1, al, c, N))
        )
        assert lhs == u * h(_lattice_poly(0, al, c, N)) * k, k


def test_dual_hahn_first_order_lattice_equation():
    al, c, N = F(7, 3), F(5, 2), F(1, 3)
    for k in range(1, 6):
        h = dual_hahn_variant(1, al, c, N, k)
        lhs = h(_lattice_poly(1, al, c, N)) - h(_lattice_poly(0, al, c, N))
        lowered = dual_hahn_variant(1, al, c - 1, N, k - 1)
        lowered_lattice = Polynomial((0, 1)) * Polynomial((3 + N - al - c, 1))
        assert lhs == Polynomial((N - al - c + 3, 2)) * lowered(lowered_lattice) * k, k


def test_dual_hahn_variants_expand_in_r_basis():
    # both variants are degree-k combinations of the lattice products with
    # nonzero top weight
    al, c, N = F(7, 3), F(5, 2), F(1, 3)
    fam = Hahn(al, c, N)
    for variant in (1, 2):
        for k in range(5):
            h = dual_hahn_variant(variant, al, c, N, k)
            assert h.degree == k
            # subtracting the top lattice product times its weight drops degree
            top = h.lead / fam.r_basis(k).lead
            assert (h - fam.r_basis(k) * top).degree < k


# -- parameter validation --------------------------------------------------------


def test_family_rejects_degenerate_parameters():
    with pytest.raises(DegeneracyError):
        Charlier(0)
    with pytest.raises(DegeneracyError):
        Meixner(1, F(1, 2))
    with pytest.raises(DegeneracyError):
        Krawtchouk(-1, 5)
    with pytest.raises(DegeneracyError):
        Hahn(F(1), F(1), F(4))  # alpha + c - N = -2
    with pytest.raises(DegeneracyError):
        Jacobi(-2, F(1, 2))
    with pytest.raises(DegeneracyError):
        Jacobi(F(1, 2), F(-3, 2))  # alpha + beta = -1


def test_hahn_recurrence_passes_its_removable_points():
    # alpha + c - N = 0 makes the formula for c_1 0/0, and = 1 that for b_0;
    # the cancelled forms stand in.  Formerly ttr(1) raised at the first.
    assert Hahn(F(1), F(3), F(4)).ttr(1) == (1, F(-8, 3), -36)
    assert Hahn(F(2), F(3), F(4)).ttr(0) == (1, F(9, 2), 0)


def test_recurrence_cancelled_values_name_a_coefficient_and_an_index():
    one = RationalFunction.of(1)
    rec = Recurrence.of(one, one, one, {("b", 0): F(5), ("c", 2): F(7)})
    assert rec.start == ((1, 5, 0), (1, 1, 1), (1, 1, 7))
    assert rec.at(3) == (1, 1, 1)
    for key in [("d", 1), ("b", -1)]:
        with pytest.raises(ValueError, match=r"cancelled keys must be \('a', 'b' or 'c', n >= 0\)"):
            Recurrence.of(one, one, one, {key: F(1)})


def test_family_name_round_trip():
    fam = Hahn(F(7, 3), F(5, 2), F(1, 3))
    doc = family_to_json(fam)
    assert doc == {
        "family": "hahn",
        "params": {"alpha": "7/3", "c": "5/2", "N": "1/3"},
    }
    assert family_from_json(doc) == fam
    with pytest.raises(ValueError):
        family_from_name("legendre", {})
    with pytest.raises(ValueError):
        family_from_name("meixner", {"a": "2"})


# alpha and beta from integers (Laguerre's scalars vanish at alpha = -1, -2, ...)
# and from rationals with small and large denominators.
family_rationals = st.one_of(
    st.integers(-12, 12).map(F),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=10**9),
)


@given(st.sampled_from([Laguerre, Jacobi]), family_rationals, family_rationals, st.integers(0, 40))
@example(Laguerre, F(-3), F(0), 40)  # t_0 = t_1 = t_2 = 0
@settings(max_examples=150, deadline=None)
def test_centered_families_are_one_taylor_shift_of_their_newton_form(cls, alpha, beta, n):
    # Every Newton node of p_n is 0 (Laguerre) or 1 (Jacobi).
    try:
        fam, center = (Laguerre(alpha), 0) if cls is Laguerre else (Jacobi(alpha, beta), 1)
    except DegeneracyError:
        return
    scalars = ref_scalars(fam, n)
    got, want = fam.polynomial(n), Polynomial.from_newton(scalars, (center,) * n)
    assert got._ints() == want._ints()


def test_cold_polynomial_beyond_the_recursion_limit():
    # The run is extended in a loop: a recursive build would overflow here.
    families._run.cache_clear()
    fam, limit = Charlier(F(2, 5)), sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        top = fam.polynomial(400)
    finally:
        sys.setrecursionlimit(limit)
    assert top.degree == 400 and top.lead == F(1, factorial(400))


def test_concurrent_builds_of_one_fresh_family_agree():
    fam, degrees = Meixner(F(-3, 5), F(7, 4)), range(151)
    want = [fam.polynomial(n) for n in degrees]
    families._run.cache_clear()
    got, start = [None] * 4, threading.Barrier(4, timeout=60)

    def build(i):
        start.wait()
        got[i] = {n: fam.polynomial(n) for n in random.Random(i).sample(degrees, len(degrees))}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for built in got:
        assert [built[n] for n in degrees] == want
    assert [fam.polynomial(n) for n in degrees] == want
