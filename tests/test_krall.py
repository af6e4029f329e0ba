"""Construction engines: eigen-sequences, their operators, and the named cases."""

from __future__ import annotations

import dataclasses
import pickle
from collections import Counter
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krallops.dops import catalog
from krallops.errors import ConstructionError, DegeneracyError, HypothesisError
from krallops.families import (
    Charlier,
    Hahn,
    Jacobi,
    Krawtchouk,
    Laguerre,
    Meixner,
)
from krallops.krall import (
    KrallConstruction,
    band_profile,
    construct_type1,
    construct_type2,
    construction_to_json,
    generalized_operator,
    named,
    negated_frame,
    type2_companion,
    verify_eigen,
)
from krallops.moments import gram_check, orthoseq
from krallops.opalg import DifferenceOperator, DifferentialOperator, EigenGrid, operator_from_json
from krallops.polyops import Polynomial, pochhammer
from newton_reference import expand_in_family_basis

F = Fraction

HAHN_TRIPLE = (F(7, 3), F(5, 2), F(1, 3))


def test_charlier_named_frozen_chain():
    nc = named("charlier", {"a": 1}, k=2, nmax=10)
    kc = nc.construction
    assert kc.p2 == Polynomial((F(1, 2), F(-1, 2), F(1, 2)))
    for n in range(1, 7):
        assert kc.gamma(n) == F(n * n - n + 1, 2)
    assert kc.beta(1) == 3
    assert kc.q(1) == Polynomial((2, 1))
    assert kc.eigval(0) == F(-1, 6)
    assert kc.eigval(1) == F(1, 3)
    report = verify_eigen(kc)
    assert report.ok
    assert report.order == 6
    assert report.genre == (-3, 3)


@pytest.mark.parametrize(
    "fam,seed",
    [
        (Charlier(F(3, 2)), Polynomial((1, 2, 0, 1))),
        (Meixner(F(2), F(5, 2)), Polynomial((3, -1, 1))),
        (Krawtchouk(F(1, 2), F(13, 2)), Polynomial((2, 1))),
        (Laguerre(F(5, 3)), Polynomial((1, 1, 1))),
    ],
    ids=str,
)
def test_type1_engine(fam, seed):
    kc = construct_type1(fam, catalog(fam)[0], seed, nmax=10)
    report = verify_eigen(kc)
    assert report.ok, [c.n for c in report.checks if not c.ok]
    k = seed.degree
    assert report.order == 2 * k + 2
    if report.genre is not None:
        assert report.genre == (-k - 1, k + 1)


def test_type1_constant_seed_gives_order_two():
    fam = Charlier(F(2))
    kc = construct_type1(fam, catalog(fam)[0], Polynomial((F(3),)), nmax=8)
    report = verify_eigen(kc)
    assert report.ok
    assert report.order == 2
    # a constant seed makes beta_n = eps_n itself
    for n in range(1, 9):
        assert kc.beta(n) == catalog(fam)[0].eps(n)


def test_type1_rejects_nonaffine_eigenvalues():
    fam = Hahn(*HAHN_TRIPLE)
    with pytest.raises(ConstructionError):
        construct_type1(fam, catalog(fam)[0], Polynomial((1, 1)), nmax=5)


def test_type1_rejects_bad_companion():
    fam = Charlier(F(1))
    with pytest.raises(ConstructionError):
        construct_type1(
            fam,
            catalog(fam)[0],
            Polynomial((1, 1)),
            nmax=5,
            p1=Polynomial((0, 0, 5)),
        )
    with pytest.raises(ConstructionError):
        construct_type1(fam, catalog(fam)[0], Polynomial.zero(), nmax=5)


def test_gamma_zero_raises_with_index():
    with pytest.raises(HypothesisError) as exc:
        named("charlier", {"a": 1}, k=1, nmax=8)
    assert exc.value.index == 1


def test_eigen_expansion_touches_only_two_basis_directions():
    fam = Meixner(F(2), F(5, 2))
    kc = construct_type1(fam, catalog(fam)[0], Polynomial((3, -1, 1)), nmax=8)
    for n in range(1, 9):
        coords = expand_in_family_basis(fam, kc.operator.apply(kc.q(n)))
        lam = kc.eigval(n)
        assert coords[n] == lam
        assert coords[n - 1] == lam * kc.beta(n)
        assert all(c == 0 for i, c in enumerate(coords) if i not in (n, n - 1))


@pytest.mark.parametrize("dop_index", [0, 1, 2, 3])
def test_type2_hahn_all_four_operators(dop_index):
    fam = Hahn(*HAHN_TRIPLE)
    dop = catalog(fam)[dop_index]
    kc = construct_type2(fam, dop, [1, 2, F(1, 3)], nmax=8)
    report = verify_eigen(kc)
    assert report.ok, [c.n for c in report.checks if not c.ok]
    assert report.order == 6
    assert report.genre == (-3, 3)


@pytest.mark.parametrize("dop_index", [0, 1])
def test_type2_jacobi_both_operators(dop_index):
    fam = Jacobi(F(1, 2), F(2))
    dop = catalog(fam)[dop_index]
    kc = construct_type2(fam, dop, [3, F(1, 2), 0, 1], nmax=8)
    report = verify_eigen(kc)
    assert report.ok
    assert report.order == 8


def test_type2_rejects_degree_zero_seed():
    fam = Hahn(*HAHN_TRIPLE)
    with pytest.raises(ConstructionError):
        construct_type2(fam, catalog(fam)[1], [F(2)], nmax=5)
    with pytest.raises(ConstructionError):
        construct_type2(fam, catalog(fam)[1], [1, 0, 0], nmax=5)


def test_type2_rejects_type1_operator_and_wrong_family():
    ch = Charlier(F(1))
    with pytest.raises(ConstructionError):
        construct_type2(ch, catalog(ch)[0], [0, 1], nmax=5)
    fam = Hahn(*HAHN_TRIPLE)
    with pytest.raises(ConstructionError):
        construct_type1(fam, catalog(fam)[0], Polynomial((1, 1)), nmax=5)


def test_type2_eigenvalue_sequence_identities():
    fam = Hahn(*HAHN_TRIPLE)
    theta = fam.eigenvalue
    for dop_index in (0, 1):
        dop = catalog(fam)[dop_index]
        kc = construct_type2(fam, dop, [2, 0, 1, F(-1, 2)], nmax=8)
        for n in range(1, 9):
            assert kc.eigval(n) - kc.eigval(n - 1) == dop.sigma(n) * kc.gamma(n)
        for n in range(8):
            assert kc.eigval(n + 1) + kc.eigval(n) == kc.p1(theta(n))


def test_charlier_operator_leading_shift_coefficients():
    # top and bottom shift coefficients factor through the leading
    # coefficients u1 of the companion and u2 of the seed
    for a, k in ((F(1), 2), (F(1, 2), 1), (F(3), 3)):
        kc = named("charlier", {"a": a}, k=k, nmax=6).construction
        u1, u2 = kc.p1.coeff(k + 1), kc.p2.coeff(k)
        assert kc.operator.coeff(k + 1) == Polynomial.one() * (u1 * a ** (k + 1))
        assert kc.operator.coeff(-k - 1) == (
            Polynomial.from_roots(range(1, k + 1)) * Polynomial((-u2, u1))
        )


def test_hahn_companion_closed_form():
    al, c, N = HAHN_TRIPLE
    fam = Hahn(al, c, N)
    weights = [F(2), F(-1, 3), F(1), F(1, 4)]
    p2 = Polynomial.zero()
    windowed = Polynomial.zero()
    for j, w in enumerate(weights):
        p2 = p2 + fam.r_basis(j) * w
        windowed = windowed + fam.r_basis(j) * (w / (j + 1))
    closed = p2 * (al + c - N) + Polynomial((2 * (-al - c + N + 1), 2)) * windowed
    assert type2_companion(fam, weights) == closed


def test_laguerre_eigenvalue_concordance():
    for al, mass in ((1, F(1, 2)), (2, F(1))):
        kc = named("laguerre", {"alpha": al, "mass": mass}, k=0, nmax=8).construction
        m = F(mass) / factorial(al)
        for n in range(9):
            assert kc.eigval(n) == n + (m / (al + 1)) * pochhammer(n, al + 1)


def test_jacobi_eigenvalue_concordance():
    for al, be, mass in ((F(1, 2), 1, F(1)), (F(1, 2), 2, F(1))):
        kc = named(
            "jacobi", {"alpha": al, "beta": be, "mass": mass}, k=0, nmax=8
        ).construction
        m = F(mass) / (pochhammer(1 + al, be) * factorial(be))
        assert kc.eigval(0) == al * be
        for n in range(1, 9):
            expected = (n + al + be) * (
                n + m * pochhammer(n + al, be) * pochhammer(n, be) * (1 + F(n - 1, be + 1))
            ) + al * be
            assert kc.eigval(n) == expected


def test_generalized_operator():
    fam = Charlier(F(2))
    seed = Polynomial((1, 0, 1))
    kc = construct_type1(fam, catalog(fam)[0], seed, nmax=8)
    g = Polynomial((2, 1))
    op, lam = generalized_operator(kc, g)
    for n in range(9):
        qn = kc.q(n)
        assert op.apply(qn) == qn * lam(n)
    total = seed.degree + g.degree + 1
    assert op.order() == 2 * total
    assert op.genre() == (-total, total)


def test_generalized_operator_needs_type1():
    fam = Hahn(*HAHN_TRIPLE)
    kc = construct_type2(fam, catalog(fam)[0], [0, 1], nmax=5)
    with pytest.raises(ConstructionError):
        generalized_operator(kc, Polynomial((1, 1)))


def test_band_profiles():
    lag = named("laguerre", {"alpha": 2, "mass": 1}, k=0, nmax=8).construction
    prof = band_profile(lag, Polynomial.monomial(3), 8)
    assert all(min(v) >= -3 and max(v) <= 3 for v in prof.values())

    jac = named("jacobi", {"alpha": F(1, 2), "beta": 2, "mass": 1}, k=0, nmax=8).construction
    prof = band_profile(jac, Polynomial((1, 1)) ** 3, 8)
    assert all(min(v) >= -3 and max(v) <= 3 for v in prof.values())

    ch = named("charlier", {"a": 1}, k=2, nmax=8).construction
    window = Polynomial.from_roots([-1, -2, -3])
    prof = band_profile(ch, window, 8)
    assert all(min(v) >= -3 and max(v) <= 3 for v in prof.values())


def test_band_profile_builds_each_q_once(monkeypatch):
    # charlier, k = 2: the degree-3 multiplier needs q_0 .. q_{nmax+3}
    ch = named("charlier", {"a": 1}, k=2, nmax=20).construction
    built = []
    q = KrallConstruction.q
    monkeypatch.setattr(KrallConstruction, "q", lambda self, n: built.append(n) or q(self, n))
    prof = band_profile(ch, Polynomial.from_roots([-1, -2, -3]), 20)
    assert sorted(built) == list(range(24))
    assert sorted(prof) == list(range(21))


def test_graded_expansions_keep_their_errors():
    # Both expansions peel one graded basis; a basis of constants is not graded.
    flat = [Polynomial.one()] * 4
    with pytest.raises(DegeneracyError, match="^family basis expansion failed to terminate$"):
        expand_in_family_basis(SimpleNamespace(polynomial=flat.__getitem__), Polynomial.x())
    with pytest.raises(ConstructionError, match="^q-basis expansion failed; q_m are not graded$"):
        band_profile(SimpleNamespace(q_sequence=lambda n: flat[: n + 1]), Polynomial.x(), 0)


def test_family_expansion_builds_only_the_members_it_needs():
    fam = Charlier(Fraction(1, 3))
    built = []
    basis = SimpleNamespace(polynomial=lambda m: built.append(m) or fam.polynomial(m))
    assert expand_in_family_basis(basis, fam.polynomial(5) * 2) == [0] * 5 + [2]
    assert built == [5]


def test_krall_ortho_band_builds_each_q_once(monkeypatch):
    # The checks of ``krall --ortho --band`` and the negated frame share one
    # q_n each: building q_n for n >= 1 is the one call to beta(n).
    nc = named("charlier", {"a": 1}, k=2, nmax=10)
    kc = nc.construction
    built = []
    beta = KrallConstruction.beta
    monkeypatch.setattr(KrallConstruction, "beta", lambda self, n: built.append(n) or beta(self, n))
    assert verify_eigen(kc).ok
    assert gram_check(nc.functional, kc.q_sequence(8)).ok
    band_profile(kc, Polynomial.from_roots([-1, -2, -3]), 10)
    flipped = negated_frame(kc)
    assert flipped.q(13) is kc.q(13) and flipped.q(14) is kc.q(14)
    assert sorted(built) == list(range(1, 15))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda kc: kc.family.polynomial(-1), "n must be >= 0; got -1", id="polynomial"
        ),
        pytest.param(lambda kc: kc.gamma(0), "n must be >= 1; got 0", id="gamma"),
        pytest.param(lambda kc: kc.beta(-2), "n must be >= 1; got -2", id="beta"),
        pytest.param(lambda kc: kc.p2 ** -1, "exponent must be >= 0; got -1", id="pow"),
        pytest.param(lambda kc: kc.eigval(-2), "n must be >= 0; got -2", id="eigval"),
        pytest.param(
            lambda kc: band_profile(kc, Polynomial.x(), -1),
            "nmax must be >= 0; got -1",
            id="band_profile-nmax",
        ),
        pytest.param(
            lambda kc: band_profile(kc, Polynomial.zero(), 3),
            "multiplier must be a nonzero polynomial",
            id="band_profile-multiplier",
        ),
        pytest.param(
            lambda kc: construction_to_json(kc, -1),
            "nmax must be >= 0; got -1",
            id="construction_to_json",
        ),
    ],
)
def test_index_errors_name_the_parameter(call, message):
    kc = named("charlier", {"a": 1}, k=2, nmax=4).construction
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(kc)


@pytest.mark.parametrize(
    "kind, params, k",
    [
        ("charlier", {"a": 1}, 2),
        ("hahn2", dict(zip(("alpha", "c", "N"), HAHN_TRIPLE)), 2),
        ("laguerre", {"alpha": 2, "mass": F(3, 2)}, 0),
        ("jacobi", {"alpha": F(1, 2), "beta": 2, "mass": 1}, 0),
    ],
)
def test_each_gamma_is_computed_once(monkeypatch, kind, params, k):
    # gamma_n = P2(theta_{n-1}): count the evaluations of P2 at each point over
    # the construction, its eigen checks, its JSON dump and its negated frame.
    evaluated = Counter()
    call = Polynomial.__call__

    def counting(self, point):
        if not isinstance(point, Polynomial):
            evaluated[self, F(point)] += 1
        return call(self, point)

    monkeypatch.setattr(Polynomial, "__call__", counting)
    nmax = 6
    kc = named(kind, params, k=k, nmax=nmax).construction
    assert verify_eigen(kc).ok and verify_eigen(negated_frame(kc)).ok
    construction_to_json(kc)
    theta = kc.family.eigenvalue
    assert [evaluated[kc.p2, theta(n - 1)] for n in range(1, nmax + 2)] == [1] * (nmax + 1)
    # Past nmax + 1 the kept values end and gamma_n is read from P2 again.
    assert kc.gamma(nmax + 2) == kc.p2(theta(nmax + 1))


def test_failed_eigen_check_keeps_its_residual():
    kc = named("charlier", {"a": 1}, k=2, nmax=6).construction
    assert all(c.residual is None for c in verify_eigen(kc).checks)
    # D_q + Delta still fixes q_0, but leaves Delta q_n for n >= 1.
    delta = DifferenceOperator.forward_difference()
    bad = verify_eigen(dataclasses.replace(kc, operator=kc.operator + delta))
    assert not bad.ok
    assert [c.ok for c in bad.checks] == [True] + [False] * 6
    assert bad.checks[0].residual is None
    for c in bad.checks[1:]:
        assert c.residual == delta.apply(kc.q(c.n)) and not c.residual.is_zero()


DIFFERENCE_CASES = [
    ("charlier", {"a": F(3, 7)}),
    ("meixner1", {"a": 2, "c": F(1, 2)}),
    ("meixner2", {"a": F(2, 3), "c": F(1, 2)}),
    ("krawtchouk", {"a": 2, "N": F(15, 2)}),
    ("hahn1", dict(zip(("alpha", "c", "N"), HAHN_TRIPLE))),
    ("hahn2", dict(zip(("alpha", "c", "N"), HAHN_TRIPLE))),
]


# Laguerre and Jacobi take their seed degree k from alpha resp. beta.
DIFFERENTIAL_CASES = [
    ("laguerre", lambda k: {"alpha": k, "mass": F(3, 4)}),
    ("jacobi", lambda k: {"alpha": F(4, 3), "beta": k, "mass": F(5, 4)}),
]


def _assert_checks_match_apply(kc: KrallConstruction, nmax: int) -> None:
    grid = EigenGrid(kc.operator)
    for n in range(nmax + 1):
        q, lam = kc.q(n), kc.eigval(n)
        assert grid.holds(q, lam) and kc.operator.apply(q) == q * lam
        for bad_q, bad_lam in [
            (q, lam + F(1, 11)),
            (q + kc.family.polynomial(max(n - 1, 0)) * F(2, 9), lam),
            (q * F(-3, 2) + 1, lam * F(-3, 2)),
        ]:
            verdict = kc.operator.apply(bad_q) == bad_q * bad_lam
            assert grid.holds(bad_q, bad_lam) == verdict
            assert not verdict or n == 0


@pytest.mark.parametrize("kind, params", DIFFERENCE_CASES, ids=[c[0] for c in DIFFERENCE_CASES])
@pytest.mark.parametrize("k", [1, 3])
def test_grid_decides_named_eigenpairs_like_the_polynomial_path(kind, params, k):
    _assert_checks_match_apply(named(kind, params, k=k, nmax=8).construction, 8)


@pytest.mark.parametrize(
    "kind, params", DIFFERENTIAL_CASES, ids=[c[0] for c in DIFFERENTIAL_CASES]
)
@pytest.mark.parametrize("k", [1, 3])
def test_coefficients_decide_named_eigenpairs_like_the_polynomial_path(kind, params, k):
    _assert_checks_match_apply(named(kind, params(k), k=k, nmax=8).construction, 8)


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
_coeffs = st.lists(_rationals, min_size=1, max_size=4).map(Polynomial)
_shift_ops = st.dictionaries(st.integers(-4, 4), _coeffs, max_size=3).map(DifferenceOperator)
_derivative_ops = st.dictionaries(st.integers(0, 5), _coeffs, max_size=3).map(
    DifferentialOperator
)


def _assert_residuals_match_apply(kc: KrallConstruction, op, nmax: int) -> None:
    """Each check of verify_eigen with ``op`` in place of D_q must agree with
    D q_n - lambda_n q_n built as a polynomial, and keep it when it fails."""
    if op.is_zero():
        return
    report = verify_eigen(dataclasses.replace(kc, operator=op))
    assert [c.n for c in report.checks] == list(range(nmax + 1))
    for c in report.checks:
        residual = op.apply(kc.q(c.n)) - kc.q(c.n) * kc.eigval(c.n)
        assert c.ok == residual.is_zero()
        assert c.residual == (None if c.ok else residual)


@settings(max_examples=60)
@given(st.sampled_from(DIFFERENCE_CASES), _shift_ops, st.booleans())
def test_failed_grid_checks_keep_the_polynomial_residual(case, delta, perturb):
    # Random operators, or the true D_q plus a random perturbation.
    kind, params = case
    kc = named(kind, params, k=2, nmax=6).construction
    _assert_residuals_match_apply(kc, kc.operator + delta if perturb else delta, 6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_CASES), st.integers(1, 2), _derivative_ops, st.booleans())
def test_failed_coefficient_checks_keep_the_polynomial_residual(case, k, delta, perturb):
    kind, params = case
    kc = named(kind, params(k), k=k, nmax=6).construction
    _assert_residuals_match_apply(kc, kc.operator + delta if perturb else delta, 6)


def test_replaced_copies_share_memos_only_with_the_same_inputs():
    kc = named("charlier", {"a": F(3, 7)}, k=1, nmax=4).construction
    theta = kc.family.eigenvalue
    kc.q(3)
    doubled = dataclasses.replace(kc, p2=2 * kc.p2)
    assert doubled.gamma(2) == 2 * kc.p2(theta(1)) == F(-22, 7)
    assert kc.gamma(2) == F(-11, 7)
    moved = dataclasses.replace(kc, p2=kc.p2 + 1)
    fam = kc.family
    assert moved.q(3) == fam.polynomial(3) + fam.polynomial(2) * moved.beta(3) != kc.q(3)
    # Copies that keep family, p2, dop and gamma_fn share the built q_n.
    for twin in (negated_frame(kc), dataclasses.replace(kc, nmax=7, label="x")):
        assert twin.q(3) is kc.q(3)


def test_perturbed_beta_breaks_eigen_identity():
    kc = named("charlier", {"a": 1}, k=2, nmax=6).construction
    bad_hits = 0
    for n in range(1, 7):
        q_bad = kc.family.polynomial(n) + kc.family.polynomial(n - 1) * (kc.beta(n) + 1)
        if kc.operator.apply(q_bad) != q_bad * kc.eigval(n):
            bad_hits += 1
    assert bad_hits == 6


def test_negated_frame_preserves_eigen_identity():
    fam = Hahn(*HAHN_TRIPLE)
    kc = construct_type2(fam, catalog(fam)[1], [1, 1], nmax=6)
    flipped = negated_frame(kc)
    assert verify_eigen(flipped).ok
    assert flipped.p1 == -kc.p1
    for n in range(7):
        assert flipped.eigval(n) == -kc.eigval(n)
        assert flipped.q(n) == kc.q(n)
    again = negated_frame(flipped)
    assert again.p1 == kc.p1 and again.eigval(3) == kc.eigval(3)


def test_named_hahn2_is_negated_engine_frame():
    al, c, N = HAHN_TRIPLE
    k = 2
    weights = [
        pochhammer(-k, j)
        * pochhammer(2 - c + j, k - j)
        * pochhammer(N + 1 + j, k - j)
        / factorial(j)
        for j in range(k + 1)
    ]
    fam = Hahn(al, c, N)
    raw = construct_type2(fam, catalog(fam)[1], weights, nmax=6)
    nc = named("hahn2", {"alpha": al, "c": c, "N": N}, k=k, nmax=6)
    assert nc.construction.p1 == -raw.p1
    assert nc.construction.eigval(4) == -raw.eigval(4)
    assert nc.construction.q(4) == raw.q(4)


def test_orthoseq_cross_checks_named_sequences():
    nc = named("charlier", {"a": 1}, k=2, nmax=6)
    monic = orthoseq(nc.functional, 5)
    for n, m in enumerate(monic):
        # family polynomials carry leading coefficient 1/n!
        assert m == nc.construction.q(n) * factorial(n)

    nc = named("hahn1", {"alpha": F(7, 3), "c": F(5, 2), "N": F(1, 3)}, k=2, nmax=6)
    monic = orthoseq(nc.functional, 5)
    for n, m in enumerate(monic):
        assert m == nc.construction.q(n)


def test_named_constructions_are_orthogonal():
    cases = [
        ("meixner1", {"a": 2, "c": F(1, 2)}, 2),
        ("meixner2", {"a": 2, "c": F(1, 2)}, 2),
        ("krawtchouk", {"a": 2, "N": F(15, 2)}, 2),
    ]
    for kind, params, k in cases:
        nc = named(kind, params, k=k, nmax=6)
        assert verify_eigen(nc.construction).ok, kind
        gram = gram_check(nc.functional, nc.construction.q_sequence(6))
        assert gram.ok, (kind, gram.failures)


def test_mass_raw_reparameterization():
    by_anchor = named("laguerre", {"alpha": 3, "mass": F(5, 3)}, k=0, nmax=6)
    by_raw = named("laguerre", {"alpha": 3, "mass_raw": F(5, 18)}, k=0, nmax=6)
    for n in range(1, 7):
        assert by_anchor.construction.gamma(n) == by_raw.construction.gamma(n)

    by_anchor = named("jacobi", {"alpha": 1, "beta": 2, "mass": F(12)}, k=0, nmax=6)
    by_raw = named("jacobi", {"alpha": 1, "beta": 2, "mass_raw": F(1)}, k=0, nmax=6)
    assert by_anchor.construction.beta(3) == by_raw.construction.beta(3)

    with pytest.raises(ConstructionError):
        named("laguerre", {"alpha": F(1, 2), "mass_raw": 1}, k=0, nmax=4)


def test_orthogonality_only_mode_has_no_operator():
    nc = named("laguerre", {"alpha": F(1, 2), "mass": 1}, k=0, nmax=6)
    kc = nc.construction
    assert kc.kind == "orthogonality-only"
    assert kc.operator is None
    assert nc.notes
    with pytest.raises(ConstructionError):
        kc.eigval(1)
    gram = gram_check(nc.functional, kc.q_sequence(6))
    assert gram.ok


def test_hahn_parameter_exclusions():
    # c - k - 1 a nonpositive integer is excluded
    with pytest.raises(HypothesisError):
        named("hahn1", {"alpha": F(7, 3), "c": 3, "N": F(1, 3)}, k=2, nmax=5)
    with pytest.raises(HypothesisError):
        named("hahn2", {"alpha": F(1, 2), "c": F(-1, 2), "N": F(1, 5)}, k=1, nmax=5)


def test_construction_json_shape():
    nc = named("charlier", {"a": 1}, k=2, nmax=4)
    doc = construction_to_json(nc.construction)
    assert doc["kind"] == "type1"
    assert doc["family"] == "charlier"
    assert doc["beta"][0] == "3/1"
    assert doc["eigenvalues"][0] == "-1/6"
    assert operator_from_json(doc["operator"]) == nc.construction.operator


# One parameter set per operator-carrying case: the six difference kinds and
# the Laguerre and Jacobi point masses at an integer degree.
OPERATOR_SETS = [
    ("charlier", {"a": F(2, 3)}, 2),
    ("meixner1", {"a": F(-1, 7), "c": F(9, 2)}, 2),
    ("meixner2", {"a": F(-2, 7), "c": F(11, 2)}, 2),
    ("krawtchouk", {"a": F(-1, 5), "N": F(3, 2)}, 2),
    ("hahn1", dict(zip(("alpha", "c", "N"), HAHN_TRIPLE)), 1),
    ("hahn2", dict(zip(("alpha", "c", "N"), HAHN_TRIPLE)), 2),
    ("laguerre", {"alpha": 2, "mass": 1}, 0),
    ("jacobi", {"alpha": F(1, 2), "beta": 2, "mass": 1}, 0),
]


@pytest.mark.parametrize("kind, params, k", OPERATOR_SETS)
def test_constructions_compare_by_value(kind, params, k):
    nc = named(kind, params, k=k, nmax=5)
    assert nc == named(kind, params, k=k, nmax=5)
    kc = nc.construction
    assert negated_frame(negated_frame(kc)) == kc
    assert negated_frame(kc) != kc
    assert dataclasses.replace(kc, nmax=4) != kc


# The operator construction of each named kind.
OPERATOR_KINDS = [
    ("charlier", {"a": F(2, 3)}, 2),
    ("meixner1", {"a": F(-1, 7), "c": F(9, 2)}, 2),
    ("meixner2", {"a": F(-2, 7), "c": F(11, 2)}, 1),
    ("krawtchouk", {"a": F(-1, 5), "N": F(3, 2)}, 2),
    ("hahn1", {"alpha": F(7, 3), "c": F(5, 2), "N": F(1, 3)}, 1),
    ("hahn2", {"alpha": F(7, 3), "c": F(5, 2), "N": F(1, 3)}, 2),
    ("laguerre", {"alpha": 2, "mass": 1}, 0),
    ("jacobi", {"alpha": F(1, 2), "beta": 2, "mass": 1}, 0),
]


@pytest.mark.parametrize("kind, params, k", OPERATOR_KINDS, ids=[r[0] for r in OPERATOR_KINDS])
def test_named_operator_construction_pickles(kind, params, k):
    kc = named(kind, params, k, nmax=6).construction
    assert kc.operator is not None
    want = construction_to_json(kc)
    copy = pickle.loads(pickle.dumps(kc))
    assert copy == kc
    assert verify_eigen(copy).ok
    assert construction_to_json(copy) == want
