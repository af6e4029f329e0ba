"""Acceptance gate.

Each test covers one shipped claim end to end, prints a single
"criterion NN: PASS/FAIL" line, and asserts with zero tolerance: every
equality below is between exact rationals or exact polynomials.  Run
with -s (or read the captured output) to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from krallops.dops import catalog, verify_dop
from krallops.errors import HypothesisError
from krallops.families import (
    Charlier,
    Hahn,
    Jacobi,
    Krawtchouk,
    Laguerre,
    Meixner,
    dual_hahn_poly,
    dual_hahn_variant,
    lattice_product,
)
from krallops.krall import (
    band_profile,
    construct_type1,
    construct_type2,
    named,
    verify_eigen,
)
from krallops.moments import (
    IP_LEMMA_KINDS,
    casorati_check,
    gram_check,
    ip_lemma_check,
    occ_form,
    pairing,
)
from krallops.polyops import Polynomial, pochhammer

F = Fraction

HAHN_TRIPLE = {"alpha": F(7, 3), "c": F(5, 2), "N": F(1, 3)}


@pytest.fixture(scope="module", autouse=True)
def module_start() -> float:
    """The time this module's first test starts, whichever modules ran before."""
    return time.monotonic()


def _report(num: int, ok: bool, what: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {what}")
    assert ok, f"criterion {num} failed: {what}"


def _random_seed(rng: random.Random, dmax: int = 4) -> Polynomial:
    degree = rng.randint(1, dmax)
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree)]
    coeffs.append(F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
    return Polynomial(coeffs)


def test_criterion_01_lowering_operator_catalog():
    families = [
        Charlier(F(1)), Charlier(F(1, 2)), Charlier(F(3)),
        Meixner(F(2), F(5, 2)), Meixner(F(1, 3), F(7, 2)), Meixner(F(3, 2), F(1, 2)),
        Krawtchouk(F(1, 2), F(15, 2)), Krawtchouk(F(2), F(9, 2)), Krawtchouk(F(3), F(1, 3)),
        Hahn(F(7, 3), F(5, 2), F(1, 3)), Hahn(F(9, 2), F(7, 2), F(5)), Hahn(F(1, 2), F(5, 3), F(1, 5)),
        Laguerre(F(1, 2)), Laguerre(F(2)), Laguerre(F(7, 3)),
        Jacobi(F(1, 2), F(2)), Jacobi(F(2), F(1, 3)), Jacobi(F(1), F(1)),
    ]
    start = time.monotonic()
    ok = all(
        verify_dop(dop, 15).ok for fam in families for dop in catalog(fam)
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5
    _report(1, ok, f"catalog series == closed form on p_0..p_15, 3 parameter"
                   f" sets per family ({elapsed:.2f}s)")


def test_criterion_02_first_kind_engine():
    start = time.monotonic()
    rng = random.Random(20260825)
    cases = [
        Charlier(F(1)),
        Meixner(F(2), F(5, 2)),
        Krawtchouk(F(1, 2), F(15, 2)),
        Laguerre(F(1, 2)),
    ]
    ok = True
    for fam in cases:
        dops = catalog(fam)
        done = 0
        while done < 5:
            seed = _random_seed(rng)
            try:
                kc = construct_type1(fam, dops[done % len(dops)], seed, nmax=12)
            except HypothesisError:
                continue
            rep = verify_eigen(kc, 12)
            k = seed.degree
            ok = ok and rep.ok and rep.order == 2 * k + 2
            if rep.genre is not None:
                ok = ok and rep.genre == (-k - 1, k + 1)
            done += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 20
    _report(2, ok, f"first-kind engine: 5 random seeds of degree <= 4 per"
                   f" family, eigen identity n <= 12, order 2k+2,"
                   f" genre (-k-1, k+1) ({elapsed:.2f}s)")


def test_criterion_03_second_kind_engine():
    start = time.monotonic()
    rng = random.Random(31415)
    hahn = Hahn(**HAHN_TRIPLE)
    jacobi = Jacobi(F(1, 2), F(2))
    ok = True
    for fam, dops in ((hahn, catalog(hahn)[:2]), (jacobi, catalog(jacobi))):
        for dop in dops:
            for k in (1, 2, 3):
                while True:
                    weights = [
                        F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)
                    ] + [F(rng.choice([-2, -1, 1, 2]))]
                    try:
                        kc = construct_type2(fam, dop, weights, nmax=10)
                    except HypothesisError:
                        continue
                    break
                rep = verify_eigen(kc, 10)
                ok = ok and rep.ok and rep.order == 2 * k + 2
                if fam is hahn:
                    ok = ok and rep.genre == (-k - 1, k + 1)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 20
    _report(3, ok, f"second-kind engine: random weight vectors k <= 3, both"
                   f" Hahn lowering operators and both Jacobi ones, n <= 10"
                   f" ({elapsed:.2f}s)")


def test_criterion_04_orthogonality_of_named_constructions():
    start = time.monotonic()
    cases = [
        ("charlier", {"a": F(1)}, 2),
        ("meixner1", {"a": F(1, 2), "c": F(7, 2)}, 2),
        ("meixner2", {"a": F(1, 2), "c": F(7, 2)}, 2),
        ("krawtchouk", {"a": F(1, 2), "N": F(15, 2)}, 2),
        ("hahn1", HAHN_TRIPLE, 1),
        ("hahn2", HAHN_TRIPLE, 1),
        ("laguerre", {"alpha": F(2), "mass": F(1)}, 0),
        ("laguerre", {"alpha": F(1, 2), "mass": F(1)}, 0),
        ("jacobi", {"alpha": F(1, 2), "beta": F(2), "mass": F(1)}, 0),
    ]
    ok = True
    for kind, params, k in cases:
        nc = named(kind, params, k, nmax=9)
        qs = [nc.construction.q(n) for n in range(9)]
        report = gram_check(nc.functional, qs)
        ok = ok and report.ok
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    _report(4, ok, f"gram matrices diagonal for q_0..q_8 of all nine named"
                   f" cases ({elapsed:.2f}s)")


def test_criterion_05_casorati_determinants():
    ok = True
    for a in (F(1), F(1, 2), F(3)):
        for k in range(1, 5):
            for n in range(1, 9):
                det, closed = casorati_check(a, k, n)
                ok = ok and det == closed
    _report(5, ok, "Casorati determinant equals closed form, k <= 4, n <= 8,"
                   " a in {1, 1/2, 3}")


def test_criterion_06_pairing_lemmas():
    cases = {
        "chxx": {"a": F(2)},
        "lme1x": {"a": F(1, 3), "c": F(5, 2)},
        "meixner2": {"a": F(1, 3), "c": F(5, 2)},
        "krawtchouk": {"a": F(1, 2), "N": F(15, 2)},
        "hahn1": HAHN_TRIPLE,
        "hahn2": HAHN_TRIPLE,
    }
    ok = all(
        ip_lemma_check(kind, cases[kind], 2, 8).ok for kind in IP_LEMMA_KINDS
    )
    _report(6, ok, "all six pairing lemmas as exact ratio identities, n <= 8")


def test_criterion_07_eigenvalue_concordances():
    ok = True
    for al in (1, 2, 3):
        kc = named("laguerre", {"alpha": al, "mass": F(1)}, 0, nmax=10).construction
        m = F(1) / factorial(al)
        for n in range(11):
            ok = ok and kc.eigval(n) == n + (m / (al + 1)) * pochhammer(n, al + 1)
    for be in (1, 2):
        al = F(1, 2)
        kc = named(
            "jacobi", {"alpha": al, "beta": be, "mass": F(1)}, 0, nmax=10
        ).construction
        m = F(1) / (pochhammer(1 + al, be) * factorial(be))
        ok = ok and kc.eigval(0) == al * be
        for n in range(1, 11):
            want = (n + al + be) * (
                n + m * pochhammer(n + al, be) * pochhammer(n, be) * (1 + F(n - 1, be + 1))
            ) + al * be
            ok = ok and kc.eigval(n) == want
    _report(7, ok, "closed-form eigenvalues match for integer Laguerre"
                   " alpha in {1,2,3} and Jacobi beta in {1,2}, n <= 10")


def test_criterion_08_structural_identities():
    ok = True
    # quadratic-lattice product evaluated on x(x-u)
    for u in (F(1), F(-3, 2), F(7, 3)):
        lattice = Polynomial((0, -u, 1))
        for j in range(9):
            rhs = Polynomial.one()
            for i in range(j):
                rhs = rhs * Polynomial((i, -1)) * Polynomial((-u + i, 1))
            ok = ok and lattice_product(j, u)(lattice) == rhs
    # u-sequence equals the r basis at the previous eigenvalue
    for fam in (Hahn(**HAHN_TRIPLE), Jacobi(F(1, 2), F(2))):
        for j in range(9):
            rj = fam.r_basis(j)
            for n in range(1, 9):
                ok = ok and fam.u_seq(j, n) == rj(fam.eigenvalue(n - 1))
    # Hahn / dual-Hahn duality
    al, c, N = HAHN_TRIPLE["alpha"], HAHN_TRIPLE["c"], HAHN_TRIPLE["N"]
    fam = Hahn(al, c, N)
    for k in range(7):
        hstar = dual_hahn_poly(al, c, N, k)
        for n in range(7):
            lhs = pochhammer(c, n) * pochhammer(1 - N, n) * hstar(n * (n + al + c - N))
            rhs = (
                pochhammer(c, k) * pochhammer(1 - N, k)
                * pochhammer(n + al + c - N, n) * fam.polynomial(n)(F(k))
            )
            ok = ok and lhs == rhs
    # dual-Hahn second- and first-order lattice equations
    def lattice_poly(l):
        return Polynomial((l, 1)) * Polynomial((l + 2 + N - al - c, 1))

    r = (
        Polynomial((0, -1)) * Polynomial((N, 1)) * Polynomial((N - al, 1))
        * Polynomial((N - al - c + 3, 2))
    )
    s = (
        Polynomial((N - al - c + 2, 1)) * Polynomial((2 - al - c, 1))
        * Polynomial((2 - c, 1)) * Polynomial((N - al - c + 1, 2))
    )
    u = (
        Polynomial((N - al - c + 1, 2)) * Polynomial((N - al - c + 2, 2))
        * Polynomial((N - al - c + 3, 2))
    )
    for k in range(6):
        h = dual_hahn_variant(1, al, c, N, k)
        lhs = (
            r * h(lattice_poly(-1)) - (r + s) * h(lattice_poly(0))
            + s * h(lattice_poly(1))
        )
        ok = ok and lhs == u * h(lattice_poly(0)) * k
    for k in range(1, 6):
        h = dual_hahn_variant(1, al, c, N, k)
        lowered = dual_hahn_variant(1, al, c - 1, N, k - 1)
        lowered_lattice = Polynomial((0, 1)) * Polynomial((3 + N - al - c, 1))
        lhs = h(lattice_poly(1)) - h(lattice_poly(0))
        ok = ok and lhs == Polynomial((N - al - c + 3, 2)) * lowered(lowered_lattice) * k
    _report(8, ok, "lattice products, u-sequences, duality (k, n <= 6), and"
                   " dual-Hahn lattice equations (k <= 5), all exact")


def test_criterion_09_banded_recurrences_and_bilinear_form():
    start = time.monotonic()
    ok = True
    seeds = {
        1: Polynomial((F(1, 3), 1)),
        2: Polynomial((1, 1, 1)),
        3: Polynomial((1, 1, 1)) * Polynomial((F(1, 3), 1)),
    }

    def within(kc, mult, k):
        prof = band_profile(kc, mult, 12)
        lo = min(min(v) for v in prof.values())
        hi = max(max(v) for v in prof.values())
        return lo >= -k - 1 and hi <= k + 1

    lag = Laguerre(F(1, 2))
    for k, seed in seeds.items():
        kc = construct_type1(lag, catalog(lag)[0], seed, nmax=13)
        ok = ok and within(kc, Polynomial.monomial(k + 1), k)

    jacobi = Jacobi(F(1, 2), F(2))
    rng = random.Random(777)
    for k in (1, 2, 3):
        while True:
            weights = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)] + [F(1)]
            try:
                kc = construct_type2(jacobi, catalog(jacobi)[0], weights, nmax=13)
            except HypothesisError:
                continue
            break
        ok = ok and within(kc, Polynomial((1, 1)) ** (k + 1), k)

    charlier = Charlier(F(1))
    for k, seed in seeds.items():
        kc = construct_type1(charlier, catalog(charlier)[0], seed, nmax=13)
        mult = Polynomial.from_roots([-j for j in range(1, k + 2)])
        ok = ok and within(kc, mult, k)

    # bilinear-form orthogonality and band property off the integer ladder
    for al in (F(1, 2), F(5, 2)):
        for seed in (Polynomial((F(1, 3), 1)), Polynomial((1, 1, 1))):
            k = seed.degree
            fam = Laguerre(al)
            kc = construct_type1(fam, catalog(fam)[0], seed, nmax=10)
            qs = [kc.q(n) for n in range(11)]
            xk1 = Polynomial.monomial(k + 1)
            for n in range(11):
                for j in range(n):
                    ok = ok and occ_form(al, seed, qs[n], qs[j]) == 0
                ok = ok and occ_form(al, seed, qs[n], qs[n]) != 0
                if n >= k + 2:
                    for j in range(n - k - 1):
                        ok = ok and occ_form(al, seed, xk1 * qs[n], qs[j]) == 0
    elapsed = time.monotonic() - start
    _report(9, ok, f"recurrence bands within [-k-1, k+1] for k <= 3, n <= 12,"
                   f" and bilinear-form properties for alpha in {{1/2, 5/2}},"
                   f" k <= 2, n <= 10 ({elapsed:.2f}s)")


def test_criterion_10_exactness_and_wall_clock(module_start):
    # Everything upstream flows through Fraction; spot-check the types at
    # the API seams, then bound this module's own wall clock.
    kc = named("charlier", {"a": F(1)}, 2, nmax=6)
    assert isinstance(kc.construction.beta(1), Fraction)
    assert isinstance(kc.construction.eigval(3), Fraction)
    assert all(isinstance(c, Fraction) for c in kc.construction.q(4).coeffs)
    assert isinstance(pairing(kc.functional, kc.construction.q(2)), Fraction)
    elapsed = time.monotonic() - module_start
    ok = elapsed < 60
    _report(10, ok, f"exact rational arithmetic end to end; acceptance module"
                    f" wall clock {elapsed:.2f}s < 60s")
